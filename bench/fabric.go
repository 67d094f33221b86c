package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"

	"lesslog/internal/bitops"
	"lesslog/internal/gateway"
	"lesslog/internal/netnode"
)

// The fixed fabric every workload runs on (ISSUE 13): 8 durable peers,
// M=3, B=1 (two primary holders per name), every other knob at its
// default, and one default-config gateway listening on loopback. The
// maintenance and repair loops only run when started, so they stay off.
const (
	fabricPeers = 8
	fabricM     = 3
	fabricB     = 1
)

// tmpfsMagic is statfs's f_type for tmpfs (linux/magic.h TMPFS_MAGIC).
const tmpfsMagic = 0x01021994

type fabric struct {
	peers   []*netnode.Peer
	gw      *gateway.Gateway
	srv     *gateway.Server
	dataDir string
}

// startFabric boots the fabric with one WAL directory per peer under
// dataDir, which it creates and close removes again.
func startFabric(dataDir string) (*fabric, error) {
	f := &fabric{dataDir: dataDir}
	addrs := make(map[bitops.PID]string, fabricPeers)
	for pid := 0; pid < fabricPeers; pid++ {
		p, err := netnode.Listen(netnode.Config{
			PID: bitops.PID(pid), M: fabricM, B: fabricB,
			DataDir: filepath.Join(dataDir, fmt.Sprintf("peer%d", pid)),
		})
		if err != nil {
			f.close()
			return nil, fmt.Errorf("start peer %d: %w", pid, err)
		}
		f.peers = append(f.peers, p)
		addrs[p.PID()] = p.Addr()
	}
	for _, p := range f.peers {
		p.SetAddrs(addrs)
	}
	gw, err := gateway.New(gateway.Config{Peers: f.peerAddrs()})
	if err != nil {
		f.close()
		return nil, fmt.Errorf("start gateway: %w", err)
	}
	f.gw = gw
	if f.srv, err = gw.Listen("127.0.0.1:0"); err != nil {
		f.close()
		return nil, fmt.Errorf("start gateway: %w", err)
	}
	return f, nil
}

func (f *fabric) peerAddrs() []string {
	addrs := make([]string, len(f.peers))
	for i, p := range f.peers {
		addrs[i] = p.Addr()
	}
	return addrs
}

// close stops the gateway and every peer (each waits for its handlers and
// flushes its log) and removes the WAL directories.
func (f *fabric) close() error {
	var errs []error
	if f.srv != nil {
		errs = append(errs, f.srv.Close())
	}
	if f.gw != nil {
		errs = append(errs, f.gw.Close())
	}
	for _, p := range f.peers {
		errs = append(errs, p.Close())
	}
	errs = append(errs, os.RemoveAll(f.dataDir))
	return errors.Join(errs...)
}

// dirFS names the filesystem kind under dir for the run record: the WAL's
// append and fsync cost on a shared disk is the sandbox's, not the program's.
func dirFS(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if st.Type == tmpfsMagic {
		return "tmpfs"
	}
	return fmt.Sprintf("disk(0x%x)", st.Type)
}

// dirUsage sums the file sizes under dir and counts the log's sealed
// segments (every *.seg but each peer's active one) and checkpoint files.
func dirUsage(dir string) (bytes int64, sealed, checkpoints int) {
	peerDirs, _ := os.ReadDir(dir)
	for _, pd := range peerDirs {
		entries, _ := os.ReadDir(filepath.Join(dir, pd.Name()))
		segs := 0
		for _, e := range entries {
			if info, err := e.Info(); err == nil {
				bytes += info.Size()
			}
			switch filepath.Ext(e.Name()) {
			case ".seg":
				segs++
			case ".cpt":
				checkpoints++
			}
		}
		if segs > 1 {
			sealed += segs - 1
		}
	}
	return bytes, sealed, checkpoints
}
