package main

// Kill-and-recover E2E at the binary level (docs/STORAGE.md): a real
// lesslogd process with -data-dir and -fsync always takes a write burst,
// dies by SIGKILL mid-burst, and restarts from the same directory. Every
// store the client saw acknowledged must come back at its version (ack ⇒
// fsynced ⇒ recovered; the torn tail is truncated, never served), and
// the restarted daemon re-announces its recovered inventory through the
// repair plane — the in-process bootstrap peer receives the copies it is
// the required holder for without any client re-insert. A SIGTERM then
// only closes the daemon: restarted against a fresh, empty bootstrap
// peer, it still serves every acked name from its own log.

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"lesslog/internal/bitops"
	"lesslog/internal/hashring"
	"lesslog/internal/netnode"
)

var addrRe = regexp.MustCompile(`msg="serving after join".* addr=([0-9.]+:[0-9]+)`)

// startDaemon launches the built lesslogd and returns its process and
// bound address (parsed from the structured log).
func startDaemon(t *testing.T, bin, dataDir, bootstrap string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin,
		"-pid", "0", "-m", "2",
		"-bootstrap", bootstrap,
		"-data-dir", dataDir,
		"-fsync", "always",
		"-segment-size", "65536",
	)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := addrRe.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return cmd, addr
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		t.Fatal("daemon never logged its serving address")
		return nil, ""
	}
}

func TestLesslogdKillAndRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real processes")
	}
	bin := filepath.Join(t.TempDir(), "lesslogd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// In-process bootstrap peer at PID 1: join target, repair partner,
	// and the observer for the re-announce assertion.
	boot, err := netnode.Listen(netnode.Config{PID: 1, M: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer boot.Close()
	boot.SetAddrs(map[bitops.PID]string{1: boot.Addr()})

	dataDir := filepath.Join(t.TempDir(), "data")
	daemon, addr := startDaemon(t, bin, dataDir, boot.Addr())
	defer daemon.Process.Kill()

	// Write burst straight at the daemon (a placement stores locally).
	// Everything acked before the SIGKILL must survive it.
	cl := netnode.NewClient(addr)
	type acked struct {
		name    string
		version uint64
	}
	var (
		mu   sync.Mutex
		acks []acked
	)
	stop := make(chan struct{})
	burstDone := make(chan struct{})
	go func() {
		defer close(burstDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := fmt.Sprintf("burst/%04d", i)
			v := uint64(i + 1)
			if err := cl.Store(name, []byte(strings.Repeat("x", 64)+name), v, false); err != nil {
				return // the kill landed mid-RPC; that write was never acked
			}
			mu.Lock()
			acks = append(acks, acked{name, v})
			mu.Unlock()
		}
	}()
	deadline := time.Now().Add(20 * time.Second)
	for {
		mu.Lock()
		n := len(acks)
		mu.Unlock()
		if n >= 400 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("burst stalled at %d acks", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// SIGKILL mid-burst: no flush, no goodbye.
	if err := daemon.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	daemon.Wait()
	close(stop)
	<-burstDone
	mu.Lock()
	final := append([]acked(nil), acks...)
	mu.Unlock()
	t.Logf("SIGKILL after %d acked stores", len(final))

	// Restart from the same directory; recovery must replay every acked
	// record (truncating whatever tail the kill tore).
	daemon2, addr2 := startDaemon(t, bin, dataDir, boot.Addr())
	defer daemon2.Process.Kill()
	cl2 := netnode.NewClient(addr2)
	for _, a := range final {
		res, err := cl2.Get(a.name)
		if err != nil {
			t.Fatalf("acked %s lost after kill -9: %v", a.name, err)
		}
		if res.Version != a.version {
			t.Fatalf("%s recovered at v%d, acked v%d", a.name, res.Version, a.version)
		}
	}

	// Restart warming: the daemon's background AnnounceInventory pushes
	// recovered copies to their required holders — the bootstrap peer must
	// end up holding the names it is primary for, with no client involved.
	var wantOnBoot []string
	for _, a := range final {
		if hashring.Default.Target(a.name, 2) == 1 {
			wantOnBoot = append(wantOnBoot, a.name)
		}
	}
	if len(wantOnBoot) == 0 {
		t.Fatal("burst produced no names targeting the bootstrap peer")
	}
	warmDeadline := time.Now().Add(20 * time.Second)
	for {
		missing := 0
		for _, name := range wantOnBoot {
			if !boot.HasFile(name) {
				missing++
			}
		}
		if missing == 0 {
			break
		}
		if time.Now().After(warmDeadline) {
			t.Fatalf("re-announce incomplete: %d/%d names never reached the bootstrap peer",
				missing, len(wantOnBoot))
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Logf("restart recovered %d acked names and re-announced %d to their primary",
		len(final), len(wantOnBoot))

	// Graceful shutdown: SIGTERM flushes and exits zero.
	if err := daemon2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exit := make(chan error, 1)
	go func() { exit <- daemon2.Wait() }()
	select {
	case err := <-exit:
		if err != nil {
			t.Fatalf("SIGTERM exit: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon hung on SIGTERM")
	}
	if _, err := os.Stat(dataDir); err != nil {
		t.Fatalf("data dir gone after graceful exit: %v", err)
	}

	// A stop is not a departure: the SIGTERM only closed the daemon, so
	// its log still holds every acked copy. Replace the bootstrap peer with
	// a fresh, empty one — nothing else in the fabric holds a copy now —
	// and restart the daemon from the same directory: every acked name
	// must read back from the daemon at its version.
	boot.Close()
	boot2, err := netnode.Listen(netnode.Config{PID: 1, M: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer boot2.Close()
	boot2.SetAddrs(map[bitops.PID]string{1: boot2.Addr()})
	daemon3, addr3 := startDaemon(t, bin, dataDir, boot2.Addr())
	defer daemon3.Process.Kill()
	cl3 := netnode.NewClient(addr3)
	for _, a := range final {
		res, err := cl3.Get(a.name)
		if err != nil {
			t.Fatalf("acked %s lost across SIGTERM and restart: %v", a.name, err)
		}
		if res.Version != a.version {
			t.Fatalf("%s back at v%d after SIGTERM, acked v%d", a.name, res.Version, a.version)
		}
	}
}
