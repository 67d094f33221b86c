package netnode

// A stop is not a departure (docs/ROUTING.md "Upgrading a fleet"): a
// whole fleet that closes and restarts from its data directories must
// come back holding what it held, and a fleet whose peers all leave one
// by one (§5.2) must still hold every acked name somewhere — the last
// leaver of a subtree has no primary to hand its copies to, so it keeps
// its store and log instead of retiring them.

import (
	"fmt"
	"maps"
	"sync"
	"testing"

	"lesslog/internal/bitops"
	"lesslog/internal/hashring"
	"lesslog/internal/msg"
	"lesslog/internal/wal"
)

// durableFleet is an M = 3 fabric of eight peers, each with its own data
// directory under FsyncAlways, and the writes its client saw acked.
type durableFleet struct {
	cfgs  []Config
	peers []*Peer
	acked map[string]ackedWrite
}

// ackedWrite is a name's last acknowledged write: the version the fabric
// stamped and the body.
type ackedWrite struct {
	version uint64
	body    string
}

// startDurableFleet boots the fleet and acks inserts of 24 names through
// rotating entry peers, then updates every third name once and every
// fourth once more.
func startDurableFleet(t *testing.T, b int) *durableFleet {
	t.Helper()
	const n = 8
	fl := &durableFleet{acked: map[string]ackedWrite{}}
	for i := 0; i < n; i++ {
		fl.cfgs = append(fl.cfgs, Config{
			PID: bitops.PID(i), M: 3, B: b, Hasher: hashring.Default,
			DataDir: t.TempDir(), Fsync: wal.FsyncAlways,
		})
	}
	fl.restart(t)
	for i := 0; i < 24; i++ {
		name := fmt.Sprintf("fleet/%02d", i)
		cl := NewClient(fl.peers[i%n].Addr())
		writes := []msg.Kind{msg.KindInsert}
		if i%3 == 0 {
			writes = append(writes, msg.KindUpdate)
		}
		if i%4 == 0 {
			writes = append(writes, msg.KindUpdate)
		}
		for w, kind := range writes {
			body := fmt.Sprintf("%s#%d", name, w)
			resp, err := cl.Write(&msg.Request{Kind: kind, Name: name, Data: []byte(body)})
			if err != nil {
				t.Fatal(err)
			}
			fl.acked[name] = ackedWrite{resp.Version, body}
		}
	}
	fl.readBack(t, fl.peers[0])
	return fl
}

// restart listens every peer on its own directory (replaying its log)
// and installs the new address table everywhere.
func (fl *durableFleet) restart(t *testing.T) {
	t.Helper()
	fl.peers = fl.peers[:0]
	addrs := make(map[bitops.PID]string, len(fl.cfgs))
	for _, cfg := range fl.cfgs {
		p, err := Listen(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		fl.peers = append(fl.peers, p)
		addrs[cfg.PID] = p.Addr()
	}
	for _, p := range fl.peers {
		p.SetAddrs(addrs)
	}
}

// inventories is each peer's name→version map.
func (fl *durableFleet) inventories() []map[string]uint64 {
	out := make([]map[string]uint64, len(fl.peers))
	for i, p := range fl.peers {
		out[i] = map[string]uint64{}
		for _, r := range p.store.Records() {
			out[i][r.Name] = r.Version
		}
	}
	return out
}

// readBack gets every acked name through entry and wants its acked
// version and body.
func (fl *durableFleet) readBack(t *testing.T, entry *Peer) {
	t.Helper()
	cl := NewClient(entry.Addr())
	for name, a := range fl.acked {
		res, err := cl.Get(name)
		if err != nil {
			t.Fatalf("get %s via P(%d): %v", name, entry.cfg.PID, err)
		}
		if res.Version != a.version || string(res.Data) != a.body {
			t.Fatalf("get %s via P(%d) = v%d %q, acked v%d %q",
				name, entry.cfg.PID, res.Version, res.Data, a.version, a.body)
		}
	}
}

// Every peer stops — one by one in PID order, or all at once — and
// restarts on its own directory: each comes back with exactly the
// inventory it stopped with, and every acked name reads back at its
// version from every entry peer. This is the fleet upgrade of
// docs/ROUTING.md, with Close standing in for the signal.
func TestWholeFleetStopKeepsEveryCopy(t *testing.T) {
	for _, b := range []int{0, 1} {
		for _, order := range []string{"pid_order", "concurrent"} {
			t.Run(fmt.Sprintf("b%d/%s", b, order), func(t *testing.T) {
				fl := startDurableFleet(t, b)
				before := fl.inventories()
				if order == "pid_order" {
					for _, p := range fl.peers {
						if err := p.Close(); err != nil {
							t.Fatal(err)
						}
					}
				} else {
					var wg sync.WaitGroup
					for _, p := range fl.peers {
						wg.Add(1)
						go func() {
							defer wg.Done()
							if err := p.Close(); err != nil {
								t.Error(err)
							}
						}()
					}
					wg.Wait()
				}
				fl.restart(t)
				after := fl.inventories()
				for i := range before {
					if !maps.Equal(after[i], before[i]) {
						t.Fatalf("P(%d) restarted with %v, stopped with %v", i, after[i], before[i])
					}
				}
				for _, p := range fl.peers {
					fl.readBack(t, p)
				}
			})
		}
	}
}

// Every peer leaves (§5.2) and closes, in PID order, then restarts on
// its own directory. The last leaver of each subtree finds no primary
// for its copies, so it must keep its store and log rather than retire
// copies nobody took: the replayed stores together hold every acked
// name at its acked version, and one warming round per peer puts each
// back where a get finds it.
func TestLastLeaverKeepsUnplacedCopies(t *testing.T) {
	for _, b := range []int{0, 1} {
		t.Run(fmt.Sprintf("b%d", b), func(t *testing.T) {
			fl := startDurableFleet(t, b)
			for _, p := range fl.peers {
				if err := p.Leave(); err != nil {
					t.Fatal(err)
				}
				if err := p.Close(); err != nil {
					t.Fatal(err)
				}
			}
			fl.restart(t)
			held := map[string]uint64{}
			for _, inv := range fl.inventories() {
				for name, v := range inv {
					held[name] = max(held[name], v)
				}
			}
			for name, a := range fl.acked {
				if held[name] != a.version {
					t.Fatalf("replayed stores hold %s at v%d, acked v%d", name, held[name], a.version)
				}
			}
			for _, p := range fl.peers {
				p.AnnounceInventory()
			}
			fl.readBack(t, fl.peers[0])
		})
	}
}
