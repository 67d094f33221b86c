package netnode

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"lesslog/internal/bitops"
	"lesslog/internal/hashring"
	"lesslog/internal/msg"
	"lesslog/internal/transport"
)

// epochStandIn stands in for a peer of another epoch: it reads the hello
// each dialer opens with, answers with one announcing its own epoch, and
// decodes nothing after it — what the dialer pipelined behind its hello is
// discarded until the dialer hangs up.
type epochStandIn struct {
	ln     net.Listener
	hellos atomic.Int64 // connections that opened with this build's hello
	other  atomic.Int64 // connections that opened with anything else
	wg     sync.WaitGroup
}

func newEpochStandIn(t *testing.T, epoch uint32) *epochStandIn {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &epochStandIn{ln: ln}
	var mu sync.Mutex
	var open []net.Conn
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			open = append(open, conn)
			mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer conn.Close()
				hello := make([]byte, msg.HelloLen)
				if _, err := io.ReadFull(conn, hello); err != nil || !bytes.Equal(hello, msg.AppendHello(nil, msg.Epoch)) {
					s.other.Add(1)
					return
				}
				s.hellos.Add(1)
				if _, err := conn.Write(msg.AppendHello(nil, epoch)); err != nil {
					return
				}
				io.Copy(io.Discard, conn)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, c := range open {
			c.Close()
		}
		mu.Unlock()
		s.wg.Wait()
	})
	return s
}

func (s *epochStandIn) addr() string { return s.ln.Addr().String() }

// namesEpochs reports whether err names this build's epoch and the next.
func namesEpochs(err error) bool {
	return err != nil && strings.Contains(err.Error(), fmt.Sprintf("epoch %d", msg.Epoch)) &&
		strings.Contains(err.Error(), fmt.Sprintf("epoch %d", msg.Epoch+1))
}

// TestPeerOfAnotherEpochRefused: one slot of the peer table points at a
// stand-in for a peer of the next epoch. Every write either succeeds on
// copies held by this epoch's peers, or fails with an error naming both
// epochs; no write half-applies, and no failure detector declares the slot
// down. The stand-in decodes no frame, the peers
// that dialed it count the refusals on /healthz, and a plain client, a
// locate client and a joiner that reach it directly each fail naming both
// epochs.
func TestPeerOfAnotherEpochRefused(t *testing.T) {
	const slot = bitops.PID(5)
	for _, tc := range []struct {
		name   string
		b      int
		hasher hashring.Hasher
		names  int
	}{
		{"spread B=1", 1, nil, 24},                        // the slot is one of two primaries for some names
		{"only primary", 0, hashring.Fixed(int(slot)), 8}, // the slot is every name's one primary
	} {
		t.Run(tc.name, func(t *testing.T) {
			var pids []bitops.PID
			for _, pid := range allPIDs(8) {
				if pid != slot {
					pids = append(pids, pid)
				}
			}
			peers := startSystemWith(t, pids, Config{M: 3, B: tc.b, Hasher: tc.hasher})
			other := newEpochStandIn(t, msg.Epoch+1)
			addrs := map[bitops.PID]string{slot: other.addr()}
			for pid, p := range peers {
				addrs[pid] = p.Addr()
			}
			for _, p := range peers {
				p.SetAddrs(addrs)
			}

			failed := 0
			write := func(op string, err error) bool {
				t.Helper()
				switch {
				case err == nil:
					return true
				case namesEpochs(err):
					failed++
				default:
					t.Errorf("%s: %v; want success or an error naming epochs %d and %d", op, err, msg.Epoch, msg.Epoch+1)
				}
				return false
			}
			// holding counts the peers holding name at exactly body.
			holding := func(name string, body []byte) int {
				n := 0
				for _, p := range peers {
					if f, ok := p.store.Peek(name); ok && bytes.Equal(f.Data, body) {
						n++
					}
				}
				return n
			}
			for i := 0; i < tc.names; i++ {
				name := fmt.Sprintf("epoch/%02d", i)
				v1, v2 := chunkPayload(4<<10, int64(2*i)), chunkPayload(4<<10, int64(2*i+1))
				entry := peers[pids[i%len(pids)]]
				if !write("insert "+name, NewClient(entry.Addr()).Insert(name, v1)) {
					continue
				}
				if holding(name, v1) == 0 {
					t.Errorf("insert %s acknowledged, but no peer of this epoch holds it", name)
				}
				entry = peers[pids[(i+3)%len(pids)]]
				n, err := NewClient(entry.Addr()).Update(name, v2)
				if write("update "+name, err) && holding(name, v2) != n {
					t.Errorf("update %s acknowledged %d copies, %d peers of this epoch hold it", name, n, holding(name, v2))
				}
			}
			if tc.b == 0 && failed == 0 {
				t.Error("no write failed, though the slot was every name's one primary")
			}

			// Entering at the slot itself.
			if err := NewClient(other.addr()).Insert("epoch/direct", []byte("x")); !namesEpochs(err) {
				t.Errorf("plain client at the slot: %v; want an error naming both epochs", err)
			}
			tr := transport.New(transport.Config{}, nil)
			defer tr.Close()
			if err := NewLocateClientWith(other.addr(), tr, LocateOptions{}).Insert("epoch/locate", []byte("x")); !namesEpochs(err) {
				t.Errorf("locate client at the slot: %v; want an error naming both epochs", err)
			}
			joiner, err := Listen(Config{M: 3, B: tc.b, PID: slot, Hasher: tc.hasher})
			if err != nil {
				t.Fatal(err)
			}
			defer joiner.Close()
			if err := joiner.Join(other.addr()); !namesEpochs(err) {
				t.Errorf("join through the slot: %v; want an error naming both epochs", err)
			}

			if n := other.other.Load(); n != 0 {
				t.Errorf("%d connections reached the stand-in without this build's hello", n)
			}
			var counted, shown uint64
			for pid, p := range peers {
				if p.det.Down(uint32(slot)) {
					t.Errorf("P(%d) declared the slot down: a peer of another epoch is not a crashed one", pid)
				}
				counted += p.tr.Counters().EpochRefused.Value()
				shown += healthzEpochRefused(t, p)
			}
			if counted == 0 || shown != counted {
				t.Errorf("/healthz shows %d refusals, the transports counted %d; want the same, above 0", shown, counted)
			}
			t.Logf("%d writes failed naming both epochs, %d refusals counted", failed, counted)
			if dialed := other.hellos.Load(); dialed < int64(counted) {
				t.Errorf("%d refusals counted for %d dials of the stand-in", counted, dialed)
			}
		})
	}
}

// healthzEpochRefused reads epoch_refused off p's /healthz.
func healthzEpochRefused(t *testing.T, p *Peer) uint64 {
	t.Helper()
	adm, err := p.ServeAdmin("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer adm.Close()
	resp, err := http.Get("http://" + adm.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h adminHealth
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Epoch != msg.Epoch {
		t.Errorf("/healthz epoch %d, want %d", h.Epoch, msg.Epoch)
	}
	return h.EpochRefused
}
