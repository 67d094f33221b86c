package netnode

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"net"
	"strings"
	"testing"
	"time"

	"lesslog/internal/hashring"
	"lesslog/internal/msg"
)

// TestEveryKindHasHandler iterates the whole kind space: each declared
// kind must reach a real handler arm — never the "unknown kind" default —
// so adding a kind cannot silently miss the dispatch switch. The retired numbers and one past the last kind must still be
// rejected (TestRetiredKindsRefused).
func TestEveryKindHasHandler(t *testing.T) {
	peers := startSystem(t, 3, 0, allPIDs(8), nil)
	addr := peers[0].Addr()
	if err := NewClient(addr).Insert("seed", []byte("x")); err != nil {
		t.Fatal(err)
	}
	emptyDigest, err := msg.AppendDigest(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	headRange, err := msg.AppendFetchReq(nil, msg.FetchReq{Offset: 0, Length: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	putOpen, err := msg.AppendPutReq(nil, &msg.PutReq{
		Op: msg.PutData, TotalSize: 1, FileCRC: crc32.Checksum([]byte("p"), castagnoli),
		ChunkCRC: crc32.Checksum([]byte("p"), castagnoli), Chunk: []byte("p"),
	})
	if err != nil {
		t.Fatal(err)
	}
	// A direct notify for a name already held at least as new: the fast
	// path answers OK without pulling anything.
	notifyHeld, err := msg.AppendNotifyReq(nil, &msg.NotifyReq{
		TotalSize: 1, FileCRC: 1,
		Sources: []msg.Holder{{PID: 1, Addr: peers[1].Addr(), Version: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs := map[msg.Kind]*msg.Request{
		msg.KindInsert: {Kind: msg.KindInsert, Name: "k/insert", Data: []byte("v")},
		msg.KindGet:    {Kind: msg.KindGet, Name: "seed"},
		msg.KindUpdate: {Kind: msg.KindUpdate, Name: "seed", Data: []byte("v2")},
		msg.KindStat:   {Kind: msg.KindStat},
		// Propagated registration of a peer that is already live: applied
		// locally, no relays, no membership change.
		msg.KindRegister: {Kind: msg.KindRegister, Flags: msg.FlagPropagate,
			Origin: 1, Data: []byte(peers[1].Addr())},
		msg.KindTable:     {Kind: msg.KindTable},
		msg.KindHas:       {Kind: msg.KindHas, Name: "seed"},
		msg.KindDelete:    {Kind: msg.KindDelete, Name: "k/insert"},
		msg.KindDigest:    {Kind: msg.KindDigest, Origin: 1, Data: emptyDigest},
		msg.KindTraces:    {Kind: msg.KindTraces},
		msg.KindFetch:     {Kind: msg.KindFetch, Name: "seed", Data: headRange},
		msg.KindLocateSet: {Kind: msg.KindLocateSet, Name: "seed"},
		msg.KindPut:       {Kind: msg.KindPut, Name: "k/put", Data: putOpen},
		msg.KindNotify:    {Kind: msg.KindNotify, Name: "seed", Version: 1, Data: notifyHeld},
	}
	for k := 1; k < msg.KindCount; k++ {
		kind := msg.Kind(k)
		if kind.String() == fmt.Sprintf("kind(%d)", k) {
			continue // a retired number
		}
		req, covered := reqs[kind]
		if !covered {
			t.Errorf("kind %v (%d) has no probe request; extend this test with the new kind", kind, k)
			continue
		}
		resp, err := NewClient(addr).Do(req, false)
		if err != nil {
			t.Fatalf("kind %v: %v", kind, err)
		}
		if strings.Contains(resp.Err, "unknown kind") {
			t.Errorf("kind %v fell through to the unknown-kind default; extend dispatch", kind)
		}
	}
	resp, err := NewClient(addr).Do(&msg.Request{Kind: msg.Kind(msg.KindCount), Name: "x"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || !strings.Contains(resp.Err, "unknown kind") {
		t.Fatalf("kind KindCount should be rejected, got %+v", resp)
	}
}

// TestRetiredKindsRefused pins one policy for retired wire numbers: an
// older build's whole-frame placement (kind 4), the sub-request batch no
// build ever sent (kind 10) and the single-holder locate (kind 11) each get
// the generic unknown-kind answer and change nothing, and the request
// pipelined behind them on the same connection is still served.
func TestRetiredKindsRefused(t *testing.T) {
	peers := startSystem(t, 4, 0, allPIDs(16), hashring.Fixed(4))
	if err := NewClient(peers[9].Addr()).Insert("f", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	holder := peers[4]
	stored, clock := holder.Stats().Stored.Load(), holder.clock.Load()
	conn, err := net.Dial("tcp", holder.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(msg.AppendHello(nil, msg.Epoch)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	for i, old := range []*msg.Request{
		{Kind: msg.Kind(4), Name: "old/placed", Data: []byte("older build"), Version: clock + 10},
		{Kind: msg.Kind(10), Data: []byte{0, 0, 0, 1, 0xFF}},
		{Kind: msg.Kind(11), Name: "f"},
	} {
		id := uint64(2 * i)
		if err := msg.WriteRequestID(conn, old, id+1); err != nil {
			t.Fatal(err)
		}
		if err := msg.WriteRequestID(conn, &msg.Request{Kind: msg.KindLocateSet, Name: "f"}, id+2); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if i == 0 {
			if epoch, err := msg.ReadHello(br); err != nil || epoch != msg.Epoch {
				t.Fatalf("hello: epoch %d, %v", epoch, err)
			}
		}
		answers := map[uint64]*msg.Response{}
		for range 2 {
			resp, rid, err := msg.ReadResponseID(br)
			if err != nil {
				t.Fatalf("kind %d: %v", old.Kind, err)
			}
			answers[rid] = resp
		}
		want := fmt.Sprintf("netnode: unknown kind kind(%d)", old.Kind)
		if resp := answers[id+1]; resp == nil || resp.OK || resp.Err != want {
			t.Fatalf("kind %d answered %+v, want %q", old.Kind, resp, want)
		}
		if resp := answers[id+2]; resp == nil || !resp.OK || resp.ServedBy != 4 {
			t.Fatalf("the locate pipelined behind kind %d answered %+v, want P(4)'s", old.Kind, resp)
		}
	}
	for pid, p := range peers {
		if p.store.Has("old/placed") {
			t.Errorf("P(%d) stored the refused placement", pid)
		}
	}
	if got := holder.Stats().Stored.Load(); got != stored {
		t.Errorf("P(4) stored %d copies after the refusals", got-stored)
	}
	if got := holder.clock.Load(); got != clock {
		t.Errorf("P(4) clock moved %d -> %d: the refused placement's version was merged", clock, got)
	}
}
