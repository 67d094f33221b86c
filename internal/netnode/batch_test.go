package netnode

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/crc32"
	"net"
	"strings"
	"testing"
	"time"

	"lesslog/internal/hashring"
	"lesslog/internal/msg"
)

// sendBatch frames subs into one KindBatch exchange with addr and returns
// the decoded sub-responses.
func sendBatch(t *testing.T, addr string, subs []*msg.Request) []*msg.Response {
	t.Helper()
	data, err := msg.AppendBatchRequests(nil, subs)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := Call(addr, &msg.Request{Kind: msg.KindBatch, Data: data})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatalf("batch rejected: %s", resp.Err)
	}
	out, err := msg.DecodeBatchResponses(resp.Data)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestBatchServesMixedSubRequests(t *testing.T) {
	peers := startSystem(t, 4, 0, allPIDs(16), nil)
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("batch/%d", i)
		if err := NewClient(peers[0].Addr()).Insert(name, []byte(name)); err != nil {
			t.Fatal(err)
		}
	}
	subs := []*msg.Request{
		{Kind: msg.KindGet, Name: "batch/0"},
		{Kind: msg.KindGet, Name: "batch/3"},
		{Kind: msg.KindGet, Name: "batch/missing"},
		{Kind: msg.KindHas, Name: "batch/1"},
	}
	out := sendBatch(t, peers[5].Addr(), subs)
	if len(out) != len(subs) {
		t.Fatalf("got %d sub-responses, want %d", len(out), len(subs))
	}
	if !out[0].OK || !bytes.Equal(out[0].Data, []byte("batch/0")) {
		t.Fatalf("sub-response 0 = %+v", out[0])
	}
	if !out[1].OK || !bytes.Equal(out[1].Data, []byte("batch/3")) {
		t.Fatalf("sub-response 1 = %+v", out[1])
	}
	if out[2].OK {
		t.Fatalf("missing file served through batch: %+v", out[2])
	}
}

func TestBatchRejectsCorruptPayload(t *testing.T) {
	peers := startSystem(t, 3, 0, allPIDs(8), nil)
	resp, err := Call(peers[0].Addr(), &msg.Request{Kind: msg.KindBatch, Data: []byte{0xFF, 0xFF}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || !strings.Contains(resp.Err, "batch decode") {
		t.Fatalf("corrupt batch accepted: %+v", resp)
	}
}

// TestEveryKindHasHandler iterates the whole kind space: each declared
// kind must reach a real handler arm — never the "unknown kind" default —
// so adding a kind (as KindBatch was) cannot silently miss the dispatch
// switch. The retired numbers and one past the last kind must still be
// rejected (TestRetiredKindsRefused).
func TestEveryKindHasHandler(t *testing.T) {
	peers := startSystem(t, 3, 0, allPIDs(8), nil)
	addr := peers[0].Addr()
	if err := NewClient(addr).Insert("seed", []byte("x")); err != nil {
		t.Fatal(err)
	}
	emptyBatch, err := msg.AppendBatchRequests(nil, nil)
	if err != nil {
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
		msg.KindBatch:     {Kind: msg.KindBatch, Data: emptyBatch},
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
		resp, err := Call(addr, req)
		if err != nil {
			t.Fatalf("kind %v: %v", kind, err)
		}
		if strings.Contains(resp.Err, "unknown kind") {
			t.Errorf("kind %v fell through to the unknown-kind default; extend dispatch", kind)
		}
	}
	resp, err := Call(addr, &msg.Request{Kind: msg.Kind(msg.KindCount), Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || !strings.Contains(resp.Err, "unknown kind") {
		t.Fatalf("kind KindCount should be rejected, got %+v", resp)
	}
}

// TestRetiredKindsRefused pins one policy for retired wire numbers: an
// older build's whole-frame placement (kind 4) and its single-holder
// locate (kind 11) each get the generic unknown-kind answer and change
// nothing, and the request pipelined behind them on the same connection is
// still served.
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
	br := bufio.NewReader(conn)
	for i, old := range []*msg.Request{
		{Kind: msg.Kind(4), Name: "old/placed", Data: []byte("older build"), Version: clock + 10},
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
