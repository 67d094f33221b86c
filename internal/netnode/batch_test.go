package netnode

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

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
// switch. One past the last kind must still be rejected.
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
		msg.KindStore:  {Kind: msg.KindStore, Name: "k/store", Data: []byte("v"), Version: 1},
		msg.KindStat:   {Kind: msg.KindStat},
		// Propagated registration of a peer that is already live: applied
		// locally, no relays, no membership change.
		msg.KindRegister: {Kind: msg.KindRegister, Flags: msg.FlagPropagate,
			Origin: 1, Data: []byte(peers[1].Addr())},
		msg.KindTable:     {Kind: msg.KindTable},
		msg.KindHas:       {Kind: msg.KindHas, Name: "seed"},
		msg.KindDelete:    {Kind: msg.KindDelete, Name: "k/store"},
		msg.KindBatch:     {Kind: msg.KindBatch, Data: emptyBatch},
		msg.KindDigest:    {Kind: msg.KindDigest, Origin: 1, Data: emptyDigest},
		msg.KindTraces:    {Kind: msg.KindTraces},
		msg.KindFetch:     {Kind: msg.KindFetch, Name: "seed", Data: headRange},
		msg.KindLocateSet: {Kind: msg.KindLocateSet, Name: "seed"},
		msg.KindPut:       {Kind: msg.KindPut, Name: "k/put", Data: putOpen},
		msg.KindNotify:    {Kind: msg.KindNotify, Name: "seed", Version: 1, Data: notifyHeld},
		// 11, the retired single-holder locate, is still answered while
		// older builds send it (TestRetiredLocateKindAnswered).
		msg.Kind(11): {Kind: msg.Kind(11), Name: "seed"},
	}
	for k := 1; k < msg.KindCount; k++ {
		kind := msg.Kind(k)
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
