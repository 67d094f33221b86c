package msg

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/wire.golden at the current Epoch")

const wireGolden = "testdata/wire.golden"

// canonHolders, canonHops and canonBody are the values every canonical
// encoding below shares.
var (
	canonHolders = []Holder{{PID: 3, Addr: "127.0.0.1:7103", Version: 9}, {PID: 5, Addr: "127.0.0.1:7105", Version: 0}}
	canonHops    = []Hop{{PID: 2, Parent: NoParent, Action: HopForward, Dur: 1500 * time.Microsecond}, {PID: 3, Parent: 2, Action: HopServe, Dur: 7 * time.Microsecond}}
	canonBody    = []byte("canonical body")
)

// canonRequest is one request of kind k as a peer would send it: the
// fields and the payload that kind carries.
func canonRequest(t *testing.T, k Kind) *Request {
	t.Helper()
	must := func(b []byte, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatalf("kind %v: %v", k, err)
		}
		return b
	}
	r := &Request{Kind: k, Origin: 6, Hops: 1, Subtree: 2, Version: 7, Name: "canon/name"}
	switch k {
	case KindInsert, KindUpdate:
		r.Data = canonBody
	case KindGet:
		r.Flags = FlagFallback | FlagTrace
		r.TraceID, r.Path = 0x1122334455667788, canonHops
	case KindStat:
		r.Flags, r.Name = FlagJSON|FlagInventory, ""
	case KindRegister:
		r.Flags, r.Name, r.Data = FlagPropagate|FlagDead, "", []byte("127.0.0.1:7106")
	case KindTable, KindTraces:
		r.Name = ""
	case KindDelete:
		r.Flags = FlagPropagate
	case KindDigest:
		r.Name, r.Data = "", must(AppendDigest(nil, []uint64{1, 0xfedcba9876543210}))
	case KindFetch:
		r.Flags, r.Data = FlagReplica, must(AppendFetchReq(nil, FetchReq{Offset: 1 << 20, Length: 4096}))
	case KindLocateSet:
		r.Flags, r.TraceID, r.Path = FlagTrace, 42, canonHops[:1]
	case KindPut:
		r.Data = must(AppendPutReq(nil, &PutReq{Op: PutData, Token: 11, Offset: 0, TotalSize: 20, FileCRC: 0xaabbccdd, ChunkCRC: 0x01020304, Chunk: canonBody}))
	case KindNotify:
		r.Flags, r.Data = FlagPropagate, must(AppendNotifyReq(nil, &NotifyReq{TotalSize: 20, FileCRC: 0xaabbccdd, Sources: canonHolders}))
	}
	return r
}

// wireEntries is one canonical encoding of every named kind, as a whole
// frame, and of every sub-message, in a fixed order: the bytes
// wire.golden pins.
func wireEntries(t *testing.T) [][2]string {
	t.Helper()
	var out [][2]string
	add := func(name string, b []byte, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, [2]string{name, hex.EncodeToString(b)})
	}
	add("hello", AppendHello(nil, Epoch), nil)
	for k := Kind(1); int(k) < KindCount; k++ {
		if strings.HasPrefix(k.String(), "kind(") {
			continue // retired
		}
		var frame bytes.Buffer
		err := WriteRequestID(&frame, canonRequest(t, k), uint64(k))
		add("kind "+k.String(), frame.Bytes(), err)
	}
	var resp bytes.Buffer
	err := WriteResponseID(&resp, &Response{OK: true, ServedBy: 3, Hops: 2, Version: 9, Data: canonBody, Path: canonHops}, 77)
	add("response", resp.Bytes(), err)
	first := &FetchResp{TotalSize: 20, FileCRC: 0xaabbccdd, ChunkCRC: 0x01020304, Chunk: canonBody}
	hh, err := AppendGetHeadHeader(nil, canonHolders, first)
	if err != nil {
		t.Fatalf("get head: %v", err)
	}
	var head bytes.Buffer
	err = WriteResponseID(&head, &Response{OK: true, Head: true, ServedBy: 3, Hops: 2, Version: 9, Data: hh, Tail: canonBody}, 78)
	add("response, get head", head.Bytes(), err)
	b, err := AppendNotifyReq(nil, &NotifyReq{TotalSize: uint64(len(canonBody)), Body: canonBody})
	add("notify facts, inline", b, err)
	b, err = AppendNotifyReq(nil, &NotifyReq{TotalSize: 20, FileCRC: 0xaabbccdd, Sources: canonHolders})
	add("notify facts, sources", b, err)
	b, err = AppendFetchReq(nil, FetchReq{Offset: 1 << 20, Length: 4096})
	add("fetch request", b, err)
	b, err = AppendFetchRespHeader(nil, &FetchResp{TotalSize: 20, FileCRC: 0xaabbccdd, ChunkCRC: 0x01020304, Chunk: canonBody})
	add("fetch response header", b, err)
	b, err = AppendPutReqHeader(nil, &PutReq{Op: PutUpdate, Token: 11, TotalSize: 20, FileCRC: 0xaabbccdd})
	add("put request header", b, err)
	b, err = AppendHolders(nil, canonHolders)
	add("holders", b, err)
	b, err = AppendDigest(nil, []uint64{1, 0xfedcba9876543210})
	add("digest", b, err)
	b, err = AppendDigestEntries(nil, []DigestEntry{{Name: "canon/name", Version: 7}})
	add("digest entries", b, err)
	add("trace tail", (&Request{TraceID: 0x1122334455667788, Path: canonHops}).appendTrailer(nil), nil)
	return out
}

// TestWireGolden pins every encoding to the epoch it was made at: a byte
// that changes while Epoch stays is a wire change a peer of the previous
// build would misread, and an Epoch that moves needs the golden made again
// (-update).
func TestWireGolden(t *testing.T) {
	entries := wireEntries(t)
	if *update {
		var b strings.Builder
		fmt.Fprintf(&b, "# One canonical encoding per request kind (a whole frame) and per\n")
		fmt.Fprintf(&b, "# sub-message, in hex, made at the epoch below by TestWireGolden -update.\n")
		fmt.Fprintf(&b, "epoch %d\n", Epoch)
		for _, e := range entries {
			fmt.Fprintf(&b, "%s: %s\n", e[0], e[1])
		}
		if err := os.WriteFile(wireGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(wireGolden)
	if err != nil {
		t.Fatalf("%v (make it with -update)", err)
	}
	defer f.Close()
	epoch, golden := -1, map[string]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "epoch "):
			if epoch, err = strconv.Atoi(strings.TrimPrefix(line, "epoch ")); err != nil {
				t.Fatalf("%s: %q: %v", wireGolden, line, err)
			}
		default:
			name, enc, ok := strings.Cut(line, ": ")
			if !ok {
				t.Fatalf("%s: malformed line %q", wireGolden, line)
			}
			golden[name] = enc
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if epoch != Epoch {
		t.Fatalf("%s was made at epoch %d, msg.Epoch is %d: regenerate it with -update", wireGolden, epoch, Epoch)
	}
	for _, e := range entries {
		want, ok := golden[e[0]]
		delete(golden, e[0])
		switch {
		case !ok:
			t.Errorf("%s: no %s at epoch %d: a new encoding moves msg.Epoch", wireGolden, e[0], Epoch)
		case want != e[1]:
			t.Errorf("%s changed at epoch %d: a wire change moves msg.Epoch (then -update)\n got %s\nwant %s",
				e[0], Epoch, e[1], want)
		}
	}
	for name := range golden {
		t.Errorf("%s: %s is no longer encoded: a wire change moves msg.Epoch", wireGolden, name)
	}
}
