package msg

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestRequestRoundTrip(t *testing.T) {
	f := func(kind uint8, flags uint8, origin, hops, subtree uint32, version uint64, name string, data []byte) bool {
		if len(name) > MaxName || len(data) > MaxData {
			return true // generator stays under limits anyway
		}
		in := &Request{
			Kind: Kind(kind), Flags: flags, Origin: origin, Hops: hops,
			Subtree: subtree, Version: version, Name: name, Data: data,
		}
		b, err := AppendRequest(nil, in)
		if err != nil {
			return false
		}
		out, err := DecodeRequest(b)
		if err != nil {
			return false
		}
		if len(in.Data) == 0 {
			in.Data = out.Data // nil vs empty slice are both fine
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestTracedRequestRoundTrip(t *testing.T) {
	in := &Request{
		Kind: KindGet, Flags: FlagTrace, Origin: 8, Hops: 2, Name: "f",
		TraceID: 0xDEADBEEFCAFE,
		Path: []Hop{
			{PID: 8, Parent: NoParent, Action: HopForward, Dur: 120 * time.Microsecond},
			{PID: 0, Parent: 8, Action: HopFallback, Dur: 45 * time.Microsecond},
			{PID: 4, Parent: 0, Action: HopServe, Dur: 310 * time.Microsecond},
		},
	}
	b, err := AppendRequest(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeRequest(b)
	if err != nil {
		t.Fatal(err)
	}
	if out.TraceID != in.TraceID || !reflect.DeepEqual(out.Path, in.Path) {
		t.Fatalf("trace round trip: %+v", out)
	}
	resp := &Response{OK: true, ServedBy: 4, Path: in.Path}
	rb, err := AppendResponse(nil, resp)
	if err != nil {
		t.Fatal(err)
	}
	rout, err := DecodeResponse(rb)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rout.Path, in.Path) {
		t.Fatalf("response path round trip: %+v", rout.Path)
	}
}

func TestTooManyHopsRejected(t *testing.T) {
	long := make([]Hop, MaxHops+1)
	if _, err := AppendRequest(nil, &Request{Kind: KindGet, Path: long}); err != ErrFrameTooLarge {
		t.Fatalf("request err = %v", err)
	}
	if _, err := AppendResponse(nil, &Response{Path: long}); err != ErrFrameTooLarge {
		t.Fatalf("response err = %v", err)
	}
	// A decoder seeing a hop count beyond the bytes present must fail
	// before allocating the declared count.
	good, _ := AppendRequest(nil, &Request{Kind: KindGet, Name: "n"})
	bad := append([]byte{}, good...)
	bad[len(bad)-4] = 0xFF // hop-count prefix is the last uint32
	if _, err := DecodeRequest(bad); err == nil {
		t.Fatal("lying hop count accepted")
	}
}

func TestHopActionString(t *testing.T) {
	for a, want := range map[HopAction]string{
		HopForward: "forward", HopFallback: "fallback",
		HopMigrate: "migrate", HopServe: "serve",
		HopLocate: "locate", HopFault: "fault",
		HopFanout: "fanout", HopDeliver: "deliver",
		HopRepair: "repair", HopEdge: "edge",
		HopAction(77): "action(77)",
	} {
		if a.String() != want {
			t.Fatalf("HopAction(%d).String() = %q", a, a.String())
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	f := func(ok bool, servedBy, hops uint32, version uint64, errStr string, data []byte) bool {
		if len(errStr) > MaxName {
			return true
		}
		in := &Response{OK: ok, ServedBy: servedBy, Hops: hops, Version: version, Err: errStr, Data: data}
		b, err := AppendResponse(nil, in)
		if err != nil {
			return false
		}
		out, err := DecodeResponse(b)
		if err != nil {
			return false
		}
		if len(in.Data) == 0 {
			in.Data = out.Data
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	req := &Request{Kind: KindGet, Origin: 7, Name: "file", Data: []byte("payload")}
	if err := WriteRequestID(&buf, req, 11); err != nil {
		t.Fatal(err)
	}
	resp := &Response{OK: true, ServedBy: 4, Hops: 2, Data: []byte("result")}
	if err := WriteResponseID(&buf, resp, 11); err != nil {
		t.Fatal(err)
	}
	gotReq, id, err := ReadRequestID(&buf)
	if err != nil || id != 11 {
		t.Fatalf("request: id %d err %v", id, err)
	}
	if gotReq.Name != "file" || string(gotReq.Data) != "payload" || gotReq.Kind != KindGet {
		t.Fatalf("request = %+v", gotReq)
	}
	gotResp, id, err := ReadResponseID(&buf)
	if err != nil || id != 11 {
		t.Fatalf("response: id %d err %v", id, err)
	}
	if !gotResp.OK || gotResp.ServedBy != 4 || string(gotResp.Data) != "result" {
		t.Fatalf("response = %+v", gotResp)
	}
}

func TestOversizeRejected(t *testing.T) {
	big := strings.Repeat("x", MaxName+1)
	if _, err := AppendRequest(nil, &Request{Kind: KindGet, Name: big}); err != ErrFrameTooLarge {
		t.Fatalf("err = %v", err)
	}
	over := &Request{Kind: KindInsert, Name: "n", Data: make([]byte, MaxData+1)}
	if err := WriteRequestID(io.Discard, over, 1); err != ErrFrameTooLarge {
		t.Fatalf("err = %v", err)
	}
	// A frame header advertising an absurd size must be rejected before
	// allocation.
	r := bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, _, err := ReadRequestID(r); err != ErrFrameTooLarge {
		t.Fatalf("err = %v", err)
	}
}

func TestCorruptRejected(t *testing.T) {
	good, err := AppendRequest(nil, &Request{Kind: KindGet, Name: "n", Data: []byte("d")})
	if err != nil {
		t.Fatal(err)
	}
	// Every strict prefix must fail cleanly.
	for i := 0; i < len(good); i++ {
		if _, err := DecodeRequest(good[:i]); err == nil {
			t.Fatalf("prefix of length %d decoded", i)
		}
	}
	// Trailing garbage must fail.
	if _, err := DecodeRequest(append(append([]byte{}, good...), 0x00)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	// A length field pointing past the buffer must fail.
	bad := append([]byte{}, good...)
	bad[22] = 0xFF // high byte of the name-length prefix (after the 22-byte fixed header)
	if _, err := DecodeRequest(bad); err == nil {
		t.Fatal("oversized inner length accepted")
	}
}

func TestCorruptResponse(t *testing.T) {
	good, err := AppendResponse(nil, &Response{OK: true, Err: "e", Data: []byte("d")})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(good); i++ {
		if _, err := DecodeResponse(good[:i]); err == nil {
			t.Fatalf("prefix of length %d decoded", i)
		}
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindInsert: "insert", KindGet: "get", KindUpdate: "update",
		KindStat: "stat", KindNotify: "notify", Kind(4): "kind(4)",
		KindTraces: "traces", KindFetch: "fetch", KindLocateSet: "locate-set",
		Kind(99): "kind(99)",
	} {
		if k.String() != want {
			t.Fatalf("Kind(%d).String() = %q", k, k.String())
		}
	}
}

// retiredKinds are the unassigned values below KindCount: the whole-frame
// placement, folded into the direct KindNotify; the sub-request batch,
// never sent by any build and replaced by pipelined streams; and the
// single-holder locate, folded into KindLocateSet.
var retiredKinds = []Kind{4, 10, 11}

// TestKindWireNumbers pins every kind's value on the wire. Kinds are
// compared between builds by number, so a renumbering breaks every fleet
// that mixes builds; the encoders agree with each other whatever the
// numbers, which is why the frame goldens cannot catch one.
func TestKindWireNumbers(t *testing.T) {
	named := map[Kind]uint8{
		KindInsert: 1, KindGet: 2, KindUpdate: 3, KindStat: 5,
		KindRegister: 6, KindTable: 7, KindHas: 8, KindDelete: 9,
		KindDigest: 12, KindTraces: 13, KindFetch: 14, KindLocateSet: 15,
		KindPut: 16, KindNotify: 17,
	}
	if len(named) != 14 {
		t.Errorf("%d named kinds, want 14", len(named))
	}
	for k, want := range named {
		if uint8(k) != want {
			t.Errorf("%v = %d on the wire, want %d", k, uint8(k), want)
		}
	}
	for k := 1; k < KindCount; k++ {
		_, isNamed := named[Kind(k)]
		if retired := slices.Contains(retiredKinds, Kind(k)); isNamed == retired {
			t.Errorf("kind %d is named=%v retired=%v, want exactly one", k, isNamed, retired)
		}
	}
	for _, k := range retiredKinds {
		if got, want := k.String(), fmt.Sprintf("kind(%d)", k); got != want {
			t.Errorf("Kind(%d).String() = %q, want the unnamed form %q: never reuse it", k, got, want)
		}
	}
	if KindCount != 18 {
		t.Errorf("KindCount = %d, want 18", KindCount)
	}
}

// TestKindStringsExhaustive pins that every declared kind names itself:
// adding a kind without extending String() (and with it the switch arms
// that key on the name) fails here instead of silently reporting
// "kind(N)" in metrics and stat output. The retired values are the only
// gaps.
func TestKindStringsExhaustive(t *testing.T) {
	for k := 1; k < KindCount; k++ {
		if slices.Contains(retiredKinds, Kind(k)) {
			continue
		}
		s := Kind(k).String()
		if s == "" || strings.HasPrefix(s, "kind(") {
			t.Errorf("Kind(%d) has default String %q; extend Kind.String", k, s)
		}
	}
	if got := Kind(KindCount).String(); !strings.HasPrefix(got, "kind(") {
		t.Errorf("Kind(KindCount) = %q; KindCount no longer points past the last kind", got)
	}
}

func TestUnknownKindError(t *testing.T) {
	// The phrasing an operator sees when a peer is sent a kind it does not
	// serve: an ordinary request error naming the kind.
	if got := UnknownKindError(KindLocateSet); got != "netnode: unknown kind locate-set" {
		t.Fatalf("UnknownKindError = %q", got)
	}
	for _, k := range retiredKinds {
		if got, want := UnknownKindError(k), fmt.Sprintf("netnode: unknown kind kind(%d)", k); got != want {
			t.Fatalf("UnknownKindError = %q, want %q", got, want)
		}
	}
	if got := UnknownKindError(Kind(42)); got != "netnode: unknown kind kind(42)" {
		t.Fatalf("UnknownKindError = %q", got)
	}
}

func TestReadFrameShortInput(t *testing.T) {
	if _, _, err := ReadRequestID(bytes.NewReader([]byte{0x80, 0})); err == nil {
		t.Fatal("short header accepted")
	}
	if _, _, err := ReadRequestID(bytes.NewReader([]byte{0x80, 0, 0, 9, 0, 0, 0})); err == nil {
		t.Fatal("header without its whole request ID accepted")
	}
	// Header promising more bytes than present.
	if _, _, err := ReadResponseID(bytes.NewReader([]byte{0x80, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 1, 1, 2})); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

func BenchmarkRequestEncode(b *testing.B) {
	req := &Request{Kind: KindGet, Origin: 7, Name: "some/file/name", Data: make([]byte, 1024)}
	buf := make([]byte, 0, 2048)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		var err error
		buf, err = AppendRequest(buf, req)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRequestDecode(b *testing.B) {
	req := &Request{Kind: KindGet, Origin: 7, Name: "some/file/name", Data: make([]byte, 1024)}
	buf, _ := AppendRequest(nil, req)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeRequest(buf); err != nil {
			b.Fatal(err)
		}
	}
}
