package msg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"strings"
	"testing"
)

func TestBatchRequestsRoundTrip(t *testing.T) {
	in := []*Request{
		{Kind: KindGet, Name: "a"},
		{Kind: KindGet, Flags: FlagFallback, Name: "b", Hops: 3},
		{Kind: KindUpdate, Name: "c", Data: []byte("payload"), Version: 9},
	}
	enc, err := AppendBatchRequests(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeBatchRequests(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d sub-requests, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Kind != in[i].Kind || out[i].Name != in[i].Name ||
			!bytes.Equal(out[i].Data, in[i].Data) || out[i].Version != in[i].Version ||
			out[i].Flags != in[i].Flags || out[i].Hops != in[i].Hops {
			t.Fatalf("sub-request %d: got %+v, want %+v", i, out[i], in[i])
		}
	}
}

func TestBatchResponsesRoundTrip(t *testing.T) {
	in := []*Response{
		{OK: true, ServedBy: 4, Version: 7, Data: []byte("x")},
		{Err: "netnode: file not found (fault)"},
	}
	enc, err := AppendBatchResponses(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeBatchResponses(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d sub-responses, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].OK != in[i].OK || out[i].ServedBy != in[i].ServedBy ||
			out[i].Version != in[i].Version || out[i].Err != in[i].Err ||
			!bytes.Equal(out[i].Data, in[i].Data) {
			t.Fatalf("sub-response %d: got %+v, want %+v", i, out[i], in[i])
		}
	}
}

func TestBatchRejectsNesting(t *testing.T) {
	if _, err := AppendBatchRequests(nil, []*Request{{Kind: KindBatch}}); err == nil {
		t.Fatal("encoder accepted a nested batch")
	}
	// Hand-build a nested batch the encoder refuses to produce.
	inner, err := AppendRequest(nil, &Request{Kind: KindBatch, Name: "evil"})
	if err != nil {
		t.Fatal(err)
	}
	raw := binary.BigEndian.AppendUint32(nil, 1)
	raw = binary.BigEndian.AppendUint32(raw, uint32(len(inner)))
	raw = append(raw, inner...)
	if _, err := DecodeBatchRequests(raw); err != ErrCorrupt {
		t.Fatalf("decoder accepted a nested batch: err = %v", err)
	}
}

func TestBatchRejectsLyingPrefixes(t *testing.T) {
	// Sub-request count over the limit.
	over := binary.BigEndian.AppendUint32(nil, MaxBatch+1)
	if _, err := DecodeBatchRequests(over); err != ErrCorrupt {
		t.Fatalf("oversized count: err = %v, want ErrCorrupt", err)
	}
	// Inner length longer than the bytes present.
	lie := binary.BigEndian.AppendUint32(nil, 1)
	lie = binary.BigEndian.AppendUint32(lie, 1<<30)
	lie = append(lie, 0xFF)
	if _, err := DecodeBatchRequests(lie); err != ErrCorrupt {
		t.Fatalf("lying inner length: err = %v, want ErrCorrupt", err)
	}
	// Trailing garbage after the declared sub-requests.
	good, err := AppendBatchRequests(nil, []*Request{{Kind: KindGet, Name: "a"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBatchRequests(append(good, 0x00)); err != ErrCorrupt {
		t.Fatalf("trailing garbage: err = %v, want ErrCorrupt", err)
	}
	// Same shapes through the response decoder.
	if _, err := DecodeBatchResponses(over); err != ErrCorrupt {
		t.Fatalf("oversized response count: err = %v, want ErrCorrupt", err)
	}
	if _, err := DecodeBatchResponses(lie); err != ErrCorrupt {
		t.Fatalf("lying response length: err = %v, want ErrCorrupt", err)
	}
}

func TestBatchSizeLimits(t *testing.T) {
	reqs := make([]*Request, MaxBatch+1)
	for i := range reqs {
		reqs[i] = &Request{Kind: KindGet, Name: "x"}
	}
	if _, err := AppendBatchRequests(nil, reqs); err != ErrFrameTooLarge {
		t.Fatalf("over-count batch: err = %v, want ErrFrameTooLarge", err)
	}
	// Two half-MaxData sub-requests overflow the Data budget together.
	big := bytes.Repeat([]byte{7}, MaxData/2+64)
	if _, err := AppendBatchRequests(nil, []*Request{
		{Kind: KindInsert, Name: "a", Data: big},
		{Kind: KindInsert, Name: "b", Data: big},
	}); err != ErrFrameTooLarge {
		t.Fatalf("over-size batch: err = %v, want ErrFrameTooLarge", err)
	}
}

// TestServeBatch: every sub-request is handled in order under the batch's
// trace, the answer's path is the batch's own plus what each sub-route added
// to it and never exceeds MaxHops, and a payload that is not a batch fails as
// a decode error the caller prefixes.
func TestServeBatch(t *testing.T) {
	data, err := AppendBatchRequests(nil, []*Request{{Kind: KindGet, Name: "a"}, {Kind: KindGet, Name: "b"}})
	if err != nil {
		t.Fatal(err)
	}
	root := []Hop{{PID: 9, Parent: NoParent, Action: HopEdge}}
	long := make([]Hop, MaxHops-1) // what each sub-route adds: two of them overflow one answer
	handle := func(sub *Request) *Response {
		if sub.Flags&FlagTrace == 0 {
			return &Response{OK: true, Data: []byte(sub.Name)}
		}
		if sub.TraceID != 7 || len(sub.Path) != 1 {
			t.Errorf("sub %q: trace %d path %v, want the batch's", sub.Name, sub.TraceID, sub.Path)
		}
		return &Response{OK: true, Data: []byte(sub.Name), Path: append(append([]Hop(nil), sub.Path...), long...)}
	}
	for _, traced := range []bool{false, true} {
		req := &Request{Kind: KindBatch, Data: data}
		if traced {
			req.Flags, req.TraceID, req.Path = FlagTrace, 7, root
		}
		resp, err := ServeBatch(req, handle)
		if err != nil || !resp.OK {
			t.Fatalf("traced=%v: %+v, %v", traced, resp, err)
		}
		subs, err := DecodeBatchResponses(resp.Data)
		if err != nil || len(subs) != 2 || string(subs[0].Data) != "a" || string(subs[1].Data) != "b" {
			t.Fatalf("traced=%v: sub-responses %v, %v", traced, subs, err)
		}
		if want := map[bool]int{false: 0, true: MaxHops}[traced]; len(resp.Path) != want {
			t.Fatalf("traced=%v: answer carries %d hops, want %d", traced, len(resp.Path), want)
		}
		if traced && resp.Path[0] != root[0] {
			t.Fatalf("answer's path starts %+v, want the batch's own root", resp.Path[0])
		}
	}
	if _, err := ServeBatch(&Request{Kind: KindBatch, Data: []byte{0, 0}}, handle); err == nil ||
		err.Error() != "batch decode: msg: corrupt frame" || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("garbage batch: err = %v", err)
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

// FuzzDecodeBatchRequests hammers the nested decoder with arbitrary bytes:
// it must never panic or over-allocate, and anything it accepts must
// re-encode to an equivalent decode.
func FuzzDecodeBatchRequests(f *testing.F) {
	seed, _ := AppendBatchRequests(nil, []*Request{
		{Kind: KindGet, Name: "a"},
		{Kind: KindUpdate, Name: "b", Data: []byte("payload"), Version: 3},
	})
	f.Add(seed)
	f.Add([]byte{})
	f.Add(binary.BigEndian.AppendUint32(nil, MaxBatch+1))
	f.Add(append(binary.BigEndian.AppendUint32(nil, 1), 0xFF, 0xFF, 0xFF, 0xFF))
	f.Fuzz(func(t *testing.T, data []byte) {
		reqs, err := DecodeBatchRequests(data)
		if err != nil {
			return
		}
		re, err := AppendBatchRequests(nil, reqs)
		if err != nil {
			t.Fatalf("accepted batch failed to re-encode: %v", err)
		}
		again, err := DecodeBatchRequests(re)
		if err != nil {
			t.Fatalf("re-encoded batch failed to decode: %v", err)
		}
		if len(again) != len(reqs) {
			t.Fatalf("decode/encode not a fixpoint: %d vs %d sub-requests", len(again), len(reqs))
		}
		for i := range reqs {
			if again[i].Kind != reqs[i].Kind || again[i].Name != reqs[i].Name ||
				!bytes.Equal(again[i].Data, reqs[i].Data) || again[i].Version != reqs[i].Version {
				t.Fatalf("sub-request %d not a fixpoint: %+v vs %+v", i, reqs[i], again[i])
			}
		}
	})
}

// FuzzDecodeBatchResponses mirrors FuzzDecodeBatchRequests for the
// response side.
func FuzzDecodeBatchResponses(f *testing.F) {
	seed, _ := AppendBatchResponses(nil, []*Response{
		{OK: true, ServedBy: 2, Version: 5, Data: []byte("x")},
		{Err: "fault"},
	})
	f.Add(seed)
	f.Add([]byte{})
	f.Add(binary.BigEndian.AppendUint32(nil, MaxBatch+1))
	f.Fuzz(func(t *testing.T, data []byte) {
		resps, err := DecodeBatchResponses(data)
		if err != nil {
			return
		}
		re, err := AppendBatchResponses(nil, resps)
		if err != nil {
			t.Fatalf("accepted batch failed to re-encode: %v", err)
		}
		if _, err := DecodeBatchResponses(re); err != nil {
			t.Fatalf("re-encoded batch failed to decode: %v", err)
		}
	})
}
