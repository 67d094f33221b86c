package msg

import (
	"bytes"
	"testing"
)

func TestPutReqRoundTrip(t *testing.T) {
	for _, r := range []*PutReq{
		{Op: PutData, Token: 0, Offset: 0, TotalSize: 64, FileCRC: 1, ChunkCRC: 2, Chunk: make([]byte, 64)},
		{Op: PutData, Token: 9, Offset: 1 << 20, TotalSize: 4 << 20, ChunkCRC: 7, Chunk: make([]byte, 1<<20)},
		{Op: PutData, Token: 1, Offset: MaxFileSize - MaxPutChunkBytes, TotalSize: MaxFileSize, Chunk: make([]byte, MaxPutChunkBytes)},
		{Op: PutInsert, Token: 9, TotalSize: 4 << 20, FileCRC: 0xDEADBEEF},
		{Op: PutUpdate, Token: 9, TotalSize: 4 << 20, FileCRC: 0xDEADBEEF},
		{Op: PutAbort, Token: 9},
	} {
		b, err := AppendPutReq(nil, r)
		if err != nil {
			t.Fatalf("append %+v: %v", r.Op, err)
		}
		got, err := DecodePutReq(b)
		if err != nil {
			t.Fatalf("decode op %v: %v", r.Op, err)
		}
		if got.Op != r.Op || got.Token != r.Token || got.Offset != r.Offset ||
			got.TotalSize != r.TotalSize || got.FileCRC != r.FileCRC ||
			got.ChunkCRC != r.ChunkCRC || !bytes.Equal(got.Chunk, r.Chunk) {
			t.Fatalf("round trip mismatch for op %v", r.Op)
		}
	}
}

func TestPutReqBounds(t *testing.T) {
	for name, r := range map[string]*PutReq{
		"zero op":            {TotalSize: 8, Chunk: make([]byte, 8)},
		"unknown op":         {Op: PutAbort + 1, Token: 1},
		"empty data chunk":   {Op: PutData, TotalSize: 8},
		"chunk past total":   {Op: PutData, Offset: 4, TotalSize: 8, Chunk: make([]byte, 8)},
		"oversize total":     {Op: PutData, TotalSize: MaxFileSize + 1, Chunk: make([]byte, 8)},
		"oversize chunk":     {Op: PutData, TotalSize: MaxFileSize, Chunk: make([]byte, MaxPutChunkBytes+1)},
		"commit with chunk":  {Op: PutInsert, Token: 1, TotalSize: 8, Chunk: make([]byte, 8)},
		"commit w/o session": {Op: PutInsert, TotalSize: 8},
		"abort w/o session":  {Op: PutAbort},
	} {
		if _, err := AppendPutReq(nil, r); err == nil {
			t.Errorf("append accepted %s", name)
		}
	}
	// Decode must enforce the same bounds against a lying encoder.
	ok, err := AppendPutReq(nil, &PutReq{Op: PutData, TotalSize: 8, Chunk: make([]byte, 8)})
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), ok...)
	bad[0] = byte(PutAbort + 7)
	if _, err := DecodePutReq(bad); err == nil {
		t.Error("decode accepted unknown op")
	}
	if _, err := DecodePutReq(append(append([]byte(nil), ok...), 0)); err == nil {
		t.Error("decode accepted trailing garbage")
	}
	if _, err := DecodePutReq(ok[:len(ok)-3]); err == nil {
		t.Error("decode accepted truncated chunk")
	}
	if _, err := DecodePutReq(nil); err == nil {
		t.Error("decode accepted empty payload")
	}
}

func TestNotifyReqRoundTrip(t *testing.T) {
	r := &NotifyReq{
		TotalSize: 40 << 20,
		FileCRC:   0xFEEDFACE,
		Sources: []Holder{
			{PID: 4, Addr: "127.0.0.1:7104", Version: 9},
			{PID: 12, Addr: "127.0.0.1:7112", Version: 9},
		},
	}
	b, err := AppendNotifyReq(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeNotifyReq(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalSize != r.TotalSize || got.FileCRC != r.FileCRC || len(got.Sources) != 2 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	for i := range r.Sources {
		if got.Sources[i] != r.Sources[i] {
			t.Fatalf("source %d: %+v != %+v", i, got.Sources[i], r.Sources[i])
		}
	}
}

func TestNotifyReqBounds(t *testing.T) {
	src := []Holder{{PID: 1, Addr: "a", Version: 1}}
	for name, r := range map[string]*NotifyReq{
		"empty with sum": {FileCRC: 1, Sources: src},
		"oversize total": {TotalSize: MaxFileSize + 1, Sources: src},
		"no sources":     {TotalSize: 8},
		"too many":       {TotalSize: 8, Sources: make([]Holder, MaxHolders+1)},
	} {
		if _, err := AppendNotifyReq(nil, r); err == nil {
			t.Errorf("append accepted %s", name)
		}
	}
	// An empty body is an update like any other: its sum is 0.
	empty, err := AppendNotifyReq(nil, &NotifyReq{Sources: src})
	if err != nil {
		t.Fatalf("append refused an empty body: %v", err)
	}
	if r, err := DecodeNotifyReq(empty); err != nil || r.TotalSize != 0 {
		t.Fatalf("decode of an empty body: %+v, %v", r, err)
	}
	ok, err := AppendNotifyReq(nil, &NotifyReq{TotalSize: 8, FileCRC: 1, Sources: src})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeNotifyReq(append(append([]byte(nil), ok...), 0)); err == nil {
		t.Error("decode accepted trailing garbage")
	}
	if _, err := DecodeNotifyReq(ok[:len(ok)-2]); err == nil {
		t.Error("decode accepted truncated sources")
	}
	bad := append([]byte(nil), ok...)
	for i := 0; i < 8; i++ {
		bad[i] = 0 // total size -> 0, the sum still 1
	}
	if _, err := DecodeNotifyReq(bad); err == nil {
		t.Error("decode accepted an empty body with a nonzero sum")
	}
}

// TestNotifyReqInline: a placement's body rides after facts that list no
// source, exactly as long as the facts declare, and never beside sources;
// NotifyInline splits where facts and body fill one data field.
func TestNotifyReqInline(t *testing.T) {
	body := []byte("hello")
	facts, err := AppendNotifyReq(nil, &NotifyReq{TotalSize: uint64(len(body)), Body: body})
	if err != nil {
		t.Fatal(err)
	}
	if len(facts) != notifySourcesAt+4 {
		t.Fatalf("inline facts are %d bytes, want size, sum and an empty source count", len(facts))
	}
	got, err := DecodeNotifyReq(append(append([]byte(nil), facts...), body...))
	if err != nil || !bytes.Equal(got.Body, body) || len(got.Sources) != 0 || got.FileCRC != 0 {
		t.Fatalf("decoded inline placement %+v, %v", got, err)
	}
	src := []Holder{{PID: 1, Addr: "a", Version: 1}}
	pulled, err := AppendNotifyReq(nil, &NotifyReq{TotalSize: uint64(len(body)), FileCRC: 1, Sources: src})
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string][]byte{
		"no body, no source": facts,
		"short body":         append(append([]byte(nil), facts...), body[1:]...),
		"body and sources":   append(append([]byte(nil), pulled...), body...),
	} {
		if r, err := DecodeNotifyReq(b); err == nil {
			t.Errorf("decode accepted %s: %+v", name, r)
		}
	}
	if _, err := AppendNotifyReq(nil, &NotifyReq{TotalSize: 5, Body: body, Sources: src}); err == nil {
		t.Error("append accepted a body beside sources")
	}
	if n := MaxData - len(facts); !NotifyInline(n) || NotifyInline(n+1) {
		t.Errorf("NotifyInline splits away from %d bytes", n)
	}
}

// TestAppendNotifySource: listing one more source on an encoded notify is
// the encoding of the notify with that source appended, and a full list is
// refused rather than grown past MaxHolders.
func TestAppendNotifySource(t *testing.T) {
	r := &NotifyReq{TotalSize: 9, FileCRC: 7, Sources: []Holder{{PID: 1, Addr: "a:1", Version: 3}}}
	b, err := AppendNotifyReq(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	h := Holder{PID: 2, Addr: "b:22", Version: 3}
	got, err := AppendNotifySource(b, h)
	if err != nil {
		t.Fatal(err)
	}
	r.Sources = append(r.Sources, h)
	want, _ := AppendNotifyReq(nil, r)
	if !bytes.Equal(got, want) {
		t.Fatalf("listed notify %x, want %x", got, want)
	}
	if _, err := DecodeNotifyReq(b); err != nil {
		t.Fatalf("the original encoding changed: %v", err)
	}
	full, _ := AppendNotifyReq(nil, &NotifyReq{TotalSize: 9, Sources: make([]Holder, MaxHolders)})
	if _, err := AppendNotifySource(full, h); err == nil {
		t.Error("listed a source past MaxHolders")
	}
	if _, err := AppendNotifySource(b[:notifySourcesAt], h); err == nil {
		t.Error("listed a source on a truncated notify")
	}
}

// FuzzDecodePutReq exercises the staged-upload request codec: any input
// either fails cleanly or round-trips to identical bytes.
func FuzzDecodePutReq(f *testing.F) {
	open, _ := AppendPutReq(nil, &PutReq{Op: PutData, TotalSize: 64, FileCRC: 1, ChunkCRC: 2, Chunk: make([]byte, 64)})
	f.Add(open)
	commit, _ := AppendPutReq(nil, &PutReq{Op: PutUpdate, Token: 7, TotalSize: 64, FileCRC: 1})
	f.Add(commit)
	f.Add([]byte{})
	// Lying chunk-length prefix: declares 1 MiB, carries nothing.
	lie := make([]byte, putReqWire)
	lie[0] = byte(PutData)
	lie[putReqWire-3] = 0x10
	f.Add(lie)
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodePutReq(data)
		if err != nil {
			return
		}
		re, err := AppendPutReq(nil, r)
		if err != nil {
			t.Fatalf("re-encode of decoded put req failed: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("put req not canonical")
		}
	})
}

// FuzzDecodeNotifyReq exercises the notify codec, inline bodies included.
func FuzzDecodeNotifyReq(f *testing.F) {
	seed, _ := AppendNotifyReq(nil, &NotifyReq{
		TotalSize: 1 << 20, FileCRC: 3,
		Sources: []Holder{{PID: 1, Addr: "127.0.0.1:7101", Version: 4}},
	})
	f.Add(seed)
	inline, _ := AppendNotifyReq(nil, &NotifyReq{TotalSize: 3, Body: []byte("abc")})
	f.Add(append(inline, "abc"...))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 16)) // absurd sizes and count prefix
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeNotifyReq(data)
		if err != nil {
			return
		}
		re, err := AppendNotifyReq(nil, r)
		if err != nil {
			t.Fatalf("re-encode of decoded notify failed: %v", err)
		}
		if !bytes.Equal(append(re, r.Body...), data) {
			t.Fatalf("notify req not canonical")
		}
	})
}
