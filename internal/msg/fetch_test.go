package msg

import (
	"bufio"
	"bytes"
	"slices"
	"testing"
)

func TestFetchReqRoundTrip(t *testing.T) {
	for _, r := range []FetchReq{
		{Offset: 0, Length: 1},
		{Offset: 12345, Length: 64 << 10},
		{Offset: MaxFileSize, Length: MaxChunkBytes},
	} {
		b, err := AppendFetchReq(nil, r)
		if err != nil {
			t.Fatalf("append %+v: %v", r, err)
		}
		got, err := DecodeFetchReq(b)
		if err != nil {
			t.Fatalf("decode %+v: %v", r, err)
		}
		if got != r {
			t.Fatalf("round trip %+v -> %+v", r, got)
		}
	}
}

func TestFetchReqBounds(t *testing.T) {
	for _, r := range []FetchReq{
		{Offset: 0, Length: 0},                 // empty range
		{Offset: MaxFileSize + 1, Length: 1},   // offset past the ceiling
		{Offset: 0, Length: MaxChunkBytes + 1}, // chunk larger than a frame carries
		{Offset: 0, Length: ^uint32(0)},        // absurd length
	} {
		if _, err := AppendFetchReq(nil, r); err == nil {
			t.Errorf("append accepted %+v", r)
		}
	}
	// A structurally valid but semantically out-of-bounds wire payload must
	// be rejected on decode too (the encoder on the other side may lie).
	b := make([]byte, 12) // offset 0, length 0
	if _, err := DecodeFetchReq(b); err == nil {
		t.Error("decode accepted zero-length range")
	}
	if _, err := DecodeFetchReq(append(b, 0)); err == nil {
		t.Error("decode accepted trailing garbage")
	}
	if _, err := DecodeFetchReq(b[:7]); err == nil {
		t.Error("decode accepted truncated payload")
	}
}

func TestFetchRespRoundTrip(t *testing.T) {
	chunk := bytes.Repeat([]byte{0xAB}, 1024)
	r := &FetchResp{TotalSize: 1 << 20, FileCRC: 0xDEADBEEF, ChunkCRC: 0x1234, Chunk: chunk}
	b, err := AppendFetchResp(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFetchResp(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalSize != r.TotalSize || got.FileCRC != r.FileCRC ||
		got.ChunkCRC != r.ChunkCRC || !bytes.Equal(got.Chunk, r.Chunk) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestFetchRespBounds(t *testing.T) {
	if _, err := AppendFetchResp(nil, &FetchResp{TotalSize: MaxFileSize + 1}); err == nil {
		t.Error("append accepted oversize total")
	}
	big := &FetchResp{TotalSize: MaxFileSize, Chunk: make([]byte, MaxChunkBytes+1)}
	if _, err := AppendFetchResp(nil, big); err == nil {
		t.Error("append accepted oversize chunk")
	}
	// Chunk longer than the declared total: a splice no honest holder emits.
	lie, err := AppendFetchResp(nil, &FetchResp{TotalSize: 8, Chunk: make([]byte, 8)})
	if err != nil {
		t.Fatal(err)
	}
	lie[7] = 4 // shrink declared TotalSize below the chunk length
	if _, err := DecodeFetchResp(lie); err == nil {
		t.Error("decode accepted chunk longer than total size")
	}
}

func TestHoldersRoundTrip(t *testing.T) {
	hs := []Holder{
		{PID: 3, Addr: "127.0.0.1:7103", Version: 7},
		{PID: 12, Addr: "127.0.0.1:7112", Version: 0},
		{PID: 0, Addr: "127.0.0.1:7100", Version: 2},
	}
	b, err := AppendHolders(nil, hs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeHolders(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(hs) {
		t.Fatalf("got %d holders, want %d", len(got), len(hs))
	}
	for i := range hs {
		if got[i] != hs[i] {
			t.Fatalf("holder %d: %+v != %+v", i, got[i], hs[i])
		}
	}
}

func TestHoldersBounds(t *testing.T) {
	if _, err := AppendHolders(nil, nil); err == nil {
		t.Error("append accepted empty set")
	}
	if _, err := AppendHolders(nil, make([]Holder, MaxHolders+1)); err == nil {
		t.Error("append accepted oversize set")
	}
	long := []Holder{{Addr: string(make([]byte, MaxName+1))}}
	if _, err := AppendHolders(nil, long); err == nil {
		t.Error("append accepted oversize addr")
	}
	// A count prefix claiming more holders than the bytes carry.
	b, err := AppendHolders(nil, []Holder{{PID: 1, Addr: "a", Version: 1}})
	if err != nil {
		t.Fatal(err)
	}
	b[3] = 200
	if _, err := DecodeHolders(b); err == nil {
		t.Error("decode accepted lying count prefix")
	}
	if _, err := DecodeHolders([]byte{0, 0, 0, 0}); err == nil {
		t.Error("decode accepted empty set")
	}
}

// FuzzDecodeFetchReq exercises the ranged-fetch request codec: any input
// either fails cleanly or round-trips to identical bytes.
func FuzzDecodeFetchReq(f *testing.F) {
	seed, _ := AppendFetchReq(nil, FetchReq{Offset: 4096, Length: 64 << 10})
	f.Add(seed)
	f.Add([]byte{})
	f.Add(make([]byte, 12))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeFetchReq(data)
		if err != nil {
			return
		}
		re, err := AppendFetchReq(nil, r)
		if err != nil {
			t.Fatalf("re-encode of decoded req failed: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("fetch req not canonical: %x != %x", re, data)
		}
	})
}

// FuzzDecodeFetchResp exercises the chunk response codec, including lying
// length prefixes and totals smaller than the chunk.
func FuzzDecodeFetchResp(f *testing.F) {
	seed, _ := AppendFetchResp(nil, &FetchResp{TotalSize: 64, FileCRC: 1, ChunkCRC: 2, Chunk: make([]byte, 64)})
	f.Add(seed)
	f.Add([]byte{})
	// Lying chunk-length prefix: declares 1 MiB, carries nothing.
	lie := make([]byte, fetchRespWire)
	lie[16], lie[17] = 0x10, 0x00
	f.Add(lie)
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeFetchResp(data)
		if err != nil {
			return
		}
		re, err := AppendFetchResp(nil, r)
		if err != nil {
			t.Fatalf("re-encode of decoded resp failed: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("fetch resp not canonical")
		}
	})
}

// FuzzDecodeHolders exercises the replica-set locate answer codec.
func FuzzDecodeHolders(f *testing.F) {
	seed, _ := AppendHolders(nil, []Holder{{PID: 1, Addr: "127.0.0.1:7101", Version: 3}})
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // absurd count prefix
	f.Fuzz(func(t *testing.T, data []byte) {
		hs, err := DecodeHolders(data)
		if err != nil {
			return
		}
		re, err := AppendHolders(nil, hs)
		if err != nil {
			t.Fatalf("re-encode of decoded holders failed: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("holders not canonical")
		}
	})
}

// FuzzFetchAnswerSplit holds the split decode of a KindFetch answer
// (Frame.DecodeResponse with the request's kind) to DecodeFetchResp on the
// same payload, off small and large frames, for answers and refusals
// alike: Data‖Tail is the payload byte for byte, the answer re-encodes to
// the frame it was read from, and DecodeFetchAnswer accepts exactly what
// DecodeFetchResp accepts, with the same fields and chunk.
func FuzzFetchAnswerSplit(f *testing.F) {
	for _, n := range []int{0, 1, 4096, readChunk + 100} {
		p, _ := AppendFetchResp(nil, &FetchResp{TotalSize: uint64(n) + 7, FileCRC: 1, ChunkCRC: 2, Chunk: make([]byte, n)})
		f.Add(p, true)
	}
	f.Add([]byte{}, false)
	f.Add(make([]byte, fetchRespWire+3), true) // chunk prefix 0, three bytes after it
	f.Fuzz(func(t *testing.T, payload []byte, ok bool) {
		if len(payload) > MaxData {
			return
		}
		sent := &Response{OK: ok, ServedBy: 2, Version: 9, Data: payload}
		if !ok {
			sent.Err = NotHolderError
		}
		var wire bytes.Buffer
		if err := WriteResponseID(&wire, sent, 5); err != nil {
			t.Fatal(err)
		}
		framed := append([]byte(nil), wire.Bytes()...)
		fr, err := ReadFrame(bufio.NewReader(&wire))
		if err != nil {
			t.Fatal(err)
		}
		var got Response
		if err := fr.DecodeResponse(&got, KindFetch); err != nil {
			t.Fatal(err)
		}
		defer got.Release()
		if whole := append(append([]byte{}, got.Data...), got.Tail...); !bytes.Equal(whole, payload) {
			t.Fatalf("Data‖Tail is not the payload: %d+%d bytes for %d", len(got.Data), len(got.Tail), len(payload))
		}
		if len(got.Tail) > 0 && len(got.Data) != fetchRespWire {
			t.Fatalf("split after %d bytes, want after the %d-byte fetch header", len(got.Data), fetchRespWire)
		}
		var again bytes.Buffer
		if err := WriteResponseID(&again, &got, 5); err != nil || !bytes.Equal(again.Bytes(), framed) {
			t.Fatalf("split answer does not re-encode to its frame (err %v)", err)
		}
		want, wantErr := DecodeFetchResp(payload)
		split, splitErr := DecodeFetchAnswer(&got)
		if (wantErr == nil) != (splitErr == nil) {
			t.Fatalf("acceptance differs: whole %v, split %v", wantErr, splitErr)
		}
		if wantErr != nil {
			return
		}
		if split.TotalSize != want.TotalSize || split.FileCRC != want.FileCRC || split.ChunkCRC != want.ChunkCRC ||
			!bytes.Equal(split.Chunk, want.Chunk) {
			t.Fatalf("split decode %+v differs from whole decode %+v", split, *want)
		}
	})
}

// TestGetHeadRoundTrip: a head answer read off the wire as the answer to a
// KindGet — off a small frame and off a large one — decodes to the holders
// and first chunk it was built from, is told from a whole body by Head
// alone, and a status byte with an unknown bit is refused.
func TestGetHeadRoundTrip(t *testing.T) {
	holders := []Holder{{PID: 3, Addr: "127.0.0.1:7103", Version: 9}, {PID: 5, Addr: ""}}
	for _, n := range []int{1, readChunk + 100} {
		chunk := bytes.Repeat([]byte{0xA5}, n)
		first := &FetchResp{TotalSize: uint64(n) + MaxData, FileCRC: 7, ChunkCRC: 8, Chunk: chunk}
		hdr, err := AppendGetHeadHeader(nil, holders, first)
		if err != nil {
			t.Fatal(err)
		}
		var wire bytes.Buffer
		if err := WriteResponseID(&wire, &Response{OK: true, Head: true, Version: 9, Data: hdr, Tail: chunk}, 1); err != nil {
			t.Fatal(err)
		}
		f, err := ReadFrame(bufio.NewReader(&wire))
		if err != nil {
			t.Fatal(err)
		}
		var resp Response
		if err := f.DecodeResponse(&resp, KindGet); err != nil {
			t.Fatal(err)
		}
		if !resp.OK || !resp.Head {
			t.Fatalf("%d-byte chunk: answer reads OK=%v Head=%v, want both", n, resp.OK, resp.Head)
		}
		h, err := DecodeGetHead(&resp)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(h.Holders, holders) || h.First.TotalSize != first.TotalSize ||
			h.First.FileCRC != 7 || h.First.ChunkCRC != 8 || !bytes.Equal(h.First.Chunk, chunk) {
			t.Fatalf("%d-byte chunk: decoded %+v", n, h.Holders)
		}
		resp.Release()
	}
	b, err := AppendResponse(nil, &Response{OK: true, Data: []byte("body")})
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := DecodeResponse(b); err != nil || resp.Head {
		t.Fatalf("whole answer decoded as %+v, %v", resp, err)
	}
	b[0] |= 1 << 2
	if _, err := DecodeResponse(b); err != ErrCorrupt {
		t.Fatalf("status byte 0x%02x: err = %v, want ErrCorrupt", b[0], err)
	}
}
