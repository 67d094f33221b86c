package msg

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzDecodeRequest hammers the request decoder with arbitrary bytes: it
// must never panic or over-allocate, and anything it accepts must
// re-encode to an equivalent decode (decode∘encode∘decode fixpoint).
func FuzzDecodeRequest(f *testing.F) {
	seed, _ := AppendRequest(nil, &Request{
		Kind: KindGet, Flags: FlagFallback, Origin: 7, Hops: 2,
		Subtree: 1, Version: 99, Name: "file", Data: []byte("payload"),
	})
	f.Add(seed)
	traced, _ := AppendRequest(nil, &Request{
		Kind: KindGet, Flags: FlagTrace, Name: "file", TraceID: 12345,
		Path: []Hop{{PID: 8, Action: HopForward, Dur: 100}, {PID: 4, Action: HopServe, Dur: 50}},
	})
	f.Add(traced)
	f.Add([]byte{})
	f.Add([]byte{0xFF})
	f.Add(bytes.Repeat([]byte{0x00}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRequest(data)
		if err != nil {
			return
		}
		re, err := AppendRequest(nil, req)
		if err != nil {
			t.Fatalf("accepted request failed to re-encode: %v", err)
		}
		again, err := DecodeRequest(re)
		if err != nil {
			t.Fatalf("re-encoded request failed to decode: %v", err)
		}
		if again.Kind != req.Kind || again.Name != req.Name ||
			!bytes.Equal(again.Data, req.Data) || again.Version != req.Version ||
			again.TraceID != req.TraceID || len(again.Path) != len(req.Path) {
			t.Fatalf("decode/encode not a fixpoint: %+v vs %+v", req, again)
		}
		for i := range req.Path {
			if again.Path[i] != req.Path[i] {
				t.Fatalf("hop %d not a fixpoint: %+v vs %+v", i, req.Path[i], again.Path[i])
			}
		}
	})
}

// unIDdFrames are the two shapes of the framing peers spoke before every
// frame carried a request ID — a well-formed frame behind a bare 4-byte
// header, and a bare header claiming MaxFrame with nothing behind it. Both
// are refused on the header alone; they seed every frame fuzzer.
func unIDdFrames(tb testing.TB) [][]byte {
	payload, err := AppendRequest(nil, &Request{Kind: KindGet, Name: "file"})
	if err != nil {
		tb.Fatal(err)
	}
	return [][]byte{
		append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...),
		binary.BigEndian.AppendUint32(nil, MaxFrame),
	}
}

// FuzzReadRequestFrame hammers the stream layer — length prefix included —
// with arbitrary bytes: ReadRequestID must never panic and, critically, a
// lying length prefix must not cost a frame-sized allocation. The seeds
// cover the attack shapes: a maximal declared length with no payload, a
// just-over-limit prefix, and a declared length larger than the bytes that
// follow.
func FuzzReadRequestFrame(f *testing.F) {
	var framed bytes.Buffer
	if err := WriteRequestID(&framed, &Request{Kind: KindGet, Name: "file", Data: []byte("payload")}, 1); err != nil {
		f.Fatal(err)
	}
	f.Add(framed.Bytes())
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})                              // 2 GiB declared, nothing sent
	f.Add(binary.BigEndian.AppendUint32(nil, FrameIDBit|(MaxFrame+1))) // just over the limit
	f.Add(lyingFrame(MaxFrame, []byte{'x'}))                           // huge claim, 1 byte sent
	f.Add(lyingFrame(1<<20, bytes.Repeat([]byte{0}, 64)))
	for _, frame := range unIDdFrames(f) {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, id, err := ReadRequestID(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything the stream layer accepts must re-encode and re-read.
		var re bytes.Buffer
		if err := WriteRequestID(&re, req, id); err != nil {
			t.Fatalf("accepted frame failed to re-encode: %v", err)
		}
		if _, _, err := ReadRequestID(&re); err != nil {
			t.Fatalf("re-encoded frame failed to read: %v", err)
		}
	})
}

// TestReadFrameRejectsOversizedPrefix pins the limit behavior the fuzzer
// explores: a declared length over MaxFrame is rejected before any payload
// is read, and a declared length the sender never backs with bytes fails
// with a truncation error instead of blocking on a frame-sized buffer.
func TestReadFrameRejectsOversizedPrefix(t *testing.T) {
	over := binary.BigEndian.AppendUint32(nil, FrameIDBit|(MaxFrame+1))
	if _, _, err := ReadRequestID(bytes.NewReader(over)); err != ErrFrameTooLarge {
		t.Fatalf("oversized prefix: err = %v, want ErrFrameTooLarge", err)
	}
	lie := lyingFrame(MaxFrame, []byte("ten bytes."))
	if _, _, err := ReadRequestID(bytes.NewReader(lie)); err == nil {
		t.Fatal("lying prefix with truncated body was accepted")
	}
	// An honest maximal frame still round-trips.
	big := &Request{Kind: KindInsert, Name: "big", Data: bytes.Repeat([]byte{7}, 1<<20)}
	var buf bytes.Buffer
	if err := WriteRequestID(&buf, big, 1); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadRequestID(&buf)
	if err != nil || !bytes.Equal(got.Data, big.Data) {
		t.Fatalf("1 MiB frame did not round-trip: %v", err)
	}
}

// FuzzReadFrameID hammers the frame header: arbitrary bytes through
// ReadRequestID must never panic, an accepted frame must round-trip through
// WriteRequestID with its ID intact, and a length word without FrameIDBit
// is refused as such whatever follows it. The seeds cover the un-ID'd
// framing plus the attack shapes with the ID bit set.
func FuzzReadFrameID(f *testing.F) {
	unIDd := unIDdFrames(f)
	f.Add(unIDd[0])
	var idframe bytes.Buffer
	if err := WriteRequestID(&idframe, &Request{Kind: KindGet, Name: "file"}, 0xdeadbeef); err != nil {
		f.Fatal(err)
	}
	f.Add(idframe.Bytes())
	f.Add(binary.BigEndian.AppendUint32(nil, FrameIDBit))              // ID frame, no ID word sent
	f.Add(binary.BigEndian.AppendUint32(nil, FrameIDBit|(MaxFrame+1))) // ID bit + oversized length
	f.Add(append(binary.BigEndian.AppendUint32(nil, FrameIDBit|MaxFrame) /* huge claim */, bytes.Repeat([]byte{0}, 16)...))
	f.Add(unIDd[1])
	f.Fuzz(func(t *testing.T, data []byte) {
		req, id, err := ReadRequestID(bytes.NewReader(data))
		if len(data) >= 4 && data[0]&0x80 == 0 && err != ErrNoFrameID {
			t.Fatalf("un-ID'd frame: err = %v, want ErrNoFrameID", err)
		}
		if err != nil {
			return
		}
		var re bytes.Buffer
		if err := WriteRequestID(&re, req, id); err != nil {
			t.Fatalf("accepted ID frame failed to re-encode: %v", err)
		}
		again, id2, err := ReadRequestID(&re)
		if err != nil {
			t.Fatalf("re-encoded frame failed to read: %v", err)
		}
		if id2 != id || again.Kind != req.Kind || again.Name != req.Name {
			t.Fatalf("frame not a fixpoint: (%v,%d) vs (%v,%d)", req.Kind, id, again.Kind, id2)
		}
	})
}

// TestFrameIDRoundTrip pins the framing: IDs survive both directions, the
// length word of every frame has the high bit set (which a pre-pipelining
// decoder reads as an over-MaxFrame length and rejects cleanly), responses
// echo IDs the same way requests carry them, and a frame without the bit is
// refused by both readers.
func TestFrameIDRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	req := &Request{Kind: KindGet, Name: "pipelined", Data: []byte("x")}
	if err := WriteRequestID(&buf, req, 42); err != nil {
		t.Fatal(err)
	}
	got, id, err := ReadRequestID(bytes.NewReader(buf.Bytes()))
	if err != nil || id != 42 || got.Name != req.Name {
		t.Fatalf("request ID frame: req=%+v id=%d err=%v", got, id, err)
	}
	if word := binary.BigEndian.Uint32(buf.Bytes()[:4]); word <= MaxFrame {
		t.Fatalf("ID frame length word %#x would pass a legacy decoder", word)
	}

	buf.Reset()
	resp := &Response{OK: true, ServedBy: 3, Data: []byte("y")}
	if err := WriteResponseID(&buf, resp, 7); err != nil {
		t.Fatal(err)
	}
	gotResp, id, err := ReadResponseID(&buf)
	if err != nil || id != 7 || !gotResp.OK || !bytes.Equal(gotResp.Data, resp.Data) {
		t.Fatalf("response ID frame: resp=%+v id=%d err=%v", gotResp, id, err)
	}

	for _, frame := range unIDdFrames(t) {
		if _, _, err := ReadRequestID(bytes.NewReader(frame)); err != ErrNoFrameID {
			t.Fatalf("un-ID'd frame through ReadRequestID: err = %v, want ErrNoFrameID", err)
		}
		if _, _, err := ReadResponseID(bufio.NewReader(bytes.NewReader(frame))); err != ErrNoFrameID {
			t.Fatalf("un-ID'd frame through a buffered ReadResponseID: err = %v, want ErrNoFrameID", err)
		}
	}
}

// FuzzDecodeResponse mirrors FuzzDecodeRequest for responses.
func FuzzDecodeResponse(f *testing.F) {
	seed, _ := AppendResponse(nil, &Response{
		OK: true, ServedBy: 4, Hops: 3, Version: 7, Err: "", Data: []byte("x"),
	})
	f.Add(seed)
	tracedResp, _ := AppendResponse(nil, &Response{
		OK: true, ServedBy: 4,
		Path: []Hop{{PID: 8, Action: HopForward, Dur: 100}, {PID: 4, Action: HopServe, Dur: 50}},
	})
	f.Add(tracedResp)
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := DecodeResponse(data)
		if err != nil {
			return
		}
		re, err := AppendResponse(nil, resp)
		if err != nil {
			t.Fatalf("accepted response failed to re-encode: %v", err)
		}
		if _, err := DecodeResponse(re); err != nil {
			t.Fatalf("re-encoded response failed to decode: %v", err)
		}
	})
}
