package msg

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"net"
	"reflect"
	"runtime"
	"testing"
)

// The ownership rules of large frames (docs/PIPELINE.md "Buffer
// ownership"): what a frame costs to move, that a released buffer is
// really gone, that the aliasing decode reads what the copying one does,
// and that the segmented writer puts the same bytes on the wire.

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// chunkFrames builds the two frames the chunk plane moves: a KindFetch
// response and a KindPut request, each carrying one chunk of n bytes the
// way handleFetch and the Uploader send it — fixed header in Data, the
// chunk as Tail.
func chunkFrames(tb testing.TB, n int) (*Request, *Response) {
	tb.Helper()
	chunk := bytes.Repeat([]byte{0xA5}, n)
	crc := crc32.Checksum(chunk, castagnoli)
	fh, err := AppendFetchRespHeader(nil, &FetchResp{TotalSize: uint64(n), FileCRC: crc, ChunkCRC: crc, Chunk: chunk})
	if err != nil {
		tb.Fatal(err)
	}
	ph, err := AppendPutReqHeader(nil, &PutReq{Op: PutData, TotalSize: uint64(n), FileCRC: crc, ChunkCRC: crc, Chunk: chunk})
	if err != nil {
		tb.Fatal(err)
	}
	return &Request{Kind: KindPut, Name: "file-000001", Data: ph, Tail: chunk},
		&Response{OK: true, ServedBy: 3, Version: 9, Data: fh, Tail: chunk}
}

// drainFrameList empties the free lists, so a test starts from "nothing to
// recycle" whatever ran before it.
func drainFrameList() {
	for _, l := range []*frameList{&frames, &bodies} {
		l.mu.Lock()
		l.bufs, l.bytes = nil, 0
		l.mu.Unlock()
	}
}

// bytesPerRun is testing.AllocsPerRun for heap bytes.
func bytesPerRun(runs int, f func()) float64 {
	f() // warm pools and the free list, as AllocsPerRun does
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestLargeFrameAllocBudget is the copy budget of the chunk plane: a 1 MiB
// chunk frame written and read back costs one frame-sized buffer at the
// receiver when nobody releases it, and nothing once its consumer does —
// the sender never allocates for the payload either way. A reintroduced
// copy (an encode buffer, a takeBytes) shows here as a whole extra MiB.
func TestLargeFrameAllocBudget(t *testing.T) {
	if poisonReleased {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const chunk = 1 << 20
	req, resp := chunkFrames(t, chunk)
	var wire bytes.Buffer
	wire.Grow(2 * chunk)
	roundTrips := map[string]func(release bool){
		"fetch response": func(release bool) {
			wire.Reset()
			if err := WriteResponseID(&wire, resp, 7); err != nil {
				t.Fatal(err)
			}
			got, _, err := ReadResponseID(&wire)
			if err != nil {
				t.Fatal(err)
			}
			fr, err := DecodeFetchResp(got.Data)
			if err != nil || len(fr.Chunk) != chunk {
				t.Fatalf("decode: %v, %d chunk bytes", err, len(fr.Chunk))
			}
			if release {
				got.Release()
			}
		},
		"put request": func(release bool) {
			wire.Reset()
			if err := WriteRequestID(&wire, req, 7); err != nil {
				t.Fatal(err)
			}
			got, _, err := ReadRequestID(&wire)
			if err != nil {
				t.Fatal(err)
			}
			pr, err := DecodePutReq(got.Data)
			if err != nil || len(pr.Chunk) != chunk {
				t.Fatalf("decode: %v, %d chunk bytes", err, len(pr.Chunk))
			}
			if release {
				got.Release()
			}
		},
	}
	for name, trip := range roundTrips {
		drainFrameList()
		kept := bytesPerRun(20, func() { trip(false) })
		if lo, hi := float64(chunk), float64(chunk+frameAlign+4<<10); kept < lo || kept > hi {
			t.Errorf("%s, never released: %.0f B/op, want one frame-sized buffer (%v..%v)", name, kept, lo, hi)
		}
		released := bytesPerRun(20, func() { trip(true) })
		if released > 4<<10 {
			t.Errorf("%s, released: %.0f B/op, want ~0 (the buffer is recycled)", name, released)
		}
		if allocs := testing.AllocsPerRun(20, func() { trip(true) }); allocs > 12 {
			t.Errorf("%s, released: %.0f allocs/op, want a handful of small ones", name, allocs)
		}
	}
}

// TestSmallFrameAllocBudget pins what a frame of at most readChunk bytes
// costs to read off a buffered stream (the kind the serve loop and the mux
// hold, whose header is peeked). Decoded into storage the caller owns — a
// serve loop's recycled request, the mux reader's response — a lent request
// allocates its name and nothing else, and a response its Data copy; Keep
// adds exactly the Data. The copying ReadRequestID and ReadResponseID add
// the message they return.
func TestSmallFrameAllocBudget(t *testing.T) {
	if poisonReleased {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	body := bytes.Repeat([]byte{7}, 4<<10)
	req := &Request{Kind: KindUpdate, Name: "file-000001", Data: body}
	resp := &Response{OK: true, ServedBy: 3, Version: 9, Data: body}
	var wire bytes.Buffer
	wire.Grow(1 << 20)
	br := bufio.NewReader(&wire)
	var served Request
	var answer Response
	lend := func() Lease {
		WriteRequestID(&wire, req, 1)
		f, err := ReadFrame(br)
		if err != nil {
			t.Fatal(err)
		}
		lease, err := f.DecodeRequest(&served)
		if err != nil || !served.lent || !bytes.Equal(served.Data, body) {
			t.Fatalf("lent request: err %v, lent %v", err, served.lent)
		}
		return lease
	}
	for _, tc := range []struct {
		name      string
		trip      func()
		allocs    float64
		bytesUpTo float64
	}{
		{"lent request", func() { lend().End() }, 1, 512},
		{"lent request, kept", func() {
			lease := lend()
			served.Keep()
			lease.End()
		}, 2, 512 + 4<<10},
		{"copied request", func() {
			WriteRequestID(&wire, req, 1)
			if r, _, err := ReadRequestID(br); err != nil || r.ref != nil || r.lent {
				t.Fatalf("small request: err %v, still borrows a buffer: %v", err, r != nil)
			}
		}, 3, 512 + 4<<10},
		{"response into caller storage", func() {
			WriteResponseID(&wire, resp, 1)
			f, err := ReadFrame(br)
			if err == nil {
				err = f.DecodeResponse(&answer, 0)
			}
			if err != nil || answer.ref != nil || !bytes.Equal(answer.Data, body) {
				t.Fatalf("small response: err %v, owns a frame: %v", err, answer.ref != nil)
			}
		}, 1, 512 + 4<<10},
		{"response", func() {
			WriteResponseID(&wire, resp, 1)
			if r, _, err := ReadResponseID(br); err != nil || r.ref != nil {
				t.Fatalf("small response: err %v, owns a frame: %v", err, r != nil)
			}
		}, 2, 512 + 4<<10},
	} {
		if got := testing.AllocsPerRun(200, tc.trip); got != tc.allocs {
			t.Errorf("4 KiB %s round trip: %v allocs, want %v", tc.name, got, tc.allocs)
		}
		if got := bytesPerRun(200, tc.trip); got > tc.bytesUpTo {
			t.Errorf("4 KiB %s round trip: %.0f B, want at most %.0f", tc.name, got, tc.bytesUpTo)
		}
	}
	// A reader that is not buffered pays one more: the header bytes.
	if got := testing.AllocsPerRun(200, func() {
		wire.Reset()
		WriteRequestID(&wire, req, 1)
		ReadRequestID(&wire)
	}); got != 4 {
		t.Errorf("4 KiB request off an unbuffered reader: %v allocs, want 4", got)
	}
}

// TestKeepSurvivesRelease: the Data of a lent request is the pooled read
// buffer's until Keep — which detaches it, once, on the request it is
// called on and on nothing else — a request with no payload borrows
// nothing to begin with, and the request struct itself is the lease's:
// cleared when it ends, poisoned under the race detector.
func TestKeepSurvivesRelease(t *testing.T) {
	body := bytes.Repeat([]byte{0x5A}, 4<<10)
	var wire bytes.Buffer
	lend := func(r *Request, id uint64) (*Request, Lease) {
		t.Helper()
		if err := WriteRequestID(&wire, r, id); err != nil {
			t.Fatal(err)
		}
		f, err := ReadFrame(&wire)
		if err != nil || f.ID != id {
			t.Fatalf("read: err %v id %d", err, f.ID)
		}
		req := new(Request)
		lease, err := f.DecodeRequest(req)
		if err != nil || lease.req != req {
			t.Fatalf("decode: err %v, lease covers the request: %v", err, lease.req == req)
		}
		return req, lease
	}
	req, lease := lend(&Request{Kind: KindInsert, Name: "kept", Data: body}, 3)
	if !req.lent {
		t.Fatal("a small frame's Data is not lent")
	}
	borrowed := *req // a struct copy is lent too, and keeps for itself alone
	kept := *req
	kept.Keep()
	if kept.lent || !req.lent || &kept.Data[0] == &req.Data[0] {
		t.Fatal("Keep on a struct copy must copy the bytes and leave the original lent")
	}
	first := &kept.Data[0]
	kept.Keep()
	if &kept.Data[0] != first {
		t.Fatal("a second Keep copied again")
	}
	if cap(kept.Data) != len(body) {
		t.Fatalf("kept copy has capacity %d, want exactly %d", cap(kept.Data), len(body))
	}
	lease.End()
	if poisonReleased && borrowed.Data[0] != 0xDB {
		t.Fatalf("an ended lease's buffer is not poisoned: %#x", borrowed.Data[0])
	}
	want := Request{}
	if poisonReleased {
		want = endedRequest
	}
	if !reflect.DeepEqual(*req, want) {
		t.Fatalf("an ended lease left the request as %+v", *req)
	}
	if borrowed.Name != "kept" || kept.Name != "kept" {
		t.Fatal("ending the lease changed a struct copy's fields")
	}
	// The next requests of the connection are read into the same pool.
	for i := 0; i < 8; i++ {
		_, l := lend(&Request{Kind: KindInsert, Name: "next", Data: bytes.Repeat([]byte{byte(i)}, 4<<10)}, 4)
		l.End()
	}
	if !bytes.Equal(kept.Data, body) {
		t.Fatal("kept Data changed after the lease ended")
	}

	local := &Request{Kind: KindInsert, Data: body}
	local.Keep()
	if &local.Data[0] != &body[0] {
		t.Fatal("Keep copied the Data of a request that was never lent")
	}
	empty, l := lend(&Request{Kind: KindGet, Name: "no payload"}, 5)
	if empty.lent || l.bp != nil || empty.Data != nil {
		t.Fatalf("a request without payload must borrow nothing: lent %v", empty.lent)
	}
	large, _ := chunkFrames(t, readChunk+1)
	owned, l := lend(large, 6)
	if owned.lent || l.bp != nil || owned.ref == nil {
		t.Fatal("a large frame owns its buffer and borrows nothing")
	}
	data := owned.Data
	ref := owned.Keep()
	if &owned.Data[0] != &data[0] || ref == nil || ref != owned.ref {
		t.Fatal("Keep of a large frame must hand out a reference to its buffer, not copy Data")
	}
	if l.End(); owned.ref != nil {
		t.Fatal("an ended lease still pins the large frame's buffer")
	}
	if !bytes.Equal(data, append(large.Data, large.Tail...)) {
		t.Fatal("the lease's end recycled a buffer a kept reference still holds")
	}
	ref.Release() // the last reference: the buffer is listed
	if poisonReleased && data[0] != 0xDB {
		t.Fatalf("a buffer whose last reference ended is not poisoned: %#x", data[0])
	}
}

// TestLyingPrefixAllocationBound asserts the bound readLargeFrame states:
// what a frame read allocates is at most twice what it received plus one
// readChunk, whatever its prefix declared.
func TestLyingPrefixAllocationBound(t *testing.T) {
	if poisonReleased {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, tc := range []struct {
		name           string
		declared, sent int
	}{
		{"MaxFrame declared, 64 bytes sent", MaxFrame, 64},
		{"MaxFrame declared, 1 MiB sent", MaxFrame, 1 << 20},
		{"1 MiB declared, just under half sent", 1 << 20, 1<<19 - 1},
		{"1 MiB declared, just over half sent", 1 << 20, 1<<19 + 1},
	} {
		drainFrameList()
		stream := lyingFrame(tc.declared, make([]byte, tc.sent))
		got := bytesPerRun(5, func() {
			if _, _, err := ReadRequestID(bytes.NewReader(stream)); err == nil {
				t.Fatalf("%s: truncated frame accepted", tc.name)
			}
		})
		if bound := float64(2*tc.sent + readChunk); got > bound {
			t.Errorf("%s: read allocated %.0f B, bound is %.0f", tc.name, got, bound)
		}
	}
}

// TestReleaseRecyclesAndPoisons: a released buffer serves the next frame
// of its size, and under the race detector the bytes a stale slice still
// sees are 0xDB — a use after Release fails checksums instead of reading
// the next frame's payload.
func TestReleaseRecyclesAndPoisons(t *testing.T) {
	drainFrameList()
	_, resp := chunkFrames(t, 256<<10)
	var wire bytes.Buffer
	read := func() *Response {
		wire.Reset()
		if err := WriteResponseID(&wire, resp, 8); err != nil {
			t.Fatal(err)
		}
		got, _, err := ReadResponseID(&wire)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	first := read()
	stale := first.Data
	buf := &first.ref.buf[:1][0]
	first.Release()
	if first.Data != nil {
		t.Fatal("Release left Data set")
	}
	first.Release() // idempotent: the buffer must not be listed twice
	if poisonReleased {
		for i, b := range stale {
			if b != 0xDB {
				t.Fatalf("released buffer not poisoned: byte %d is %#x", i, b)
			}
		}
	}
	second := read()
	if &second.ref.buf[:1][0] != buf {
		t.Error("a released buffer was not reused for the next frame of its size")
	}
	if third := read(); &third.ref.buf[:1][0] == buf {
		t.Error("one buffer serves two live frames")
	}
	fr, err := DecodeFetchResp(second.Data)
	if err != nil || crc32.Checksum(fr.Chunk, castagnoli) != fr.ChunkCRC {
		t.Fatalf("frame read into a recycled buffer is damaged: %v", err)
	}
}

// TestFrameListBounded: the free list never holds more than its cap, and
// makes room for the newest buffer by dropping the oldest.
func TestFrameListBounded(t *testing.T) {
	drainFrameList()
	defer drainFrameList()
	const each = 4 << 20
	n := maxFreeFrameBytes/each + 3
	for i := 0; i < n; i++ {
		frames.put(make([]byte, each+i)) // distinct capacities tell them apart
	}
	frames.mu.Lock()
	defer frames.mu.Unlock()
	if frames.bytes > maxFreeFrameBytes {
		t.Fatalf("free list holds %d bytes, cap %d", frames.bytes, maxFreeFrameBytes)
	}
	if newest := cap(frames.bufs[len(frames.bufs)-1]); newest != each+n-1 {
		t.Fatalf("newest buffer is cap %d, want %d", newest, each+n-1)
	}
	if oldest := cap(frames.bufs[0]); oldest == each {
		t.Fatal("the oldest buffer was kept over newer ones")
	}
}

// TestBodyListKeepsFrames: a body past one frame goes back to a list of its
// own when its last reference ends, so it leaves the frames listed beside
// it alone, and the next body of its size is assembled in it.
func TestBodyListKeepsFrames(t *testing.T) {
	drainFrameList()
	defer drainFrameList()
	frame := make([]byte, 1<<20)
	frames.put(frame)
	const size = 32 << 20 // as large as the frame list's whole budget
	buf, ref := NewBody(size)
	ref.Release()
	frames.mu.Lock()
	kept := len(frames.bufs) == 1 && &frames.bufs[0][0] == &frame[0]
	frames.mu.Unlock()
	if !kept {
		t.Fatal("a released body evicted the frame listed before it")
	}
	again, ref := NewBody(size - 100)
	defer ref.Release()
	if &again[0] != &buf[0] {
		t.Fatal("the next body of its size was not assembled in the released one")
	}
}

// goldenMessages is one request and one response per kind, at a payload
// small enough to take the single-Write path and one large enough to be
// written in segments, each with Data whole and with Data split into
// Data‖Tail at several points.
func goldenMessages() (reqs []*Request, resps []*Response) {
	path := []Hop{{PID: 8, Parent: NoParent, Action: HopForward, Dur: 120}, {PID: 4, Parent: 8, Action: HopServe, Dur: 50}}
	for k := KindInsert; int(k) < KindCount; k++ {
		for _, n := range []int{0, 9, 4 << 10, readChunk, readChunk + 1, 200<<10 + 37} {
			body := make([]byte, n)
			for i := range body {
				body[i] = byte(i*31 + int(k))
			}
			for _, cut := range []int{n, 0, n / 3, n - n/7} {
				reqs = append(reqs, &Request{
					Kind: k, Flags: FlagTrace, Origin: 7, Hops: 2, Subtree: 1, Version: 99,
					Name: "golden/" + k.String(), Data: body[:cut:cut], Tail: body[cut:],
					TraceID: 0xDEADBEEF, Path: path,
				})
				resps = append(resps, &Response{
					OK: true, ServedBy: 4, Hops: 3, Version: 7, Err: "golden " + k.String(),
					Data: body[:cut:cut], Tail: body[cut:], Path: path,
				})
			}
		}
	}
	return reqs, resps
}

// joined is m with Tail folded into Data: what a receiver decodes, and
// what the contiguous encoders are given in the golden comparison.
func joinedRequest(r *Request) *Request {
	j := *r
	j.Data, j.Tail = append(append([]byte{}, r.Data...), r.Tail...), nil
	return &j
}

func joinedResponse(r *Response) *Response {
	j := *r
	j.Data, j.Tail = append(append([]byte{}, r.Data...), r.Tail...), nil
	return &j
}

// goldenFrame is the frame the pre-segment writer produced: header word,
// ID, then the contiguous AppendRequest/AppendResponse encoding.
func goldenFrame(tb testing.TB, payload []byte, err error, id uint64) []byte {
	if err != nil {
		tb.Helper()
		tb.Fatal(err)
	}
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(payload))|FrameIDBit)
	frame = binary.BigEndian.AppendUint64(frame, id)
	return append(frame, payload...)
}

// lyingFrame is a frame whose header declares more payload than follows it.
func lyingFrame(declared int, sent []byte) []byte {
	frame := goldenFrame(nil, sent, nil, 9)
	binary.BigEndian.PutUint32(frame, FrameIDBit|uint32(declared))
	return frame
}

// TestGoldenWireFrames: for every kind, the segmented writer puts on the
// wire exactly the bytes the contiguous encoders produce, whether the
// payload is whole or split into Data‖Tail and whether it goes out in one
// Write or in segments — through a plain io.Writer here, through a real
// socket's writev in TestGoldenWireFramesOverTCP.
func TestGoldenWireFrames(t *testing.T) {
	reqs, resps := goldenMessages()
	var wire bytes.Buffer
	for _, r := range reqs {
		payload, err := AppendRequest(nil, joinedRequest(r))
		want := goldenFrame(t, payload, err, 42)
		wire.Reset()
		if err := WriteRequestID(&wire, r, 42); err != nil || !bytes.Equal(wire.Bytes(), want) {
			t.Fatalf("request %v, %d+%d payload bytes: err %v, frame differs from AppendRequest's",
				r.Kind, len(r.Data), len(r.Tail), err)
		}
		split, err := AppendRequest(nil, r)
		if err != nil || !bytes.Equal(split, payload) {
			t.Fatalf("request %v: AppendRequest of Data‖Tail differs from the joined encoding", r.Kind)
		}
		got, id, err := ReadRequestID(&wire)
		if err != nil || id != 42 {
			t.Fatalf("request %v: read back err %v id %d", r.Kind, err, id)
		}
		sameRequest(t, got, joinedRequest(r))
	}
	for _, r := range resps {
		payload, err := AppendResponse(nil, joinedResponse(r))
		want := goldenFrame(t, payload, err, 42)
		wire.Reset()
		if err := WriteResponseID(&wire, r, 42); err != nil || !bytes.Equal(wire.Bytes(), want) {
			t.Fatalf("response %q, %d+%d payload bytes: err %v, frame differs from AppendResponse's",
				r.Err, len(r.Data), len(r.Tail), err)
		}
		got, id, err := ReadResponseID(&wire)
		if err != nil || id != 42 {
			t.Fatalf("response %q: read back err %v id %d", r.Err, err, id)
		}
		sameResponse(t, got, joinedResponse(r))
	}
}

// TestGoldenWireFramesOverTCP sends the golden messages through a loopback
// socket, where a segmented frame is one writev, and checks the byte stream
// the other end receives against the contiguous encoders'.
func TestGoldenWireFramesOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	received := make(chan []byte, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			received <- nil
			return
		}
		defer conn.Close()
		all, _ := io.ReadAll(conn)
		received <- all
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	reqs, resps := goldenMessages()
	var want []byte
	for i, r := range reqs {
		if len(r.Data)+len(r.Tail) <= readChunk && i%4 != 0 {
			continue // the single-Write path needs no socket to show its bytes
		}
		payload, err := AppendRequest(nil, joinedRequest(r))
		want = append(want, goldenFrame(t, payload, err, uint64(i))...)
		if err := WriteRequestID(conn, r, uint64(i)); err != nil {
			t.Fatal(err)
		}
		resp := resps[i]
		payload, err = AppendResponse(nil, joinedResponse(resp))
		want = append(want, goldenFrame(t, payload, err, uint64(i))...)
		if err := WriteResponseID(conn, resp, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	conn.Close()
	if got := <-received; !bytes.Equal(got, want) {
		t.Fatalf("socket received %d bytes that differ from the %d the contiguous encoders produce", len(got), len(want))
	}
}

func sameRequest(tb testing.TB, got, want *Request) {
	tb.Helper()
	g, w := *got, *want
	g.ref, w.ref = nil, nil
	if len(g.Data) == 0 && len(w.Data) == 0 {
		g.Data, w.Data = nil, nil
	}
	if !reflect.DeepEqual(&g, &w) {
		tb.Fatalf("request differs:\n got %+v\nwant %+v", summary(g.Data, g), summary(w.Data, w))
	}
}

func sameResponse(tb testing.TB, got, want *Response) {
	tb.Helper()
	g, w := *got, *want
	g.ref, w.ref = nil, nil
	if len(g.Data) == 0 && len(w.Data) == 0 {
		g.Data, w.Data = nil, nil
	}
	if !reflect.DeepEqual(&g, &w) {
		tb.Fatalf("response differs:\n got %+v\nwant %+v", summary(g.Data, g), summary(w.Data, w))
	}
}

// summary keeps a failing comparison's output to a line.
func summary(data []byte, m any) any {
	if len(data) <= 64 {
		return m
	}
	return struct {
		DataLen int
		DataCRC uint32
	}{len(data), crc32.Checksum(data, castagnoli)}
}

// FuzzAliasingDecodeMatchesCopying is the differential check on the
// ownership change: whatever bytes arrive, the aliasing decoders accept
// exactly what the copying ones accept and produce the same message field
// for field, and a frame read off a stream — pooled-and-copied below
// readChunk, aliased above — decodes to that same message too.
func FuzzAliasingDecodeMatchesCopying(f *testing.F) {
	small, _ := AppendRequest(nil, &Request{Kind: KindGet, Flags: FlagTrace, Name: "file", Data: []byte("payload"),
		TraceID: 5, Path: []Hop{{PID: 8, Action: HopForward, Dur: 100}}})
	f.Add(small, false)
	smallResp, _ := AppendResponse(nil, &Response{OK: true, ServedBy: 4, Err: "e", Data: []byte("x")})
	f.Add(smallResp, true)
	req, resp := chunkFrames(f, readChunk+100)
	large, _ := AppendRequest(nil, req)
	f.Add(large, false)
	largeResp, _ := AppendResponse(nil, resp)
	f.Add(largeResp, true)
	f.Add(bytes.Repeat([]byte{0xFF}, readChunk+9), false)
	f.Add([]byte{}, true)
	f.Fuzz(func(t *testing.T, payload []byte, asResponse bool) {
		if len(payload) > MaxFrame {
			return
		}
		framed := goldenFrame(t, payload, nil, 1)
		pristine := append([]byte{}, payload...)
		if asResponse {
			want, wantErr := DecodeResponse(payload)
			got := new(Response)
			gotErr := decodeResponse(got, payload, true, 0)
			read, _, readErr := ReadResponseID(bytes.NewReader(framed))
			if (wantErr == nil) != (gotErr == nil) || (wantErr == nil) != (readErr == nil) {
				t.Fatalf("acceptance differs: copying %v, aliasing %v, stream %v", wantErr, gotErr, readErr)
			}
			if wantErr != nil {
				return
			}
			sameResponse(t, got, want)
			sameResponse(t, read, want)
			if fr, err := DecodeFetchResp(got.Data); err == nil {
				ref, err := DecodeFetchResp(want.Data)
				if err != nil || !reflect.DeepEqual(fr, ref) {
					t.Fatalf("nested fetch decode differs over aliased Data: %v", err)
				}
			}
		} else {
			want, wantErr := DecodeRequest(payload)
			got := new(Request)
			gotErr := decodeRequest(got, payload, true)
			read, _, readErr := ReadRequestID(bytes.NewReader(framed))
			if (wantErr == nil) != (gotErr == nil) || (wantErr == nil) != (readErr == nil) {
				t.Fatalf("acceptance differs: copying %v, aliasing %v, stream %v", wantErr, gotErr, readErr)
			}
			if wantErr != nil {
				return
			}
			sameRequest(t, got, want)
			sameRequest(t, read, want)
			if pr, err := DecodePutReq(got.Data); err == nil {
				ref, err := DecodePutReq(want.Data)
				if err != nil || !reflect.DeepEqual(pr, ref) {
					t.Fatalf("nested put decode differs over aliased Data: %v", err)
				}
			}
		}
		if !bytes.Equal(payload, pristine) {
			t.Fatal("decoding wrote to its input")
		}
	})
}
