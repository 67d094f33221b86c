package msg

// Buffer ownership of large frames and bodies (docs/PIPELINE.md "Buffer
// ownership"): a frame longer than readChunk is read into one buffer of its
// own, the decoded message's Data points into that buffer instead of being
// copied out of it, and the message holds the buffer through a Ref, a
// counted reference. A body this process assembles itself — a staged
// upload, a chunked fetch reassembled — is held the same way (NewBody).
// Whoever keeps Data past the message — the store, the outbox, a response
// written later — takes a reference of its own (Keep) and ends it when done
// (Ref.Release); the message's own ends with Release, or with its serve
// loop's lease. The last reference to end lists the buffer for the next
// frame or body of its size — frames and bodies up to one frame in one
// list, bodies past it in another — so a stored body that is superseded
// becomes the buffer its successor is read or assembled into. A reference
// that is never ended only pins the buffer, and the collector reclaims it
// as it would any other allocation.

import (
	"io"
	"sync"
	"sync/atomic"
)

// frameAlign rounds a frame buffer's capacity up, so frames that differ by
// a few header bytes (a longer name, a trace tail) recycle each other's
// buffers. One runtime page: the allocator rounds a large object up to
// whole pages anyway, so the slack costs nothing.
const frameAlign = 8 << 10

// maxFreeFrameBytes bounds the frame list — enough for the chunks two
// default-window transfers keep in flight, so a steady chunk stream
// allocates nothing, and little enough that an idle process does not sit
// on a second cache. The body list has a budget of its own, MaxFileSize:
// one body of the largest size a transfer carries, so a listed body never
// evicts the chunk frames, and an idle process sits on at most that much
// more.
const maxFreeFrameBytes = 32 << 20

// maxFrameCap is the largest capacity a frame buffer is given: MaxFrame
// rounded up to frameAlign. A buffer past it holds a body no frame carries.
const maxFrameCap = (MaxFrame + frameAlign - 1) / frameAlign * frameAlign

// frameList is a bounded free list released buffers wait in. A buffer
// serves a frame or body it fits with at most an eighth to spare, so a
// recycled buffer that ends up kept (Data retained in the store) wastes
// little; when the list is full the oldest buffer makes room, so the list
// follows a change of chunk or body size instead of filling up with the
// old one.
type frameList struct {
	max   int // byte budget
	mu    sync.Mutex
	bufs  [][]byte
	bytes int
}

var (
	// frames lists buffers of up to one frame: frames read, and bodies
	// assembled at those sizes.
	frames = frameList{max: maxFreeFrameBytes}
	// bodies lists buffers past one frame: staged uploads and reassembled
	// fetches of an over-frame body.
	bodies = frameList{max: MaxFileSize}
)

// listFor is the list a buffer of capacity c goes back to and a body of c
// bytes is drawn from; nil for one of at most readChunk bytes, which no
// frame read would fit and which the collector reclaims.
func listFor(c int) *frameList {
	switch {
	case c <= readChunk:
		return nil
	case c <= maxFrameCap:
		return &frames
	}
	return &bodies
}

// get returns a listed buffer fit for an n-byte frame, newest first, or nil.
func (l *frameList) get(n int) []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := len(l.bufs) - 1; i >= 0; i-- {
		if c := cap(l.bufs[i]); c >= n && c-n <= n/8 {
			return l.take(i)[:n]
		}
	}
	return nil
}

// take unlists buffer i. Caller holds mu.
func (l *frameList) take(i int) []byte {
	buf := l.bufs[i]
	last := len(l.bufs) - 1
	copy(l.bufs[i:], l.bufs[i+1:])
	l.bufs[last] = nil
	l.bufs = l.bufs[:last]
	l.bytes -= cap(buf)
	return buf
}

// put lists buf for reuse. Under the race detector it is first overwritten
// with 0xDB, so a use after Release shows as garbage, not as the next
// frame's bytes.
func (l *frameList) put(buf []byte) {
	buf = buf[:cap(buf)]
	if len(buf) > l.max {
		return
	}
	if poisonReleased {
		for i := range buf {
			buf[i] = 0xDB
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.bytes+len(buf) > l.max {
		l.take(0)
	}
	l.bufs = append(l.bufs, buf)
	l.bytes += len(buf)
}

// readLargeFrame reads an n-byte payload, n > readChunk, into one buffer
// of its own: a recycled one when the free list has a fit, otherwise one
// allocation of the frame's size — made only once half the frame has
// arrived. Until then the bytes are staged in pooled readChunk pieces, so
// a lying length prefix still cannot force a frame-sized allocation: what
// a read allocates is at most twice what it has received plus one
// readChunk, never what the prefix declared (a recycled buffer is memory
// the process already holds).
func readLargeFrame(r io.Reader, n int) ([]byte, error) {
	if buf := frames.get(n); buf != nil {
		if _, err := io.ReadFull(r, buf); err != nil {
			frames.put(buf)
			return nil, err
		}
		return buf, nil
	}
	half := n / 2
	staged := make([]*[]byte, 0, half/readChunk+1)
	defer func() {
		for _, bp := range staged {
			putBuf(bp)
		}
	}()
	for got := 0; got < half; {
		bp := getBuf()
		staged = append(staged, bp)
		*bp = (*bp)[:min(cap(*bp), half-got)]
		if _, err := io.ReadFull(r, *bp); err != nil {
			return nil, err
		}
		got += len(*bp)
	}
	buf := make([]byte, (n+frameAlign-1)/frameAlign*frameAlign)[:n]
	got := 0
	for _, bp := range staged {
		got += copy(buf[got:], *bp)
	}
	if _, err := io.ReadFull(r, buf[got:]); err != nil {
		return nil, err
	}
	return buf, nil
}

// A Ref is a frame or body buffer shared by counted references: the message
// read into it, or the assembler NewBody handed it to, holds the first, and
// every holder of a view of it — a stored copy, an outbox entry, a response
// being written — holds one more. The buffer is listed for reuse when the
// last one ends. A nil *Ref holds nothing, and its methods do nothing.
type Ref struct {
	buf  []byte
	refs atomic.Int32
}

// newRef wraps a buffer readLargeFrame or NewBody returned in a Ref holding
// one reference.
func newRef(buf []byte) *Ref {
	r := &Ref{buf: buf}
	r.refs.Store(1)
	return r
}

// NewBody returns an n-byte buffer for a body this process assembles
// itself — a staged upload, a reassembled chunked fetch — and the one
// reference to it: a listed buffer that fits, else a new one rounded up to
// frameAlign. Its bytes are whatever the buffer held last (0xDB under the
// race detector), for the holder to overwrite.
func NewBody(n int) ([]byte, *Ref) {
	var buf []byte
	if l := listFor(n); l != nil {
		buf = l.get(n)
	}
	if buf == nil {
		buf = make([]byte, (n+frameAlign-1)/frameAlign*frameAlign)[:n]
	}
	return buf, newRef(buf)
}

// Retain takes one more reference for a new holder and returns r. Only a
// holder of a live reference may take another, so the count never climbs
// back from zero.
func (r *Ref) Retain() *Ref {
	if r != nil && r.refs.Add(1) <= 1 {
		panic("msg: Ref retained after its last release")
	}
	return r
}

// Release ends one reference; ending the last lists the buffer in the list
// its capacity belongs to (poisoned under the race detector). Nothing that
// points into the buffer may be used by the releasing holder afterwards.
func (r *Ref) Release() {
	if r == nil {
		return
	}
	switch n := r.refs.Add(-1); {
	case n == 0:
		if l := listFor(cap(r.buf)); l != nil {
			l.put(r.buf)
		}
	case n < 0:
		panic("msg: Ref released more often than retained")
	}
}

// Release ends the request's own reference to the frame buffer r.Data
// aliases and clears Data. Only the holder of that reference may call it:
// whoever read the request with ReadRequestID, or a serve loop handler that
// is done with the payload before its response is written (the lease would
// end it otherwise) — never a struct copy. Nothing that points into Data (a
// PutReq.Chunk decoded from it, a slice of it) may be used afterwards
// unless a reference was kept for it. A no-op on a request that owns no
// frame buffer: one built locally, or read off a frame of at most
// readChunk bytes, whose Data is a private copy or on loan from the serve
// loop (Frame.DecodeRequest), which takes its buffer back itself.
func (r *Request) Release() {
	if r.ref != nil {
		r.ref.Release()
		r.ref, r.Data = nil, nil
	}
}

// Attach hands r the reference to the body r.Data is — one NewBody
// returned, filled by its holder — so the request owns it as it would a
// frame it was read off: every point that stores Data takes a reference of
// its own (Keep), and Release ends this one.
func (r *Request) Attach(ref *Ref) { r.ref = ref }

// Release is Request.Release for a response: Data and Tail — a split
// fetch answer's chunk views the same buffer — and the FetchResp.Chunk
// decoded from them die with it. A response a handler attached a reference
// to (Attach) ends that one; the serve loop calls it once the response is
// written.
func (resp *Response) Release() {
	if resp.ref != nil {
		resp.ref.Release()
		resp.ref, resp.Data, resp.Tail = nil, nil, nil
	}
}

// Keep returns a new reference to the frame buffer Data and Tail point
// into, for a holder that keeps them past the response; nil when the
// response owns no frame buffer (its Data is then its own already).
func (resp *Response) Keep() *Ref { return resp.ref.Retain() }

// Attach hands resp a reference to the frame buffer its Data or Tail
// point into — a stored copy's, taken by the read that found it — for
// Release to end once the response has been written.
func (resp *Response) Attach(ref *Ref) { resp.ref = ref }
