// Package stream is the client half of the chunked data plane
// (docs/ROUTING.md): it splits one large transfer into ranged KindFetch
// requests on the direct client↔holder hop, stripes the ranges round-robin
// across the file's replica set, and reassembles the result, checksumming
// each range once, where it lands (docs/ROUTING.md "Checksums"). Each
// in-flight chunk is an independent request-ID frame over the shared
// pipelined streams, so a 64 MiB transfer occupies a holder's pipeline
// workers one bounded chunk at a time instead of pinning one worker for the
// whole file, and a hot file's read bandwidth scales with its copy count
// instead of re-hammering one holder.
//
// Correctness under concurrent writes rests on the version pin: the head
// chunk (offset 0) fixes the transfer's version, every later range carries
// it, and a holder whose copy moved on refuses with msg.WrongVersionError
// rather than serve bytes from another version — so a reassembled payload
// can never splice two versions. A refused range retries on the other
// replicas; when the pinned version is gone everywhere, the transfer fails
// with ErrVersionGone and the caller re-locates and restarts.
package stream

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"lesslog/internal/crc32c"
	"lesslog/internal/msg"
)

// Defaults for consumers that do not care.
const (
	// DefaultChunkSize is the range length per fetch: 1 MiB balances
	// per-chunk RPC overhead against pipeline-worker hold time and stripe
	// granularity.
	DefaultChunkSize = 1 << 20
	// DefaultWindow bounds in-flight chunk requests per transfer.
	DefaultWindow = 8
)

// Sentinel errors the fetch path classifies on.
var (
	// ErrNotFound: every listed holder refused the head chunk as a
	// non-holder — the whole hint set was stale. The caller re-locates.
	ErrNotFound = errors.New("stream: no listed holder holds the file")
	// ErrVersionGone: the pinned version vanished from every replica
	// mid-transfer (a concurrent update or delete landed). The caller
	// restarts the transfer; the partial buffer is discarded, never served.
	ErrVersionGone = errors.New("stream: pinned version no longer held by any replica")
	// ErrChecksum: reassembly completed but the verified ranges do not
	// combine to the whole-file CRC-32C the holder declared. Never served;
	// the caller refetches.
	ErrChecksum = errors.New("stream: reassembled payload failed checksum")
)

// Source is one replica-set member a transfer may fetch from.
type Source struct {
	PID  uint32
	Addr string
}

// Doer is the transport dependency: one request/response exchange, the
// request and the answer passed by value — through an interface a pointer
// would put every fetch request on the heap. rpcTO is a deadline floor for
// the exchange (transport.Transport.Exchange); 0 keeps the configured
// deadline. The uploader stretches it with PullDeadline: the commit frame's
// handler moves the whole payload to every subtree holder before it
// answers, and data frames scale with their chunk. Satisfied by
// *transport.Transport; concurrent calls to the same address ride the
// pooled pipelined connections as independent request-ID frames.
type Doer interface {
	Exchange(addr string, req msg.Request, rpcTO time.Duration) (msg.Response, error)
}

// PullDeadline sizes the RPC deadline for an exchange whose handler must
// move total payload bytes before it can answer: a staged data frame
// (one chunk buffered), a chunked-put commit (the entry peer drives
// every subtree holder's pull of the assembled body), or a notify
// delivery (the holder pulls the body once). The rate
// floor is deliberately pessimistic — 2 MiB/s plus a flat base — because
// this deadline is a stuck-peer bound, not a latency target: a healthy
// transfer finishes orders of magnitude sooner, and transports configured
// with a longer flat RPCTimeout keep it (Exchange floors at the config).
func PullDeadline(total uint64) time.Duration {
	return 10*time.Second + time.Duration(total>>20)*500*time.Millisecond
}

// Config tunes a Fetcher.
type Config struct {
	ChunkSize int // bytes per ranged request; <= 0 selects DefaultChunkSize
	Window    int // in-flight chunks per transfer; <= 0 selects DefaultWindow
	// Evict, when set, reports a holder the transfer gave up on: hard means
	// a transport failure (purge every hint at that address), soft a
	// not-holder refusal (purge just this name's hint there).
	Evict func(name, addr string, hard bool)
	// Replica marks every ranged fetch as a replication transfer
	// (msg.FlagReplica): the serving holder answers from Peek instead of
	// Get, so a peer pulling a body for placement or notify propagation
	// does not inflate the file's §6 access count the way a client read
	// would.
	Replica bool
}

// Stats counts a fetcher's traffic with atomic counters.
type Stats struct {
	// Transfers counts completed chunked fetches; ChunksFetched the ranged
	// requests that returned a verified chunk; ChunkRetries ranges that had
	// to move to another replica after a failure or refusal.
	Transfers     atomic.Uint64
	ChunksFetched atomic.Uint64
	ChunkRetries  atomic.Uint64
	// ChecksummedBytes counts body bytes a CRC-32C pass ran over: one per
	// byte received, whatever a transfer's size.
	ChecksummedBytes atomic.Uint64
	// InFlight gauges transfers currently being assembled; StripeWidth is
	// the number of distinct replicas the most recent transfer actually
	// fetched from.
	InFlight    atomic.Int64
	StripeWidth atomic.Int64
}

// Fetcher runs chunked striped fetches over one transport. Safe for
// concurrent use.
type Fetcher struct {
	tr    Doer
	cfg   Config
	stats Stats
}

// New returns a Fetcher issuing requests through tr.
func New(tr Doer, cfg Config) *Fetcher {
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = DefaultChunkSize
	}
	if cfg.ChunkSize > msg.MaxChunkBytes {
		cfg.ChunkSize = msg.MaxChunkBytes
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	return &Fetcher{tr: tr, cfg: cfg}
}

// Stats exposes the fetcher's counters.
func (f *Fetcher) Stats() *Stats { return &f.stats }

// maxSources bounds the replica set one transfer stripes across — a
// locate-set answer's bound; sources past it are not tried.
const maxSources = msg.MaxHolders

// transfer is the per-fetch state shared by the chunk workers. A transfer
// lives on FetchBody's stack until its head chunk is in, and moves to the
// heap (onHeap) only when body ranges are left for workers to share: a
// single-chunk transfer allocates nothing of its own. Until then it does
// not hold the caller's sources either — headChunk is handed them — so the
// caller's slice stays where the caller put it.
type transfer struct {
	f       *Fetcher
	name    string
	version uint64        // pinned after the head chunk
	sources []Source      // the transfer's own copy, once on the heap
	dead    atomic.Uint64 // bit i: source i hard-failed or refused this transfer
	used    atomic.Uint64 // bit i: source i served at least one chunk
	next    atomic.Uint64 // round-robin stripe cursor
	gone    atomic.Bool   // a holder reported the pinned version superseded
	// buf is the reassembly buffer of a multi-chunk transfer, sized by the
	// head chunk before any body range runs, and ref the transfer's
	// reference to it (msg.NewBody); the workers fill disjoint ranges of it.
	// A completed transfer hands ref to its caller, a failed one ends it
	// once no worker is left to write.
	buf []byte
	ref *msg.Ref
}

// onHeap is the transfer moved to the heap for the body ranges' workers,
// with a private copy of sources.
func (t *transfer) onHeap(sources []Source) *transfer {
	h := &transfer{f: t.f, name: t.name, version: t.version, sources: slices.Clone(sources), buf: t.buf, ref: t.ref}
	h.dead.Store(t.dead.Load())
	h.used.Store(t.used.Load())
	h.next.Store(t.next.Load())
	h.gone.Store(t.gone.Load())
	return h
}

// mark sets source i's bit in set.
func mark(set *atomic.Uint64, i int) {
	for {
		old := set.Load()
		if set.CompareAndSwap(old, old|1<<i) {
			return
		}
	}
}

// isDead reports whether source i was given up on this transfer.
func (t *transfer) isDead(i int) bool { return t.dead.Load()&(1<<i) != 0 }

// evict reports a holder the transfer dropped, source i at addr, if the
// caller cares.
func (t *transfer) evict(i int, addr string, hard bool) {
	mark(&t.dead, i)
	if t.f.cfg.Evict != nil {
		t.f.cfg.Evict(t.name, addr, hard)
	}
}

// fetchRange performs one ranged request against the source at addr, returning the
// decoded chunk — not yet verified, land does that — and the response that
// owns its bytes: Chunk points into the response (msg.DecodeFetchAnswer;
// resp.Version is the version the holder served). A failed range releases
// its own response.
func (t *transfer) fetchRange(addr string, offset uint64, length uint32) (msg.FetchResp, msg.Response, error) {
	data, err := msg.AppendFetchReq(nil, msg.FetchReq{Offset: offset, Length: length})
	if err != nil {
		return msg.FetchResp{}, msg.Response{}, err
	}
	var flags uint8
	if t.f.cfg.Replica {
		flags = msg.FlagReplica
	}
	resp, err := t.f.tr.Exchange(addr, msg.Request{
		Kind: msg.KindFetch, Name: t.name, Version: t.version, Flags: flags, Data: data,
	}, 0)
	if err != nil {
		return msg.FetchResp{}, msg.Response{}, err
	}
	if !resp.OK {
		resp.Release()
		return msg.FetchResp{}, msg.Response{}, errors.New(resp.Err)
	}
	fr, err := msg.DecodeFetchAnswer(&resp)
	if err != nil {
		resp.Release()
		return msg.FetchResp{}, msg.Response{}, err
	}
	return fr, resp, nil
}

// land moves a decoded range to where the transfer keeps it and checksums it
// there, once, against the chunk CRC the holder sent. A head chunk that is
// the whole body stays where it was read, which Fetch's caller ends up
// owning (kept); every other range is copied into the reassembly buffer —
// the head draws it from the free list (msg.NewBody), so a superseded body
// is the next one's buffer — and its frame released before the pass, so
// each byte Fetch returns was verified in the memory returned. fr.Chunk
// points at the verified bytes afterwards. A mismatch releases the frame if
// it was kept.
func (t *transfer) land(head bool, offset uint64, fr *msg.FetchResp, resp *msg.Response) (kept bool, err error) {
	kept = head && uint64(len(fr.Chunk)) == fr.TotalSize
	if !kept {
		if head && uint64(len(t.buf)) != fr.TotalSize {
			t.ref.Release() // a head retried elsewhere answered another size
			t.buf, t.ref = msg.NewBody(int(fr.TotalSize))
		}
		n := copy(t.buf[offset:], fr.Chunk)
		resp.Release()
		fr.Chunk = t.buf[offset : offset+uint64(n)]
	}
	t.f.stats.ChecksummedBytes.Add(uint64(len(fr.Chunk)))
	if crc32c.Sum(fr.Chunk) != fr.ChunkCRC {
		if kept {
			resp.Release()
		}
		return false, fmt.Errorf("stream: chunk at %d failed CRC", offset)
	}
	return kept, nil
}

// runRange fetches one body range into the reassembly buffer with
// retry-on-other-replica and returns its verified sum: starting at the
// stripe cursor's replica, every live source is tried at most once. A
// wrong-version refusal poisons the whole transfer (the pin is gone there;
// if it is gone everywhere the transfer fails version-gone) but still
// retries elsewhere — a lagging replica may simply not have caught up.
func (t *transfer) runRange(offset uint64, length uint32) (uint32, error) {
	n := len(t.sources)
	start := int(t.next.Add(1)-1) % n
	var lastErr error
	for k := 0; k < n; k++ {
		i := (start + k) % n
		if t.isDead(i) {
			continue
		}
		if k > 0 {
			t.f.stats.ChunkRetries.Add(1)
		}
		fr, resp, err := t.fetchRange(t.sources[i].Addr, offset, length)
		if err == nil {
			if total := uint64(len(t.buf)); fr.TotalSize != total || len(fr.Chunk) != int(length) {
				resp.Release()
				return 0, fmt.Errorf("stream: range at %d answered %d bytes of total %d, want %d of %d",
					offset, len(fr.Chunk), fr.TotalSize, length, total)
			}
			_, err = t.land(false, offset, &fr, &resp)
		}
		if err == nil {
			mark(&t.used, i)
			t.f.stats.ChunksFetched.Add(1)
			return fr.ChunkCRC, nil
		}
		lastErr = err
		switch err.Error() {
		case msg.WrongVersionError:
			t.gone.Store(true)
			mark(&t.dead, i)
		case msg.NotHolderError:
			t.evict(i, t.sources[i].Addr, false)
		default:
			t.evict(i, t.sources[i].Addr, true)
		}
	}
	if lastErr == nil {
		lastErr = ErrVersionGone
	}
	return 0, lastErr
}

// Fetch retrieves name from the replica set in sources, chunking and
// striping as needed, and returns the reassembled payload with the version
// served. pin 0 accepts whatever version the head chunk answers (the usual
// read); a non-zero pin demands exactly that version. Only the first
// msg.MaxHolders sources are tried.
//
// The error classifies the failure: ErrNotFound (stale hint set;
// re-locate), ErrVersionGone (concurrent write; re-locate and retry),
// ErrChecksum, or the last error when every replica failed.
//
// A multi-chunk transfer copies each chunk into a reassembly buffer drawn
// from the free list (msg.NewBody) and releases the chunk's frame buffer
// for the next one; a single-chunk transfer hands the caller the chunk
// where it was read — the returned slice is the chunk's own allocation, or
// points into the frame buffer of a chunk over 64 KiB. The caller owns
// either buffer: Fetch drops the reference that would give it back
// (FetchBody hands it over), so the collector reclaims it. Fetch keeps
// nothing of sources once it returns.
func (f *Fetcher) Fetch(name string, pin uint64, sources []Source) ([]byte, uint64, error) {
	b, err := f.FetchBody(name, pin, sources)
	return b.Data, b.Version, err
}

// A Body is what FetchBody returns: the payload, the version served, the
// payload's CRC-32C — the sum the transfer verified the bytes against, so a
// caller holding a sum of its own (a notify's) compares two numbers instead
// of passing over the payload again — and, when Data is a single chunk read
// off a frame over 64 KiB or a multi-chunk reassembly buffer, the caller's
// reference to that buffer (msg.Ref; nil otherwise). A caller that keeps
// Data hands Ref on to the keeper (store.File.Ref) and ends its own once
// done; one that never ends it leaves the buffer to the collector.
type Body struct {
	Data    []byte
	Version uint64
	Sum     uint32
	Ref     *msg.Ref
}

// FetchBody is Fetch returning a Body.
func (f *Fetcher) FetchBody(name string, pin uint64, sources []Source) (Body, error) {
	if len(sources) == 0 {
		return Body{}, ErrNotFound
	}
	sources = sources[:min(len(sources), maxSources)]
	f.stats.InFlight.Add(1)
	defer f.stats.InFlight.Add(-1)
	t := transfer{f: f, name: name, version: pin}

	// Head chunk first, alone: it pins the version, total size and
	// whole-file CRC the rest of the transfer is verified against.
	head, headResp, kept, err := t.headChunk(sources)
	if err != nil {
		t.ref.Release() // a head that opened the reassembly buffer failed its CRC
		return Body{}, err
	}
	return t.finish(head, &headResp, kept, sources)
}

// FetchRest completes a transfer whose head chunk arrived another way: the
// first chunk of a get's head answer (msg.GetHead), at version, which
// resp owns. The chunk is landed and verified as a fetched head is, resp
// released once it no longer holds the returned bytes, and every later
// range fetched pinned to version and striped over sources, as FetchBody
// fetches them. Only the first msg.MaxHolders sources are tried.
func (f *Fetcher) FetchRest(name string, version uint64, head msg.FetchResp, resp *msg.Response, sources []Source) (Body, error) {
	if len(sources) == 0 {
		resp.Release()
		return Body{}, ErrNotFound
	}
	sources = sources[:min(len(sources), maxSources)]
	f.stats.InFlight.Add(1)
	defer f.stats.InFlight.Add(-1)
	t := transfer{f: f, name: name, version: version}
	kept, err := t.land(true, 0, &head, resp)
	if err != nil {
		t.ref.Release()
		return Body{}, err
	}
	return t.finish(head, resp, kept, sources)
}

// finish completes a transfer whose head is landed and verified: a head
// that is the whole body (kept) must carry the whole-file sum and is handed
// to the caller with headResp's reference to it; otherwise the body ranges
// are fetched into the reassembly buffer the head opened.
func (t *transfer) finish(head msg.FetchResp, headResp *msg.Response, kept bool, sources []Source) (Body, error) {
	if !kept {
		return t.onHeap(sources).body(head)
	}
	// Single-chunk transfer: the chunk CRC land verified covered every
	// byte of the file, so the file CRC must simply equal it.
	if head.ChunkCRC != head.FileCRC {
		headResp.Release()
		return Body{}, ErrChecksum
	}
	t.f.noteDone(t)
	ref := headResp.Keep() // the caller's, where the response's ends
	headResp.Release()
	return Body{Data: head.Chunk, Version: t.version, Sum: head.FileCRC, Ref: ref}, nil
}

// body fetches every range after the head chunk into the reassembly
// buffer and checks the whole-file sum; FetchBody's multi-chunk half.
func (t *transfer) body(head msg.FetchResp) (Body, error) {
	f := t.f
	total := head.TotalSize
	chunk := uint64(f.cfg.ChunkSize)
	type rng struct {
		off uint64
		ln  uint32
		sum uint32 // verified by the worker that landed the range
	}
	var ranges []rng
	for off := uint64(len(head.Chunk)); off < total; off += chunk {
		ln := chunk
		if off+ln > total {
			ln = total - off
		}
		ranges = append(ranges, rng{off: off, ln: uint32(ln)})
	}

	// Bounded in-flight window: Window workers drain the range list, each
	// chunk an independent pipelined frame striped across the live sources.
	workers := f.cfg.Window
	if len(ranges) < workers {
		workers = len(ranges)
	}
	var (
		wg      sync.WaitGroup
		cursor  atomic.Uint64
		failErr error
		failMu  sync.Mutex
		failed  atomic.Bool
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(cursor.Add(1) - 1)
				if i >= len(ranges) {
					return
				}
				sum, err := t.runRange(ranges[i].off, ranges[i].ln)
				if err != nil {
					failMu.Lock()
					if failErr == nil {
						failErr = err
					}
					failMu.Unlock()
					failed.Store(true)
					return
				}
				ranges[i].sum = sum
			}
		}()
	}
	wg.Wait()
	if failErr != nil {
		t.ref.Release() // no worker is left to write into buf
		if t.gone.Load() && (failErr.Error() == msg.WrongVersionError || allDead(t)) {
			return Body{}, ErrVersionGone
		}
		return Body{}, failErr
	}
	// Every byte of buf was checksummed where it lies; the whole-file gate is
	// the combination of those sums, in offset order, against the head's.
	sum := head.ChunkCRC
	for _, r := range ranges {
		sum = crc32c.Combine(sum, r.sum, uint64(r.ln))
	}
	if sum != head.FileCRC {
		t.ref.Release()
		return Body{}, ErrChecksum
	}
	f.noteDone(t)
	return Body{Data: t.buf, Version: t.version, Sum: sum, Ref: t.ref}, nil
}

// headChunk fetches offset 0 from the first willing source, pinning the
// transfer's version. Classification differs from body ranges: a set that
// is entirely not-holder is ErrNotFound (re-locate); a wrong-version
// refusal under a caller pin is ErrVersionGone. The head comes back landed
// and verified: kept, with the response that owns its bytes, when it is
// the whole body; not kept when it opens the reassembly buffer (land).
func (t *transfer) headChunk(sources []Source) (msg.FetchResp, msg.Response, bool, error) {
	n := len(sources)
	start := int(t.next.Add(1)-1) % n
	var sawHolderErr, sawMiss bool
	var lastErr error
	for k := 0; k < n; k++ {
		i := (start + k) % n
		fr, resp, err := t.fetchRange(sources[i].Addr, 0, uint32(t.f.cfg.ChunkSize))
		if err == nil {
			var kept bool
			if kept, err = t.land(true, 0, &fr, &resp); err == nil {
				// Pin: zero-pin callers adopt the head's version; every body
				// range (and head retries against other replicas under a
				// caller pin) must match it exactly.
				if t.version == 0 {
					t.version = resp.Version
				}
				mark(&t.used, i)
				t.f.stats.ChunksFetched.Add(1)
				return fr, resp, kept, nil
			}
		}
		if k > 0 {
			t.f.stats.ChunkRetries.Add(1)
		}
		lastErr = err
		switch err.Error() {
		case msg.WrongVersionError:
			t.gone.Store(true)
			sawHolderErr = true
			mark(&t.dead, i)
		case msg.NotHolderError:
			sawMiss = true
			t.evict(i, sources[i].Addr, false)
		default:
			sawHolderErr = true
			t.evict(i, sources[i].Addr, true)
		}
	}
	switch {
	case t.gone.Load():
		return msg.FetchResp{}, msg.Response{}, false, ErrVersionGone
	case sawMiss && !sawHolderErr:
		return msg.FetchResp{}, msg.Response{}, false, ErrNotFound
	}
	return msg.FetchResp{}, msg.Response{}, false, fmt.Errorf("stream: head chunk failed at every replica: %w", lastErr)
}

// allDead reports whether every source was marked dead this transfer.
func allDead(t *transfer) bool {
	return bits.OnesCount64(t.dead.Load()) == len(t.sources)
}

// noteDone finalizes a successful transfer's stats.
func (f *Fetcher) noteDone(t *transfer) {
	f.stats.Transfers.Add(1)
	f.stats.StripeWidth.Store(int64(bits.OnesCount64(t.used.Load())))
}
