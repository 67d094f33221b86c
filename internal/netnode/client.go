package netnode

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"lesslog/internal/bitops"
	"lesslog/internal/hashring"
	"lesslog/internal/liveness"
	"lesslog/internal/metrics"
	"lesslog/internal/msg"
	"lesslog/internal/ptree"
	"lesslog/internal/routehint"
	"lesslog/internal/stream"
	"lesslog/internal/tracering"
	"lesslog/internal/transport"
)

// ErrFault is returned by Client operations when no copy of the file could
// be located — the paper's "fault".
var ErrFault = errors.New("netnode: file not found (fault)")

// ErrTooLarge rejects a write whose payload exceeds the system-wide file
// size cap (msg.MaxFileSize, 64 MiB). Caught at the client edge so the
// caller gets a typed, actionable error instead of a mid-stream failure
// after the bytes already started moving.
var ErrTooLarge = errors.New("netnode: payload exceeds the write size cap")

// errNextRung is a read rung's "resolve another way": the set it tried was
// stale, dead, raced a write, or answered below the caller's floor.
var errNextRung = errors.New("netnode: rung could not serve the read")

// maxEntryAttempts bounds how many entry peers one exchange tries.
const maxEntryAttempts = 4

// Client issues file operations against a networked LessLog system: the
// one implementation of the read and write ladders (docs/ROUTING.md "The
// ladder"), used bare by tools and wrapped by gateway.Gateway. The zero
// value is unusable; construct with NewClient or NewClientWith — or
// NewLocateClient for the locate-then-fetch data plane.
type Client struct {
	tr *transport.Transport

	// Entry peers: requests that enter the fabric through the lookup tree
	// (locates, relay gets, hint-less writes, pass-through kinds) go to the
	// next one round-robin, skipping peers det marks down, and report their
	// outcome to det. One address and a nil det for a plain tool client.
	peers  []string
	det    *transport.Detector
	cursor atomic.Uint64

	// hints caches name → replica set in locate mode (nil for a plain,
	// relay-only client); fetcher stripes ranged chunk fetches across a set:
	// every read of a locate client, and the rest of a body past one frame
	// after a get's head.
	hints   *routehint.Cache
	fetcher *stream.Fetcher
	// uploader streams payloads over one frame to a peer as a staged
	// upload that commits into the normal insert/update path there.
	uploader *stream.Uploader
	// Locate mode also places inserts: snap is one entry peer's table
	// (KindTable), from which insertEntry names the primary an insert
	// enters at. nil until an insert fetches it, and again once it proves
	// stale; snapMu makes concurrent inserts share one fetch.
	snap   atomic.Pointer[placement]
	snapMu sync.Mutex
	stats  LocateStats
}

// placement is a locate client's snapshot of the fabric: the shape and
// status word an insert's primaries follow from (§4, §5). A nil live
// means the fabric does not hash with hashring.Default, so the client
// cannot name a target and inserts keep round-robin entry.
type placement struct {
	m, b  int
	live  *liveness.Set
	addrs map[bitops.PID]string
}

// LocateStats counts the ladder's events — once, here, for every consumer
// (the gateway's snapshot and /metrics read these same variables).
type LocateStats struct {
	HintHits  metrics.AtomicCounter // gets served off a cached replica-set hint
	HintStale metrics.AtomicCounter // cached hints that failed and were invalidated
	Locates   metrics.AtomicCounter // locate-set RPCs issued
	Relays    metrics.AtomicCounter // gets that fell to the relay rung

	ChunkedGets     metrics.AtomicCounter // striped chunk transfers completed
	OversizeRejects metrics.AtomicCounter // writes rejected at the edge for exceeding the size cap

	HintRefreshes metrics.AtomicCounter // update acks that refreshed the entry hint in place
	ChunkedPuts   metrics.AtomicCounter // writes streamed through the staged put plane

	FetchErrors metrics.AtomicCounter // entry exchanges and chunk transfers that failed outright
}

// LocateOptions configure a locate-mode client.
type LocateOptions struct {
	// Hints is the route-hint cache; nil gives the client a private cache
	// with routehint defaults. Pass a shared cache to pool hints across
	// clients of the same fabric.
	Hints *routehint.Cache
	// ChunkSize and ChunkWindow tune the striped chunk plane (bytes per
	// ranged fetch, in-flight chunks per transfer); <= 0 selects the
	// stream package defaults.
	ChunkSize   int
	ChunkWindow int
}

// NewClient returns a client that contacts the peer at addr through the
// package default transport: deadlines, idempotent retries and pooled
// streams.
func NewClient(addr string) *Client { return NewClientWith(addr, defaultTransport()) }

// NewClientWith returns a client that contacts the peer at addr through
// tr — e.g. a pooled transport shared across many clients, or one with a
// fault-injection table for tests.
func NewClientWith(addr string, tr *transport.Transport) *Client {
	return &Client{tr: tr, peers: []string{addr},
		fetcher: stream.New(tr, stream.Config{}), uploader: stream.NewUploader(tr, stream.Config{})}
}

// NewLocateClient returns a client whose gets use the locate-then-fetch
// data plane with default options and the default transport.
func NewLocateClient(addr string) *Client {
	return NewLocateClientWith(addr, defaultTransport(), LocateOptions{})
}

// NewLocateClientWith returns a locate-mode client entering the fabric at
// addr over tr. Gets consult the route-hint cache and fetch ranged chunks
// directly at the holders; misses pay one locate-set walk.
func NewLocateClientWith(addr string, tr *transport.Transport, opts LocateOptions) *Client {
	return NewLocateClientOver([]string{addr}, nil, tr, opts)
}

// NewLocateClientOver returns a locate-mode client entering the fabric
// through a set of entry peers: entry exchanges round-robin over peers,
// skip the ones det marks down, and report every outcome to det by peer
// index (det may be nil: every peer is always tried).
func NewLocateClientOver(peers []string, det *transport.Detector, tr *transport.Transport, opts LocateOptions) *Client {
	hints := opts.Hints
	if hints == nil {
		hints = routehint.New(0, 0)
	}
	scfg := stream.Config{ChunkSize: opts.ChunkSize, Window: opts.ChunkWindow}
	c := &Client{
		tr: tr, peers: peers, det: det, hints: hints,
		uploader: stream.NewUploader(tr, scfg),
	}
	// A transport-dead holder loses every hint it appears in; a
	// not-holder refusal only loses this name's hint there.
	scfg.Evict = func(name, addr string, hard bool) {
		if hard {
			hints.PurgeHolder(addr)
		} else {
			hints.PurgeFrom(name, addr)
		}
	}
	c.fetcher = stream.New(tr, scfg)
	return c
}

// LocateStats returns the client's ladder counters; zero-valued (and
// static) unless the client is in locate mode.
func (c *Client) LocateStats() *LocateStats { return &c.stats }

// StreamStats exposes the chunk plane's transfer counters.
func (c *Client) StreamStats() *stream.Stats { return c.fetcher.Stats() }

// UploadStats exposes the staged put plane's counters.
func (c *Client) UploadStats() *stream.UploadStats { return c.uploader.Stats() }

// HintLen returns the number of cached route hints (0 outside locate mode).
func (c *Client) HintLen() int {
	if c.hints == nil {
		return 0
	}
	return c.hints.Len()
}

// PurgeHolder drops every route hint pointing at addr, and the placement
// snapshot if addr is in it — for a caller whose failure detector learns a
// peer is dead before the ladder trips over it.
func (c *Client) PurgeHolder(addr string) {
	if c.hints == nil {
		return
	}
	c.hints.PurgeHolder(addr)
	if pl := c.snap.Load(); pl != nil {
		for _, a := range pl.addrs {
			if a == addr {
				c.snap.CompareAndSwap(pl, nil)
				break
			}
		}
	}
}

// pick selects the next entry peer round-robin, skipping peers the
// detector currently marks down. With every peer down it fails open — the
// attempt doubles as the recovery probe that lets the detector heal.
func (c *Client) pick() int {
	n := len(c.peers)
	if n == 1 {
		return 0
	}
	start := int(c.cursor.Add(1) % uint64(n))
	for i := 0; i < n; i++ {
		idx := (start + i) % n
		if c.det == nil || !c.det.Down(uint32(idx)) {
			return idx
		}
	}
	return start
}

// report feeds one entry exchange's transport outcome to the detector.
func (c *Client) report(idx int, err error) {
	if err != nil {
		c.stats.FetchErrors.Inc()
	}
	if c.det != nil {
		c.det.Observe(uint32(idx), err)
	}
}

// Do passes req to an entry peer and returns its answer untouched — the
// ladder's own entry exchanges, and the pass-through for kinds it does not
// interpose. With failover a transport failure moves on to the next entry
// peer; set it only for requests that are safe to repeat.
func (c *Client) Do(req *msg.Request, failover bool) (*msg.Response, error) {
	resp, _, err := c.do(req, failover)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// do is Do by value, for the ladder's rungs that read the answer and move
// on (transport.Exchange); it also names the entry peer that answered.
func (c *Client) do(req *msg.Request, failover bool) (msg.Response, string, error) {
	attempts := 1
	if failover {
		attempts = min(len(c.peers), maxEntryAttempts)
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		idx := c.pick()
		resp, err := c.tr.Exchange(c.peers[idx], *req, 0)
		c.report(idx, err)
		if err == nil {
			return resp, c.peers[idx], nil
		}
		lastErr = err
	}
	return msg.Response{}, "", lastErr
}

// GetResult reports how a networked get was served.
type GetResult struct {
	Data     []byte
	Version  uint64
	ServedBy uint32
	Hops     int
	// Path is the observed wire-level route of a traced get (GetTraced):
	// one Hop per stop, the serving node last. Nil for untraced gets.
	Path []msg.Hop
}

// Get fetches a file, reporting which peer served it and the hop count.
// In locate mode the payload travels direct hops from the holders whenever
// a hint or locate-set resolves them; otherwise it relays back through the
// lookup path — a body past one frame as its head, the rest fetched from
// the holders the head names.
func (c *Client) Get(name string) (GetResult, error) { return c.GetAtLeast(name, 0) }

// GetAtLeast is Get for a caller that has seen version minVer
// acknowledged: a rung that answers below it is treated like a stale hint —
// purged, and the next rung tried. Only the last rung's answer can come
// back older than minVer; the caller owns that final check.
func (c *Client) GetAtLeast(name string, minVer uint64) (GetResult, error) {
	if c.hints == nil {
		return c.relay(&msg.Request{Kind: msg.KindGet, Name: name})
	}
	return c.read(name, minVer)
}

// GetTraced fetches a file with route tracing: every peer the request
// visits appends a hop record, and the result's Path holds the actual
// route — the live counterpart of internal/trace.Route's prediction. A
// failed traced get returns the partial Path alongside the error, ending
// in the fault hop. It is a traced relay in every mode: a locate walk takes
// the same hops, so the relay's path is the route.
func (c *Client) GetTraced(name string) (GetResult, error) {
	return c.relay(&msg.Request{
		Kind: msg.KindGet, Flags: msg.FlagTrace,
		Name: name, TraceID: rand.Uint64(),
	})
}

// read is the read ladder, top rung first:
//
//  1. hinted replica set → striped chunk fetch;
//  2. locate-set walk → chunk fetch, re-locating once when a concurrent
//     write moves the pinned version mid-transfer;
//  3. relay get through the lookup tree.
//
// A clean locate fault is final — the relay walk would visit the same tree
// and find the same nothing.
func (c *Client) read(name string, minVer uint64) (GetResult, error) {
	if set, ok := c.hints.GetSet(name); ok {
		var buf [stripeSources]stream.Source
		if res, err := c.chunkFetch(name, sourcesOf(buf[:0], set), minVer); err == nil {
			c.stats.HintHits.Inc()
			return res, nil
		}
		c.stats.HintStale.Inc()
	}
	res, err := c.locateFetch(name, minVer)
	if !errors.Is(err, errNextRung) {
		return res, err
	}
	// The set resolved but no replica could serve the transfer (churn,
	// faults mid-stripe): relay this get and let the next one re-locate.
	c.stats.Relays.Inc()
	return c.relay(&msg.Request{Kind: msg.KindGet, Name: name})
}

// locateFetch is the ladder's cold rung: one locate-set walk resolves the
// name to its replica set, the set is cached, and the payload is fetched
// chunked and striped. errNextRung means the set resolved but could not
// serve the read.
func (c *Client) locateFetch(name string, minVer uint64) (GetResult, error) {
	for attempt := 0; attempt < 2; attempt++ {
		loc, set, err := c.locate(name, 0)
		if err != nil {
			return GetResult{Hops: loc.Hops}, err
		}
		// The cache owns set from here on (PutSet), so the sources are
		// taken from it first.
		var buf [stripeSources]stream.Source
		srcs := sourcesOf(buf[:0], set)
		c.hints.PutSet(name, set)
		res, err := c.chunkFetch(name, srcs, minVer)
		if err == nil {
			return res, nil
		}
		if !errors.Is(err, stream.ErrVersionGone) {
			break
		}
		// A write raced the transfer; the new version's set may differ.
	}
	return GetResult{}, errNextRung
}

// stripeSources sizes the stack buffer a read's fetch sources are built
// in: 2^b copies of a name, with room to spare; a larger set spills to the
// heap.
const stripeSources = 8

// sourcesOf appends a hint set's holders to dst as fetch sources.
func sourcesOf(dst []stream.Source, set []routehint.Hint) []stream.Source {
	for _, h := range set {
		dst = append(dst, stream.Source{PID: h.PID, Addr: h.Addr})
	}
	return dst
}

// chunkFetch runs one striped chunked transfer across a replica set, srcs
// (never empty). Holders that refuse or are unreachable were already purged
// by the fetcher's evict callback; a transfer that completes below minVer
// purges the name's whole set — every holder in it runs behind a write the
// caller has seen acknowledged.
func (c *Client) chunkFetch(name string, srcs []stream.Source, minVer uint64) (GetResult, error) {
	data, ver, err := c.fetcher.Fetch(name, 0, srcs)
	if err != nil {
		if !errors.Is(err, stream.ErrNotFound) && !errors.Is(err, stream.ErrVersionGone) {
			c.stats.FetchErrors.Inc()
		}
		return GetResult{}, err
	}
	c.stats.ChunkedGets.Inc()
	if ver < minVer {
		c.hints.Purge(name)
		return GetResult{}, errNextRung
	}
	// A striped transfer has no single server; report the set's primary
	// (the holder the locate walk reached) as the representative.
	return GetResult{Data: data, Version: ver, ServedBy: srcs[0].PID}, nil
}

// maxGetAttempts bounds how often one get is sent again because a write
// moved the body on between its head and the rest.
const maxGetAttempts = 2

// relay is the get through the lookup tree — a plain client's only read,
// every traced get, and the ladder's last rung.
func (c *Client) relay(req *msg.Request) (GetResult, error) {
	for attempt := 1; ; attempt++ {
		resp, entry, err := c.do(req, true)
		if err != nil {
			return GetResult{}, err
		}
		res, err := c.getAnswer(req.Name, &resp, entry)
		if !errors.Is(err, stream.ErrVersionGone) || attempt == maxGetAttempts {
			return res, err
		}
	}
}

// getAnswer reads a get's answer, sent to entry: the body whole, or — for a
// body past one frame — its head (msg.GetHead), the rest fetched with
// ranges pinned to the head's version, striped over the holders it names
// (one named without an address is entry). A refusal is ErrFault, and
// still carries the hops and traced path walked so far, so the operator
// sees where routing died.
func (c *Client) getAnswer(name string, resp *msg.Response, entry string) (GetResult, error) {
	res := GetResult{Hops: int(resp.Hops), Path: resp.Path}
	if !resp.OK {
		return res, faultError(name, resp.Err)
	}
	res.Version, res.ServedBy = resp.Version, resp.ServedBy
	if !resp.Head {
		res.Data = resp.Data
		return res, nil
	}
	h, err := msg.DecodeGetHead(resp)
	if err != nil {
		resp.Release()
		return res, fmt.Errorf("netnode: get %q: head answer: %w", name, err)
	}
	var buf [stripeSources]stream.Source
	srcs := buf[:0]
	for _, hd := range h.Holders {
		addr := hd.Addr
		if addr == "" {
			addr = entry
		}
		srcs = append(srcs, stream.Source{PID: hd.PID, Addr: addr})
	}
	body, err := c.fetcher.FetchRest(name, resp.Version, h.First, resp, srcs)
	if err != nil {
		return res, fmt.Errorf("netnode: get %q past its head: %w", name, err)
	}
	res.Data = body.Data
	return res, nil
}

// FetchRange passes a ranged fetch on to a holder of its name, for an edge
// that answered a get with a body's head and now serves the rest: the
// holders of the cached hint set — else of one locate walk, cached — are
// asked in turn until one serves the range. A holder that cannot be
// reached, or no longer holds the name, leaves the hint set; when none
// serves the range, the last one's refusal or transport error is the
// answer. A plain client keeps no hint set and names no holder: it answers
// ErrNotHolder.
func (c *Client) FetchRange(req *msg.Request) (*msg.Response, error) {
	notHolder := &msg.Response{Err: ErrNotHolder}
	if c.hints == nil {
		return notHolder, nil
	}
	set, ok := c.hints.GetSet(req.Name)
	if !ok {
		_, fresh, err := c.locate(req.Name, 0)
		if err != nil {
			return notHolder, nil
		}
		set = fresh
		c.hints.PutSet(req.Name, set)
	}
	var lastErr error
	for _, h := range set {
		resp, err := c.tr.Exchange(h.Addr, *req, 0)
		switch {
		case err != nil:
			c.PurgeHolder(h.Addr)
			lastErr = err
		case resp.OK:
			return &resp, nil
		default:
			if resp.Err == ErrNotHolder {
				c.hints.PurgeFrom(req.Name, h.Addr)
			}
			notHolder, lastErr = &resp, nil
		}
	}
	if lastErr != nil {
		return nil, lastErr
	}
	return notHolder, nil
}

// faultError is ErrFault for name, with the peer's reason when it says more
// than that: a forward that failed, naming the hop and why — a peer of
// another epoch among them.
func faultError(name, reason string) error {
	if reason == "" || reason == ErrFault.Error() {
		return fmt.Errorf("%w: %s", ErrFault, name)
	}
	return fmt.Errorf("%w: %s: %s", ErrFault, name, reason)
}

// LocateResult reports where a file lives: the serving holder's identity
// and the copy version it held at locate time.
type LocateResult struct {
	PID     uint32
	Addr    string
	Version uint64
	Hops    int
	// Path is the observed locate route (LocateTraced), the holder's
	// locate hop last. Nil for untraced locates.
	Path []msg.Hop
}

// Locate resolves name to its serving holder without moving the payload.
func (c *Client) Locate(name string) (LocateResult, error) {
	loc, _, err := c.locate(name, 0)
	return loc, err
}

// LocateTraced resolves name with route tracing; the result's Path is the
// locate walk, one hop per stop.
func (c *Client) LocateTraced(name string) (LocateResult, error) {
	loc, _, err := c.locate(name, rand.Uint64())
	return loc, err
}

// locate is the one locate walk, traced under traceID unless it is 0: a
// KindLocateSet through an entry peer, answered by the first holder the
// lookup tree reaches with the name's replica set, itself first. loc
// describes that holder (set[0]); a fault still carries the hops and the
// traced path walked. An answer that does not decode is errNextRung. The
// answer is decoded once, straight into set, which is the caller's to keep
// or hand to the hint cache.
func (c *Client) locate(name string, traceID uint64) (loc LocateResult, set []routehint.Hint, err error) {
	req := &msg.Request{Kind: msg.KindLocateSet, Name: name, TraceID: traceID}
	if traceID != 0 {
		req.Flags = msg.FlagTrace
	}
	c.stats.Locates.Inc()
	resp, _, err := c.do(req, true)
	if err != nil {
		return loc, nil, err
	}
	loc = LocateResult{Hops: int(resp.Hops), Path: resp.Path}
	if !resp.OK {
		return loc, nil, faultError(name, resp.Err)
	}
	if set, err = c.snap.Load().hintSet(resp.Data); err != nil {
		c.stats.FetchErrors.Inc()
		return loc, nil, fmt.Errorf("%w: locate-set answer: %v", errNextRung, err)
	}
	loc.PID, loc.Addr, loc.Version = set[0].PID, set[0].Addr, set[0].Version
	return loc, set, nil
}

// Insert stores a file in the system. Payloads over one wire frame
// (msg.MaxData) stream to the peer the insert enters at (Write) as a staged
// chunked upload and commit into the normal insert path there; the hard
// cap is msg.MaxFileSize.
func (c *Client) Insert(name string, data []byte) error {
	_, err := c.Write(&msg.Request{Kind: msg.KindInsert, Name: name, Data: data})
	return err
}

// Update rewrites a file everywhere it is replicated. The returned count
// is the number of copies rewritten.
func (c *Client) Update(name string, data []byte) (int, error) {
	n, _, err := ack(c.Write(&msg.Request{Kind: msg.KindUpdate, Name: name, Data: data}))
	return n, err
}

// UpdateTraced rewrites a file everywhere with route tracing: the
// returned path is the assembled broadcast fan-out tree — the initiator's
// HopFanout root, one HopDeliver per holder reached, each hop carrying
// its parent's PID.
func (c *Client) UpdateTraced(name string, data []byte) (int, []msg.Hop, error) {
	return ack(c.Write(&msg.Request{
		Kind: msg.KindUpdate, Flags: msg.FlagTrace, TraceID: rand.Uint64(), Name: name, Data: data,
	}))
}

// Delete erases a file everywhere. The returned count is the number of
// copies removed.
func (c *Client) Delete(name string) (int, error) {
	n, _, err := ack(c.Write(&msg.Request{Kind: msg.KindDelete, Name: name}))
	return n, err
}

// DeleteTraced erases a file everywhere with route tracing; the returned
// path is the delete broadcast's fan-out tree, like UpdateTraced's.
func (c *Client) DeleteTraced(name string) (int, []msg.Hop, error) {
	return ack(c.Write(&msg.Request{
		Kind: msg.KindDelete, Flags: msg.FlagTrace, TraceID: rand.Uint64(), Name: name,
	}))
}

// ack unpacks a Write outcome into copies touched and the traced path (a
// refused traced write still carries the path walked).
func ack(resp *msg.Response, err error) (int, []msg.Hop, error) {
	if resp == nil {
		return 0, nil, err
	}
	if err != nil {
		return 0, resp.Path, err
	}
	return int(resp.Hops), resp.Path, nil
}

// Write is the write ladder: it runs one mutation — req.Kind insert,
// update or delete, with whatever trace section req carries — and returns
// the fabric's acknowledgement (Version stamped, Hops = copies touched).
// Updates and deletes enter at a holder when the hint cache, or one locate
// walk, can name one, so the broadcast skips the lookup hops the read path
// already eliminated; inserts enter at a primary when the placement
// snapshot can name one, so the body moves once per copy. Anything else,
// and a named peer that turns out unreachable, enters at an entry peer.
// Mutations are never blindly retried: a transport error from the entry
// peer means "outcome unknown".
// A refused write returns the refusal alongside the error.
func (c *Client) Write(req *msg.Request) (*msg.Response, error) {
	if len(req.Data) > msg.MaxFileSize {
		c.stats.OversizeRejects.Inc()
		return nil, fmt.Errorf("%w: %s %q is %d bytes, cap %d",
			ErrTooLarge, req.Kind, req.Name, len(req.Data), msg.MaxFileSize)
	}
	var resp *msg.Response
	var err error
	// direct is where the write belongs: a holder of the name for an update
	// or delete, a primary for an insert.
	hint := c.writeHint(req)
	direct := c.insertEntry(req)
	if hint != nil {
		direct = hint.Addr
	}
	if direct != "" {
		if resp, err = c.send(direct, req); err != nil {
			// The peer is unreachable (a staged upload it held times out
			// server-side): purge every hint at it and the snapshot that
			// named it, and give the mutation its one entry-peer attempt —
			// at another peer, when there is one.
			c.PurgeHolder(direct)
			hint = nil
		}
	}
	if direct == "" || err != nil {
		idx := c.pick()
		if len(c.peers) > 1 && c.peers[idx] == direct {
			idx = c.pick()
		}
		resp, err = c.send(c.peers[idx], req)
		c.report(idx, err)
	}
	if err != nil {
		c.purgeHint(req.Name)
		return nil, err
	}
	if !resp.OK {
		c.purgeHint(req.Name)
		return resp, fmt.Errorf("netnode: %s %q: %s", req.Kind, req.Name, resp.Err)
	}
	// An acked update that entered at a hinted holder refreshes that hint
	// in place with the acked version — the holder just applied the
	// broadcast, so the read-after-write path skips a locate. Every other
	// ack invalidates: the holder set or version moved in a way the client
	// cannot name, and a later get must not serve an older copy off a hint
	// than the acknowledged write produced.
	if req.Kind == msg.KindUpdate && hint != nil {
		c.hints.Put(req.Name, routehint.Hint{PID: hint.PID, Addr: hint.Addr, Version: resp.Version})
		c.stats.HintRefreshes.Inc()
	} else {
		c.purgeHint(req.Name)
	}
	return resp, nil
}

// send performs one write exchange at addr: a single frame, or — for a
// payload over one frame — a staged chunked upload committing into the
// kind's write path (a refused upload is an error, never a !OK answer).
func (c *Client) send(addr string, req *msg.Request) (*msg.Response, error) {
	if len(req.Data) <= msg.MaxData {
		return c.tr.Do(addr, req)
	}
	op := msg.PutInsert
	if req.Kind == msg.KindUpdate {
		op = msg.PutUpdate
	}
	resp, err := c.uploader.Put(addr, req.Name, req.Data, op)
	if err == nil {
		c.stats.ChunkedPuts.Inc()
	}
	return resp, err
}

// writeHint names a holder for an update or delete to enter at: the cached
// hint, else the holder one locate walk reaches, its whole set cached for
// the next write or read. nil — inserts, plain clients, unlocatable names
// (e.g. a first write racing the insert) — enters at an entry peer, where
// the write path resolves the name as it always has.
func (c *Client) writeHint(req *msg.Request) *routehint.Hint {
	if c.hints == nil || req.Kind == msg.KindInsert {
		return nil
	}
	if h, ok := c.hints.Get(req.Name); ok {
		return &h
	}
	_, set, err := c.locate(req.Name, 0)
	if err != nil {
		return nil
	}
	h := set[0]
	c.hints.PutSet(req.Name, set)
	return &h
}

// insertEntry names the peer an insert enters at: the first of its
// primaries, computed as handleInsert will compute them from the placement
// snapshot. "" — not an insert, a plain client, no snapshot, a fabric
// hashing with something else — enters at an entry peer. A stale snapshot
// costs only that peer's hop: the peer places from its own status word.
func (c *Client) insertEntry(req *msg.Request) string {
	if c.hints == nil || req.Kind != msg.KindInsert {
		return ""
	}
	pl := c.placement()
	if pl == nil || pl.live == nil {
		return ""
	}
	v := ptree.NewView(hashring.Default.Target(req.Name, pl.m), pl.live, pl.b)
	var buf [8]bitops.PID
	if prims := v.AppendPrimaries(buf[:0]); len(prims) > 0 {
		return pl.addrs[prims[0]]
	}
	return ""
}

// hintSet decodes a locate-set answer b straight into a hint set, the one
// slice it allocates, with addresses from pl where it has them (addr). pl
// may be nil: every address is then copied out of b.
func (pl *placement) hintSet(b []byte) ([]routehint.Hint, error) {
	return msg.DecodeHoldersFunc(b, func(pid uint32, addr []byte, version uint64) routehint.Hint {
		return routehint.Hint{PID: pid, Addr: pl.addr(pid, addr), Version: version}
	})
}

// addr returns holder pid's address as a string: the snapshot's own when it
// has pid at that address, so a locate answer naming known peers allocates
// no strings, a copy of addr otherwise (no snapshot, a peer that moved or
// joined since it was taken).
func (pl *placement) addr(pid uint32, addr []byte) string {
	if pl != nil {
		if a, ok := pl.addrs[bitops.PID(pid)]; ok && a == string(addr) {
			return a
		}
	}
	return string(addr)
}

// placement returns the snapshot, fetching it with one KindTable exchange
// if there is none. A transport failure leaves none, for the next insert
// to retry; an answer that does not decode is kept as a snapshot that
// places nothing, like a fabric with another hasher.
func (c *Client) placement() *placement {
	if pl := c.snap.Load(); pl != nil {
		return pl
	}
	c.snapMu.Lock()
	defer c.snapMu.Unlock()
	if pl := c.snap.Load(); pl != nil {
		return pl
	}
	resp, err := c.Do(&msg.Request{Kind: msg.KindTable}, true)
	if err != nil {
		return nil
	}
	pl := &placement{}
	if t, err := parseTable(resp.Data); err != nil {
		c.stats.FetchErrors.Inc()
	} else if t.defaultHash {
		pl = &placement{m: t.m, b: t.b, live: liveness.New(t.m), addrs: t.addrs}
		for q := range t.addrs {
			if !t.down[q] {
				pl.live.SetLive(q)
			}
		}
	}
	c.snap.Store(pl)
	return pl
}

// purgeHint invalidates name's route hint. No-op outside locate mode.
func (c *Client) purgeHint(name string) {
	if c.hints != nil {
		c.hints.Purge(name)
	}
}

// Store places a copy on the contacted peer as a peer places one that fits
// a frame; test and tooling hook for building replica layouts by hand.
func (c *Client) Store(name string, data []byte, version uint64, replica bool) error {
	facts, err := msg.AppendNotifyReq(nil, &msg.NotifyReq{TotalSize: uint64(len(data)), Body: data})
	if err != nil {
		return err
	}
	req := &msg.Request{Kind: msg.KindNotify, Name: name, Version: version, Data: facts, Tail: data}
	if replica {
		req.Flags = msg.FlagReplica
	}
	resp, err := c.Do(req, false)
	c.purgeHint(name)
	if err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("netnode: store %q: %s", name, resp.Err)
	}
	return nil
}

// Stat returns the contacted peer's one-line status summary.
func (c *Client) Stat() (string, error) {
	resp, err := c.Do(&msg.Request{Kind: msg.KindStat}, false)
	if err != nil {
		return "", err
	}
	return string(resp.Data), nil
}

// StatSnapshot returns the contacted peer's structured stats snapshot —
// the JSON form behind `lesslogd -op stat -json`.
func (c *Client) StatSnapshot() (StatSnapshot, error) {
	return c.statSnapshot(msg.FlagJSON)
}

// StatSnapshotFull returns the stats snapshot with the peer's full
// per-name inventory included — the fleet scraper's request shape
// (FlagInventory), too heavy for routine stat polls.
func (c *Client) StatSnapshotFull() (StatSnapshot, error) {
	return c.statSnapshot(msg.FlagJSON | msg.FlagInventory)
}

func (c *Client) statSnapshot(flags uint8) (StatSnapshot, error) {
	resp, err := c.Do(&msg.Request{Kind: msg.KindStat, Flags: flags}, false)
	if err != nil {
		return StatSnapshot{}, err
	}
	if !resp.OK {
		return StatSnapshot{}, fmt.Errorf("netnode: stat: %s", resp.Err)
	}
	var s StatSnapshot
	if err := json.Unmarshal(resp.Data, &s); err != nil {
		return StatSnapshot{}, fmt.Errorf("netnode: stat: decode snapshot: %w", err)
	}
	return s, nil
}

// Traces returns the contacted peer's sampled trace ring — the wire form
// of the admin endpoint's /traces page.
func (c *Client) Traces() (tracering.Snapshot, error) {
	resp, err := c.Do(&msg.Request{Kind: msg.KindTraces}, false)
	if err != nil {
		return tracering.Snapshot{}, err
	}
	if !resp.OK {
		return tracering.Snapshot{}, fmt.Errorf("netnode: traces: %s", resp.Err)
	}
	var s tracering.Snapshot
	if err := json.Unmarshal(resp.Data, &s); err != nil {
		return tracering.Snapshot{}, fmt.Errorf("netnode: traces: decode snapshot: %w", err)
	}
	return s, nil
}
