// Package transport is the fault-tolerant RPC layer under internal/netnode:
// every peer-to-peer and client-to-peer exchange of the networked LessLog
// deployment goes through a Transport instead of a bare net.Dial.
//
// The seed deployment assumed every socket succeeds — one dead or slow peer
// hung a get forever and the paper's §5 fallback routing never fired over
// the wire. A Transport fixes that with four mechanisms:
//
//   - deadlines: every dial and every request/response exchange is bounded
//     by Config.DialTimeout and Config.RPCTimeout, so a hung peer costs at
//     most one deadline, never forever;
//   - retries: idempotent requests (get, has, stat, table) are retried with
//     capped exponential backoff plus deterministic jitter (internal/xrand),
//     so transient drops heal without risking duplicate side effects;
//   - pooling: completed exchanges park their TCP stream in a per-address
//     idle pool and the next exchange reuses it, so forwarding hops and
//     update fan-out stop paying a TCP handshake per hop;
//   - fault injection: a Faults table can drop, delay, fail, or hang any
//     (address, kind) pair, so tests exercise crashes, partitions and
//     slowness deterministically, without real peers misbehaving.
//
// A companion Detector counts consecutive RPC failures per peer and flips
// liveness through callbacks — the failure-detector half of §5 that turns
// socket errors into status-word updates, making the expanded-children-list
// fallback fire over the network. The serving side's sockets are here too
// (Listen, Server, ServeLoop): no other package opens or accepts one.
package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"lesslog/internal/metrics"
	"lesslog/internal/msg"
	"lesslog/internal/xrand"
)

// Default knobs; see Config.
const (
	DefaultDialTimeout   = 2 * time.Second
	DefaultRPCTimeout    = 5 * time.Second
	DefaultRetries       = 2
	DefaultRetryBase     = 10 * time.Millisecond
	DefaultPoolSize      = 4
	DefaultFailThreshold = 3
)

// Config parameterizes a Transport. The zero value selects the defaults
// above.
type Config struct {
	DialTimeout time.Duration // bound on establishing a TCP connection
	RPCTimeout  time.Duration // bound on one full write+read exchange
	Retries     int           // extra attempts for idempotent requests; < 0 disables
	RetryBase   time.Duration // first backoff; doubles per retry, capped at 32×
	PoolSize    int           // streams kept per address; <= 0 selects DefaultPoolSize
	// FailThreshold is consumed by NewDetector callers: consecutive RPC
	// failures to one peer before it is declared down. Kept here so one
	// struct carries every robustness knob from flag parsing to wiring.
	FailThreshold int
	Seed          uint64 // backoff-jitter seed; same seed ⇒ same retry timing
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.DialTimeout == 0 {
		c.DialTimeout = DefaultDialTimeout
	}
	if c.RPCTimeout == 0 {
		c.RPCTimeout = DefaultRPCTimeout
	}
	if c.Retries == 0 {
		c.Retries = DefaultRetries
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	if c.RetryBase == 0 {
		c.RetryBase = DefaultRetryBase
	}
	if c.PoolSize <= 0 {
		c.PoolSize = DefaultPoolSize
	}
	if c.FailThreshold == 0 {
		c.FailThreshold = DefaultFailThreshold
	}
	return c
}

// Counters is a Transport's observable behavior, exposed through
// Peer.TransportCounters and the stat summary.
type Counters struct {
	Dials      metrics.AtomicCounter // fresh TCP connections established
	Reuses     metrics.AtomicCounter // exchanges served by a pooled connection
	Retries    metrics.AtomicCounter // retry attempts after a failed exchange
	Timeouts   metrics.AtomicCounter // exchanges that hit a deadline
	Reconnects metrics.AtomicCounter // stale pooled connections replaced mid-call
	Failures   metrics.AtomicCounter // exchanges that exhausted every attempt
	Faults     metrics.AtomicCounter // injected faults that aborted an attempt
	// EpochRefused counts connections refused for their epoch (ErrEpoch):
	// each stream this transport dialed, and each connection its owner's
	// server refused, which the owner adds (CountRefusal). An exchange
	// failed at once on a remembered refusal (epochBackoff) dialed nothing
	// and is not counted again.
	EpochRefused metrics.AtomicCounter
}

// CountersSnapshot is a plain-value copy of Counters, JSON-ready for the
// structured stat snapshot, and the declaration of each counter's
// Prometheus series (internal/metrics "One declaration per metric").
type CountersSnapshot struct {
	Dials      uint64 `json:"dials" prom:"lesslog_transport_events_total,event=dial"`
	Reuses     uint64 `json:"reuses" prom:"lesslog_transport_events_total,event=pool_hit"`
	Retries    uint64 `json:"retries" prom:"lesslog_transport_events_total,event=retry"`
	Timeouts   uint64 `json:"timeouts" prom:"lesslog_transport_events_total,event=timeout"`
	Reconnects uint64 `json:"reconnects" prom:"lesslog_transport_events_total,event=reconnect"`
	Failures   uint64 `json:"failures" prom:"lesslog_transport_events_total,event=failure"`
	Faults     uint64 `json:"faults" prom:"lesslog_transport_events_total,event=fault_injected"`

	EpochRefused uint64 `json:"epoch_refused" prom:"lesslog_transport_events_total,event=epoch_refused"`
}

// Snapshot copies the counters' current values.
func (c *Counters) Snapshot() CountersSnapshot {
	var s CountersSnapshot
	metrics.Load(&s, c)
	return s
}

// CountRefusal is a server's OnProtoError tail for the owner of both a
// server and a transport: a connection refused for its epoch counts as one
// EpochRefused, beside the refusals the transport's own dials met.
func (c *Counters) CountRefusal(err error) {
	if errors.Is(err, ErrEpoch) {
		c.EpochRefused.Inc()
	}
}

// String summarizes the counters in the "k=v" style of the stat line.
func (c *Counters) String() string {
	return fmt.Sprintf("dials=%d reuses=%d retries=%d timeouts=%d reconnects=%d failures=%d epoch_refused=%d",
		c.Dials.Value(), c.Reuses.Value(), c.Retries.Value(),
		c.Timeouts.Value(), c.Reconnects.Value(), c.Failures.Value(), c.EpochRefused.Value())
}

// ErrEpoch refuses a connection whose other side speaks another protocol
// epoch (msg.Epoch) or sent no hello: every exchange on it fails with an
// error that wraps ErrEpoch and names both epochs, before any frame of
// either side is read. It is not retried and is not a timeout.
var ErrEpoch = errors.New("transport: protocol epoch mismatch")

// epochError is ErrEpoch naming this side's epoch and the other's (0: no
// hello, a build from before epochs).
func epochError(local, remote uint32) error {
	return fmt.Errorf("%w: this side speaks epoch %d, the other epoch %d", ErrEpoch, local, remote)
}

// dialEpoch is the epoch this process's dialed streams announce and expect:
// msg.Epoch, except in this package's tests, which move it to see a
// mismatch refused. The serving side always speaks msg.Epoch.
var dialEpoch uint32 = msg.Epoch

// epochBackoff is how long a transport remembers that an address refused
// its epoch: within it every exchange that would dial the address fails at
// once with the refusal, so a peer of another build costs one dial per
// window instead of one per exchange — what a rolling upgrade's mixed fleet
// would otherwise pay on every forward and broadcast leg.
const epochBackoff = time.Second

// kindIndex maps a request kind into the per-kind histogram array; unknown
// kinds share slot 0.
func kindIndex(k msg.Kind) int {
	if int(k) >= 1 && int(k) < msg.KindCount {
		return int(k)
	}
	return 0
}

// Transport performs request/response exchanges with deadlines, retries and
// per-address connection pooling. Pooled streams are multiplexed: many
// exchanges run concurrently on one TCP connection using the pipelined msg
// framing, so a slow peer-side forward no longer head-of-line-blocks the
// fast calls sharing the stream. Safe for concurrent use.
type Transport struct {
	cfg    Config
	faults *Faults

	mu     sync.Mutex
	muxes  map[string][]*mux // per-address multiplexed streams, ≤ PoolSize each
	rng    *xrand.Rand       // backoff jitter; guarded by mu
	closed bool
	// refusals remembers, per address, the last refusal for the epoch and
	// when it was met (epochBackoff); guarded by mu.
	refusals map[string]refusal

	// inflight gauges client-side exchanges currently multiplexed onto
	// pooled streams — the pipeline depth the /metrics endpoints surface.
	inflight atomic.Int64

	counters Counters
	// latency records the full Do duration — retries and backoff included,
	// because that is the latency the routing layer actually experiences —
	// per request kind.
	latency [msg.KindCount]metrics.Histogram
}

// New returns a Transport with cfg's knobs (zero fields defaulted) and an
// optional fault-injection table (nil means no injected faults).
func New(cfg Config, faults *Faults) *Transport {
	cfg = cfg.withDefaults()
	return &Transport{
		cfg:    cfg,
		faults: faults,
		muxes:  map[string][]*mux{},
		rng:    xrand.New(cfg.Seed ^ 0x7472616e73706f72), // "transpor"
	}
}

// Config returns the resolved configuration (defaults filled in).
func (t *Transport) Config() Config { return t.cfg }

// Counters returns the transport's counters for inspection.
func (t *Transport) Counters() *Counters { return &t.counters }

// Latency returns the RPC latency histogram for kind k (whole-Do duration,
// retries included). Unknown kinds share one bucket histogram.
func (t *Transport) Latency(k msg.Kind) *metrics.Histogram {
	return &t.latency[kindIndex(k)]
}

// LatencySnapshots returns a snapshot per request kind that has recorded
// at least one exchange, keyed by the kind's wire name.
func (t *Transport) LatencySnapshots() map[string]metrics.HistogramSnapshot {
	out := map[string]metrics.HistogramSnapshot{}
	for i := 1; i < msg.KindCount; i++ {
		if t.latency[i].Count() == 0 {
			continue
		}
		out[msg.Kind(i).String()] = t.latency[i].Snapshot()
	}
	return out
}

// InFlight returns the number of exchanges currently multiplexed onto
// pooled streams — the client-side pipeline depth.
func (t *Transport) InFlight() int64 { return t.inflight.Load() }

// Close shuts every pooled stream and stops further pooling. Exchanges
// in flight on those streams fail promptly; later exchanges dial
// single-use streams.
func (t *Transport) Close() error {
	t.mu.Lock()
	muxes := t.muxes
	t.muxes = map[string][]*mux{}
	t.closed = true
	t.mu.Unlock()
	for _, list := range muxes {
		for _, m := range list {
			m.close()
		}
	}
	return nil
}

// Idempotent reports whether a request kind is safe to retry: pure reads
// with no side effects beyond hit counters. Mutations (insert, update,
// delete, notify, put, register) get exactly one attempt so a
// slow-but-applied exchange is never replayed.
func Idempotent(k msg.Kind) bool {
	switch k {
	case msg.KindGet, msg.KindHas, msg.KindStat, msg.KindTable, msg.KindDigest, msg.KindTraces,
		msg.KindFetch, msg.KindLocateSet:
		return true
	}
	return false
}

// Do performs one request/response exchange with addr: dial (or reuse a
// pooled connection) under DialTimeout, write the request and read the
// response under RPCTimeout, and — for idempotent kinds — retry up to
// cfg.Retries times with capped exponential backoff and jitter. Injected
// faults for (addr, kind) apply to every attempt. The caller owns the
// response, including the frame buffer a large one holds
// (msg.Response.Release). Do is Exchange for a caller that wants the answer
// on the heap.
func (t *Transport) Do(addr string, req *msg.Request) (*msg.Response, error) {
	return boxed(t.Exchange(addr, *req, 0))
}

// boxed moves a by-value answer to the heap for Do.
func boxed(resp msg.Response, err error) (*msg.Response, error) {
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// Open dials a pooled stream to addr ahead of the first exchange, so the
// caller learns at once that addr cannot be reached; the stream then
// serves exchanges like any other pooled one.
func (t *Transport) Open(addr string) error {
	m, _ := t.acquireMux(addr)
	if err := m.wait(); err != nil {
		t.discardMux(addr, m)
		return err
	}
	t.releaseMux(m)
	return nil
}

// Exchange is the one exchange path, Do by value: the request is the
// caller's and is only read, the response is returned in the caller's
// frame, so an exchange whose caller reads its answer and moves on puts no
// envelope on the heap. Every answer has its whole payload in Data except
// a KindFetch's: its Data is the fixed fetch header and its Tail the chunk,
// each an allocation (or, off a frame over 64 KiB, a view) of its own, so a
// chunk kept as a body is not carried in a larger size class beside its
// header — msg.DecodeFetchAnswer reads it. rpcTO is a per-exchange deadline floor: each
// attempt runs under max(rpcTO, Config.RPCTimeout). It exists for exchanges
// whose handler must move payload bytes before it can answer — a
// chunked-put commit pulls the whole body to every subtree holder, a notify
// delivery pulls it once — where a flat RPC deadline sized for control
// traffic would declare a healthy transfer dead (docs/ROUTING.md "The write
// plane"). rpcTO <= Config.RPCTimeout (including 0) selects the configured
// deadline unchanged.
func (t *Transport) Exchange(addr string, req msg.Request, rpcTO time.Duration) (msg.Response, error) {
	if rpcTO < t.cfg.RPCTimeout {
		rpcTO = t.cfg.RPCTimeout
	}
	start := time.Now()
	kind := kindIndex(req.Kind)
	defer func() { t.latency[kind].ObserveDuration(time.Since(start)) }()
	attempts := 1
	if Idempotent(req.Kind) {
		attempts += t.cfg.Retries
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			t.counters.Retries.Inc()
			time.Sleep(t.backoff(attempt))
		}
		resp, err := t.attempt(addr, &req, rpcTO)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if errors.Is(err, ErrEpoch) {
			break // another attempt meets the same build
		}
		if isTimeout(err) {
			t.counters.Timeouts.Inc()
		}
	}
	t.counters.Failures.Inc()
	return msg.Response{}, lastErr
}

// attempt is one try of an exchange: fault gate, stream acquisition, one
// multiplexed write+read under the RPC deadline. A reused stream that
// fails is replaced by a fresh dial once — a pooled stream may have been
// closed by the peer between exchanges, which is not the peer's failure.
// One whose dial failed (no conn) is not: that dial was this exchange's.
func (t *Transport) attempt(addr string, req *msg.Request, rpcTO time.Duration) (msg.Response, error) {
	if err := t.faults.apply(addr, req.Kind, rpcTO); err != nil {
		t.counters.Faults.Inc()
		return msg.Response{}, err
	}
	m, reused := t.acquireMux(addr)
	resp, err := t.doOn(addr, m, req, rpcTO)
	if err == nil || !reused || m.conn == nil || errors.Is(err, ErrEpoch) {
		return resp, err
	}
	// The pooled stream was stale; one fresh dial before giving up.
	t.counters.Reconnects.Inc()
	return t.doOn(addr, t.dialMux(addr), req, rpcTO)
}

// doOn performs one exchange on an acquired stream and ends its use of it:
// released on success, discarded on failure — a failed dial included.
func (t *Transport) doOn(addr string, m *mux, req *msg.Request, rpcTO time.Duration) (msg.Response, error) {
	resp, err := m.do(req, rpcTO)
	if err != nil {
		t.discardMux(addr, m)
		return msg.Response{}, err
	}
	t.releaseMux(m)
	return resp, nil
}

// acquireMux picks a pooled stream for addr — an idle one if any, else the
// least-loaded once the pool is at PoolSize — or, when every pooled one is
// busy and the cap leaves room, dials a fresh one into a slot it takes
// under the same lock. So concurrent exchanges to an address with no
// stream dial one, not one each: the others pick the stream being dialed
// and wait for it (mux.do). A dead pooled stream can be picked; its
// exchange fails fast and the reconnect path in attempt replaces it,
// preserving the reuse/reconnect accounting. A failed dial leaves a dead
// stream whose exchange fails with the dial's error.
func (t *Transport) acquireMux(addr string) (m *mux, reused bool) {
	t.mu.Lock()
	list := t.muxes[addr]
	var pick *mux
	for _, c := range list {
		if c.inflight.Load() == 0 {
			pick = c
			break
		}
	}
	if pick == nil && len(list) >= t.cfg.PoolSize && len(list) > 0 {
		pick = list[0]
		for _, c := range list[1:] {
			if c.inflight.Load() < pick.inflight.Load() {
				pick = c
			}
		}
	}
	if pick != nil {
		pick.inflight.Add(1)
		t.inflight.Add(1)
		t.mu.Unlock()
		t.counters.Reuses.Inc()
		return pick, true
	}
	m = t.reserveLocked(addr)
	t.mu.Unlock()
	return t.open(addr, m), false
}

// refusal is an address's remembered refusal for the epoch.
type refusal struct {
	err error
	at  time.Time
}

// refused returns addr's refusal for the epoch if it was met within
// epochBackoff, nil otherwise (and forgets an older one).
func (t *Transport) refused(addr string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	r, ok := t.refusals[addr]
	if !ok {
		return nil
	}
	if time.Since(r.at) >= epochBackoff {
		delete(t.refusals, addr)
		return nil
	}
	return r.err
}

// refuse counts a stream to addr refused for the epoch and remembers it.
func (t *Transport) refuse(addr string, err error) {
	t.counters.EpochRefused.Inc()
	t.mu.Lock()
	if t.refusals == nil {
		t.refusals = map[string]refusal{}
	}
	t.refusals[addr] = refusal{err: err, at: time.Now()}
	t.mu.Unlock()
}

// dial is the one place a fabric stream is opened.
func dial(addr string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, timeout)
}

// dialMux dials a fresh stream for one exchange — pooled when the pool has
// room — without looking at the streams the pool has.
func (t *Transport) dialMux(addr string) *mux {
	t.mu.Lock()
	m := t.reserveLocked(addr)
	t.mu.Unlock()
	return t.open(addr, m)
}

// reserveLocked returns a stream to addr that open has yet to dial, with
// one exchange's use of it taken: pooled when the pool has room, else —
// the pool filled meanwhile, or the transport is closed — ephemeral: one
// exchange and closed.
func (t *Transport) reserveLocked(addr string) *mux {
	m := newMux(func(err error) { t.refuse(addr, err) })
	m.inflight.Add(1)
	t.inflight.Add(1)
	if !t.closed && len(t.muxes[addr]) < t.cfg.PoolSize {
		t.muxes[addr] = append(t.muxes[addr], m)
	} else {
		m.ephemeral = true
	}
	return m
}

// open dials m's stream under the dial deadline and starts it (mux.start),
// returning m; a failed dial fails m with its error and wakes the
// exchanges waiting for it. An address that refused the epoch within
// epochBackoff is not dialed: the refusal is the answer.
func (t *Transport) open(addr string, m *mux) *mux {
	err := t.refused(addr)
	var conn net.Conn
	if err == nil {
		conn, err = dial(addr, t.cfg.DialTimeout)
	}
	if err != nil {
		m.fail(err)
		close(m.ready)
		return m
	}
	t.counters.Dials.Inc()
	m.start(conn, t.cfg.DialTimeout)
	return m
}

// releaseMux ends one exchange's use of a stream. Pooled streams stay in
// the pool for the next exchange; ephemeral overflow streams close.
func (t *Transport) releaseMux(m *mux) {
	m.inflight.Add(-1)
	t.inflight.Add(-1)
	if m.ephemeral {
		m.close()
	}
}

// discardMux ends one exchange's use of a failed stream and evicts it
// from the pool so later exchanges do not keep tripping over it.
func (t *Transport) discardMux(addr string, m *mux) {
	m.inflight.Add(-1)
	t.inflight.Add(-1)
	m.close()
	t.mu.Lock()
	list := t.muxes[addr]
	for i, c := range list {
		if c == m {
			t.muxes[addr] = append(list[:i], list[i+1:]...)
			break
		}
	}
	t.mu.Unlock()
}

// DropIdle closes addr's pooled streams that have no exchange in flight —
// called when a peer is declared dead so its parked streams don't linger
// until reuse fails. Busy streams are left to fail on their own.
func (t *Transport) DropIdle(addr string) {
	t.mu.Lock()
	list := t.muxes[addr]
	var busy []*mux
	var drop []*mux
	for _, m := range list {
		if m.inflight.Load() > 0 {
			busy = append(busy, m)
		} else {
			drop = append(drop, m)
		}
	}
	if len(busy) == 0 {
		delete(t.muxes, addr)
	} else {
		t.muxes[addr] = busy
	}
	t.mu.Unlock()
	for _, m := range drop {
		m.close()
	}
}

// backoff returns the sleep before retry attempt n (n ≥ 1): RetryBase
// doubled per attempt, capped at 32×, with ±25% deterministic jitter.
func (t *Transport) backoff(n int) time.Duration {
	d := t.cfg.RetryBase << uint(n-1)
	if max := t.cfg.RetryBase * 32; d > max {
		d = max
	}
	t.mu.Lock()
	f := t.rng.Float64()
	t.mu.Unlock()
	return d + time.Duration((f-0.5)*0.5*float64(d))
}

// isTimeout reports whether err is deadline-shaped.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
