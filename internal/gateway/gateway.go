// Package gateway is the client edge of a networked LessLog deployment:
// a production-shaped aggregation tier that sits between callers and the
// peer fabric, the architectural complement of the paper's in-overlay
// replication. REPLICATEFILE absorbs sustained skew by spreading copies;
// the gateway absorbs the *instantaneous* duplicate load a hot file
// generates before replication can react (§6's 80/20 workload), and
// shields the overlay from client bursts. It reaches the fabric only
// through one shared netnode.Client — the read and write ladders
// (docs/ROUTING.md "The ladder") live there, once — spread round-robin
// over a set of entry peers with a failure detector steering traffic away
// from peers that stop answering, and wraps it with what is the edge's own:
//
//   - coalescing: concurrent gets of one name cost one overlay lookup
//     (singleflight), so a flash crowd of identical reads arrives at the
//     fabric as a single request;
//   - a versioned read-through cache: bounded by TTL and LRU capacity,
//     with per-name version floors raised by the acknowledged writes that
//     pass through the gateway — a get through the gateway never returns
//     data older than an update the same gateway has acknowledged (see
//     docs/GATEWAY.md for the exact guarantee);
//   - admission control: a max-in-flight cap with deadline-aware
//     queueing; requests that cannot be admitted in time are shed with
//     ErrOverloaded instead of queueing without bound.
//
// A caller that wants many names makes concurrent Gets: they share the
// cache, the coalescer and the read ladder, and ride the shared client's
// pooled pipelined streams. Everything is instrumented: hit/miss/
// coalesced/shed counters, latency histograms, and a Prometheus admin
// endpoint.
package gateway

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sync/atomic"
	"time"

	"lesslog/internal/metrics"
	"lesslog/internal/msg"
	"lesslog/internal/netnode"
	"lesslog/internal/routehint"
	"lesslog/internal/tracering"
	"lesslog/internal/transport"
)

// Defaults for Config's zero fields.
const (
	DefaultCacheSize    = 4096
	DefaultCacheTTL     = 2 * time.Second
	DefaultMaxInFlight  = 1024
	DefaultQueueTimeout = 100 * time.Millisecond
)

// Errors surfaced by gateway operations (ErrOverloaded lives in
// admission.go beside the gate that produces it). The ladder's outcomes are
// the shared client's own errors, not copies of them.
var (
	// ErrFault is the fabric's "file not found" outcome.
	ErrFault = netnode.ErrFault
	// ErrTooLarge rejects a write whose payload exceeds the fabric's file
	// size cap (msg.MaxFileSize) before any bytes move. Payloads between
	// msg.MaxData and the cap stream through the staged put plane.
	ErrTooLarge = netnode.ErrTooLarge
	// ErrStaleRead reports that the fabric answered with data older than a
	// write this gateway already acknowledged and no cached copy could
	// bridge the gap.
	ErrStaleRead = errors.New("gateway: fabric behind acknowledged writes")
)

// Config parameterizes a Gateway.
type Config struct {
	// Peers are the fabric entry addresses requests are spread over. At
	// least one is required.
	Peers []string
	// Transport carries the RPC robustness knobs shared with netnode
	// (deadlines, retries, pooling, failure threshold); zero fields take
	// transport defaults.
	Transport transport.Config
	// Faults, when set, injects deterministic faults into outbound RPCs —
	// the same test hook netnode peers use.
	Faults *transport.Faults
	// CacheSize bounds the read cache in entries; 0 selects
	// DefaultCacheSize, < 0 disables caching (floors are still enforced).
	CacheSize int
	// CacheTTL bounds how long a fill may be served without revisiting
	// the fabric; 0 selects DefaultCacheTTL.
	CacheTTL time.Duration
	// MaxInFlight caps concurrently admitted requests; 0 selects
	// DefaultMaxInFlight, < 0 disables admission control.
	MaxInFlight int
	// QueueTimeout bounds how long a request waits for an admission slot
	// before being shed; 0 selects DefaultQueueTimeout.
	QueueTimeout time.Duration
	// PipelineWorkers caps concurrently handled pipelined requests per
	// client connection; 0 selects transport.DefaultPipelineWorkers.
	PipelineWorkers int
	// HintSize bounds the route-hint cache in entries; 0 selects
	// routehint.DefaultCapacity.
	HintSize int
	// HintTTL bounds how long a route hint may steer direct fetches
	// without being re-learned; 0 selects routehint.DefaultTTL.
	HintTTL time.Duration
	// ChunkSize and ChunkWindow tune the striped chunk plane on the miss
	// path (bytes per ranged fetch, in-flight chunks per transfer); <= 0
	// selects the stream package defaults.
	ChunkSize   int
	ChunkWindow int
	// TraceSampleEvery head-samples 1-in-N admitted client requests into
	// the edge trace ring (docs/OBSERVABILITY.md); 0 selects
	// tracering.DefaultSampleEvery, 1 samples everything, < 0 disables
	// the trace plane.
	TraceSampleEvery int
	// TraceSlow is the latency past which an unsampled request is
	// tail-retained anyway; 0 selects tracering.DefaultSlow.
	TraceSlow time.Duration
	// TraceRingSize bounds the retained traces; 0 selects
	// tracering.DefaultRingSize.
	TraceRingSize int
	// Logger receives structured gateway events; nil discards them.
	Logger *slog.Logger
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.CacheSize == 0 {
		c.CacheSize = DefaultCacheSize
	}
	if c.CacheTTL == 0 {
		c.CacheTTL = DefaultCacheTTL
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = DefaultMaxInFlight
	}
	if c.QueueTimeout == 0 {
		c.QueueTimeout = DefaultQueueTimeout
	}
	if c.PipelineWorkers == 0 {
		c.PipelineWorkers = transport.DefaultPipelineWorkers
	}
	return c
}

// Source says where a Result came from.
type Source uint8

// Result sources.
const (
	// SourceFabric: fetched from a peer for this request.
	SourceFabric Source = iota + 1
	// SourceCache: served from the versioned read cache.
	SourceCache
	// SourceCoalesced: rode another request's in-flight fetch.
	SourceCoalesced
)

// String names the source.
func (s Source) String() string {
	switch s {
	case SourceFabric:
		return "fabric"
	case SourceCache:
		return "cache"
	case SourceCoalesced:
		return "coalesced"
	}
	return fmt.Sprintf("source(%d)", uint8(s))
}

// Result is one answered read.
type Result struct {
	Data     []byte
	Version  uint64
	ServedBy uint32 // fabric peer that served the underlying fill
	Hops     int    // overlay hops of the underlying fill
	Source   Source
}

// WriteResult is one acknowledged write.
type WriteResult struct {
	Copies  int    // fabric copies touched
	Version uint64 // version stamped on the write (0 for deletes)
}

// Gateway is the client edge. Safe for concurrent use.
type Gateway struct {
	cfg   Config
	peers []string
	tr    *transport.Transport
	det   *transport.Detector

	// client is the gateway's one way into the fabric: the shared read and
	// write ladder over the entry peers, reporting to det.
	client *netnode.Client

	cache   *versionCache
	flights *flightGroup
	adm     *admission

	counters Counters
	obs      gwObs
	log      *slog.Logger

	// sampler/ring are the edge trace plane; both nil with tracing
	// disabled (every touch point is nil-safe). traceIDs feeds fresh
	// trace IDs.
	sampler  *tracering.Sampler
	ring     *tracering.Ring
	traceIDs tracering.IDSeq

	// pipelineDepth is the number of pipelined client requests currently
	// being handled across the gateway's wire connections.
	pipelineDepth atomic.Int64
}

// New builds a gateway over cfg.Peers. The peer set is fixed for the
// gateway's lifetime; run one gateway per entry-peer view.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Peers) == 0 {
		return nil, errors.New("gateway: config needs at least one entry peer")
	}
	cfg = cfg.withDefaults()
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	g := &Gateway{
		cfg:     cfg,
		peers:   append([]string(nil), cfg.Peers...),
		tr:      transport.New(cfg.Transport, cfg.Faults),
		cache:   newVersionCache(cfg.CacheSize, cfg.CacheTTL),
		flights: newFlightGroup(),
		adm:     newAdmission(cfg.MaxInFlight, cfg.QueueTimeout),
		log:     logger.With("component", "gateway"),
	}
	if cfg.TraceSampleEvery >= 0 {
		slow := cfg.TraceSlow
		if slow <= 0 {
			slow = tracering.DefaultSlow
		}
		g.sampler = tracering.NewSampler(cfg.TraceSampleEvery)
		g.ring = tracering.NewRing(cfg.TraceRingSize, slow)
		g.traceIDs.Seed(uint64(time.Now().UnixNano()) ^ uint64(msg.GatewayPID)<<32)
	}
	g.det = transport.NewDetector(g.tr.Config().FailThreshold, g.peerDown, g.peerUp)
	g.client = netnode.NewLocateClientOver(g.peers, g.det, g.tr, netnode.LocateOptions{
		Hints:       routehint.New(cfg.HintSize, cfg.HintTTL),
		ChunkSize:   cfg.ChunkSize,
		ChunkWindow: cfg.ChunkWindow,
	})
	g.counters.LocateStats = g.client.LocateStats()
	return g, nil
}

// peerDown and peerUp are the failure-detector callbacks, keyed by entry
// peer index.
func (g *Gateway) peerDown(idx uint32) {
	g.counters.PeersDown.Inc()
	addr := ""
	if int(idx) < len(g.peers) {
		addr = g.peers[idx]
		g.tr.DropIdle(addr)
		// Every route hint pointing at the dead peer reroutes now, instead
		// of each paying its own failed direct fetch.
		g.client.PurgeHolder(addr)
	}
	g.log.Warn("entry peer declared down", "peer", addr)
}

func (g *Gateway) peerUp(idx uint32) {
	g.counters.PeersUp.Inc()
	if int(idx) < len(g.peers) {
		g.log.Info("entry peer restored", "peer", g.peers[idx])
	}
}

// Close shuts the gateway's transport. In-flight requests finish on their
// own deadlines.
func (g *Gateway) Close() error { return g.tr.Close() }

// Transport exposes the underlying transport (its counters feed the
// gateway snapshot).
func (g *Gateway) Transport() *transport.Transport { return g.tr }

// Detector exposes the entry-peer failure detector.
func (g *Gateway) Detector() *transport.Detector { return g.det }

// admit takes an admission slot, counting a shed on timeout.
func (g *Gateway) admit() (func(), error) {
	release, err := g.adm.acquire()
	if err != nil {
		g.counters.Shed.Inc()
		return nil, err
	}
	return release, nil
}

// Get serves one read: fresh cache hit, else one coalesced fabric fetch.
// A hit's Data may be a frame buffer a write arrived in: Get's reference to
// it is never ended, so the buffer stays the caller's and the collector's.
func (g *Gateway) Get(name string) (Result, error) {
	res, _, err := g.read(name)
	return res, err
}

// read is Get answering, for a hit, its reference to the frame buffer Data
// points into (nil for none), which the caller ends once done with Data.
func (g *Gateway) read(name string) (Result, *msg.Ref, error) {
	release, err := g.admit()
	if err != nil {
		return Result{}, nil, err
	}
	defer release()
	start := time.Now()
	defer func() { g.obs.get.ObserveDuration(time.Since(start)) }()

	if e, fresh, ok := g.cache.get(name); ok {
		if fresh {
			g.counters.Hits.Inc()
			return resultOf(e, SourceCache), e.ref, nil
		}
		e.ref.Release()
	}
	res, shared, err := g.flights.do(name, func() (Result, error) { return g.fetch(name) })
	if shared {
		g.counters.Coalesced.Inc()
		if err == nil {
			if res.Version < g.cache.floor(name) {
				// The flight this request rode took off before a write this
				// gateway has since acknowledged; its result is older than
				// the floor this Get must honor. One direct fetch resolves
				// it — fetch itself enforces the floor on the way back in.
				res, err = g.fetch(name)
				return res, nil, err
			}
			if res.Source == SourceFabric {
				res.Source = SourceCoalesced
			}
		}
	}
	return res, nil, err
}

// maxFillAttempts bounds how often one miss re-reads because a write was
// acknowledged while its fill was in flight.
const maxFillAttempts = 4

// fetch performs the fabric read behind a cache miss: the shared client's
// read ladder, told the name's floor so a rung that answers below it is
// purged and re-resolved like any stale hint, then the one atomic floor
// check on the way into the cache — the version-floor guarantee is
// identical however the bytes arrive. A fill that met the floor it was
// asked for but lost to a write acknowledged meanwhile reads again: the
// fabric already holds the newer version. One that came back below the
// floor it was asked for is the fabric running behind, and is final.
func (g *Gateway) fetch(name string) (Result, error) {
	g.counters.Misses.Inc()
	for attempt := 1; ; attempt++ {
		floor := g.cache.floor(name)
		res, err := g.client.GetAtLeast(name, floor)
		if err != nil {
			return Result{}, err
		}
		out, err := g.admitFill(name, res.Data, res.Version, res.ServedBy, uint32(res.Hops))
		if !errors.Is(err, ErrStaleRead) || res.Version < floor || attempt == maxFillAttempts {
			return out, err
		}
	}
}

// admitFill enforces the version floor on a fill: one older than an
// acknowledged write is refused, and a retained cache entry that still
// satisfies the floor is served in its place (counted as StaleServed — the
// fabric, not the cache, was stale). The entry's reference is never ended:
// a flight's followers share the result, so its buffer is the collector's.
func (g *Gateway) admitFill(name string, data []byte, version uint64, servedBy, hops uint32) (Result, error) {
	if g.cache.put(name, data, version, servedBy, hops) {
		return Result{
			Data: data, Version: version,
			ServedBy: servedBy, Hops: int(hops), Source: SourceFabric,
		}, nil
	}
	if e, _, ok := g.cache.get(name); ok {
		g.counters.StaleServed.Inc()
		return resultOf(e, SourceCache), nil
	}
	return Result{}, ErrStaleRead
}

// Insert stores a new file through the gateway. The acknowledged version
// starts a fresh floor generation for the name and is cached
// write-through.
func (g *Gateway) Insert(name string, data []byte) (WriteResult, error) {
	return g.write(msg.KindInsert, name, data)
}

// Update rewrites a file everywhere through the gateway. Once the fabric
// acknowledges, the gateway's floor for the name rises to the stamped
// version: no later Get through this gateway returns older data.
func (g *Gateway) Update(name string, data []byte) (WriteResult, error) {
	return g.write(msg.KindUpdate, name, data)
}

// Delete erases a file everywhere through the gateway and invalidates the
// cached copy; the floor rises past the deleted version so a racing read
// cannot re-fill the dead data.
func (g *Gateway) Delete(name string) (WriteResult, error) {
	return g.write(msg.KindDelete, name, nil)
}

// write performs one mutation. Mutations get exactly one attempt — the
// transport will not blindly retry a write that may have applied — so a
// transport error means "outcome unknown", which the caller must resolve
// (typically by reading back).
func (g *Gateway) write(kind msg.Kind, name string, data []byte) (WriteResult, error) {
	wr, _, err := g.writeTraced(kind, name, data, nil, 0, nil)
	return wr, err
}

// writeTraced is write carrying the trace section: with a non-zero
// traceID the mutation goes out traced over the given root path
// (typically the gateway's edge hop), and the fan-out tree the fabric
// assembled comes back as hops. The mutation runs the shared client's write
// ladder (size cap, hint-guided entry, staged upload over one frame); the
// edge adds admission, latency, and — once acknowledged — the write-through
// cache and floor. ref is the caller's reference to the frame buffer data
// points into (nil for none); the cached entry takes one of its own.
func (g *Gateway) writeTraced(kind msg.Kind, name string, data []byte, ref *msg.Ref, traceID uint64, path []msg.Hop) (WriteResult, []msg.Hop, error) {
	release, err := g.admit()
	if err != nil {
		return WriteResult{}, nil, err
	}
	defer release()
	start := time.Now()
	defer func() { g.obs.write.ObserveDuration(time.Since(start)) }()

	req := &msg.Request{Kind: kind, Name: name, Data: data}
	if traceID != 0 {
		req.Flags |= msg.FlagTrace
		req.TraceID = traceID
		req.Path = path
	}
	resp, err := g.client.Write(req)
	if err != nil {
		if resp != nil {
			return WriteResult{}, resp.Path, err
		}
		return WriteResult{}, nil, err
	}
	switch kind {
	case msg.KindInsert:
		g.cache.ackInsert(name, data, ref, resp.Version)
		g.counters.Inserts.Inc()
	case msg.KindUpdate:
		g.cache.ackUpdate(name, data, ref, resp.Version)
		g.counters.Updates.Inc()
	case msg.KindDelete:
		g.cache.ackDelete(name, resp.Version)
		g.counters.Deletes.Inc()
	}
	return WriteResult{Copies: int(resp.Hops), Version: resp.Version}, resp.Path, nil
}

// Forward passes an arbitrary request through to an entry peer, bypassing
// the cache — the escape hatch for kinds the gateway does not interpose
// (store, has, table, register, traced gets). Transport errors are
// retried across peers only for idempotent kinds.
func (g *Gateway) Forward(req *msg.Request) (*msg.Response, error) {
	release, err := g.admit()
	if err != nil {
		return nil, err
	}
	defer release()
	g.counters.Passthrough.Inc()
	return g.client.Do(req, transport.Idempotent(req.Kind))
}

// fetchRange passes a client's ranged fetch — the rest of a body past one
// frame after the head this gateway answered — to a holder of the name
// (netnode.Client.FetchRange), so the edge never reads the body again per
// range.
func (g *Gateway) fetchRange(req *msg.Request) (*msg.Response, error) {
	release, err := g.admit()
	if err != nil {
		return nil, err
	}
	defer release()
	g.counters.Passthrough.Inc()
	return g.client.FetchRange(req)
}

// resultOf converts a cache entry.
func resultOf(e entry, src Source) Result {
	return Result{
		Data: e.data, Version: e.version,
		ServedBy: e.servedBy, Hops: int(e.hops), Source: src,
	}
}

// CacheLen returns the number of currently cached entries.
func (g *Gateway) CacheLen() int { return g.cache.len() }

// HintLen returns the number of cached route hints.
func (g *Gateway) HintLen() int { return g.client.HintLen() }

// Counters returns the gateway's counter set for inspection.
func (g *Gateway) Counters() *Counters { return &g.counters }

// gwObs bundles the gateway's latency distributions.
type gwObs struct {
	get   metrics.Histogram // Get latency, hits and misses alike
	write metrics.Histogram // insert/update/delete latency
}
