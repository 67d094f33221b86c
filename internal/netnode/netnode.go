// Package netnode deploys a LessLog node over TCP using only the standard
// library — the paper's §8 future work ("implement LessLog in a
// large-scaled P2P system") at demonstration scale. Each Peer owns a local
// store and a status word and forwards requests along the lookup trees
// exactly as internal/core does in process, but across real sockets with
// the internal/msg wire protocol.
//
// Deployment model: peers are configured with the identifier width, the
// fault-tolerance bits and a PID→address table (the networked counterpart
// of the §5.1 status word; both are updated together by SetAddrs). File
// operations may be sent to any peer; gets hop peer-to-peer with the §3
// fallback and §4 subtree-migration state carried in the request frame.
// Update propagation fans out synchronously down the children lists, so a
// completed update response implies every reachable replica was rewritten.
package netnode

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"lesslog/internal/bitops"
	"lesslog/internal/hashring"
	"lesslog/internal/liveness"
	"lesslog/internal/msg"
	"lesslog/internal/ptree"
	"lesslog/internal/repair"
	"lesslog/internal/store"
	"lesslog/internal/stream"
	"lesslog/internal/tracering"
	"lesslog/internal/transport"
	"lesslog/internal/wal"
	"lesslog/internal/xrand"
)

// Config parameterizes one peer.
type Config struct {
	PID    bitops.PID
	M      int
	B      int
	Hasher hashring.Hasher // nil selects hashring.Default
	Addr   string          // listen address; "" means 127.0.0.1:0
	// DataDir, when set, makes the peer durable: every store mutation is
	// appended to a segmented write-ahead log in this directory
	// (internal/wal, docs/STORAGE.md), the store is rebuilt from it by
	// crash-recovery replay at startup, and Close flushes and fsyncs the
	// open segment. Empty keeps the peer memory-only.
	DataDir string
	// SegmentSize rotates the log's active segment at this many bytes;
	// <= 0 selects wal.DefaultSegmentSize. Ignored without DataDir.
	SegmentSize int64
	// Fsync is the log's durability policy (wal.FsyncAlways /
	// FsyncInterval / FsyncNever); the zero value is FsyncInterval.
	Fsync wal.Policy
	// FsyncEvery is the FsyncInterval flush period; <= 0 selects
	// wal.DefaultFsyncEvery.
	FsyncEvery time.Duration
	// Transport carries the RPC robustness knobs (deadlines, retries,
	// pooling, failure threshold); zero fields take transport defaults.
	Transport transport.Config
	// Faults, when set, injects deterministic faults into every outbound
	// RPC of this peer — the test hook for crashes, slowness, partitions.
	Faults *transport.Faults
	// Logger receives the peer's structured events (liveness flips,
	// membership changes, replica placements). Nil discards them, keeping
	// tests and embedded uses quiet; lesslogd passes a leveled handler.
	Logger *slog.Logger
	// PipelineWorkers caps concurrently handled pipelined requests per
	// accepted connection; <= 0 selects transport.DefaultPipelineWorkers.
	PipelineWorkers int
	// ServeDelay injects a fixed service time before handling each
	// request this peer serves; zero serves at full speed. Benches pair
	// it with PipelineWorkers=1 to model a holder of bounded capacity
	// (see transport.ServeLoopOptions.ServeDelay).
	ServeDelay time.Duration
	// FanoutWorkers caps concurrent RPC legs per update/delete broadcast
	// (each leg's subtree recursion runs on the remote peers, so the
	// effective parallelism cascades); <= 0 selects DefaultFanoutWorkers.
	FanoutWorkers int
	// TraceSampleEvery head-samples 1 in N entry requests (and repair
	// rounds) into the trace ring; 0 selects tracering.DefaultSampleEvery,
	// 1 traces everything, negative disables the trace plane entirely.
	TraceSampleEvery int
	// TraceSlow is the tail-retention threshold: entry requests at least
	// this slow (and all errored ones) are kept even when the head sampler
	// passed them by. 0 selects tracering.DefaultSlow.
	TraceSlow time.Duration
	// TraceRingSize bounds the in-memory trace ring; 0 selects
	// tracering.DefaultRingSize.
	TraceRingSize int
}

// DefaultFanoutWorkers bounds concurrent broadcast legs per propagation
// when Config.FanoutWorkers is unset; each broadcast's semaphore is sized
// min(FanoutWorkers, legs).
const DefaultFanoutWorkers = 8

// Stats counts a peer's traffic with atomic counters.
type Stats struct {
	Requests  atomic.Uint64
	Forwards  atomic.Uint64
	Served    atomic.Uint64
	Faults    atomic.Uint64
	Stored    atomic.Uint64
	Updated   atomic.Uint64
	Broadcast atomic.Uint64
	// PeersDown / PeersUp count failure-detector liveness flips: a peer
	// declared dead after consecutive RPC failures, and one restored by a
	// later successful exchange or re-registration.
	PeersDown atomic.Uint64
	PeersUp   atomic.Uint64
	// ProtoErrors counts decode and write failures on served connections —
	// the drops that used to be silent.
	ProtoErrors atomic.Uint64
	// RouteDivergence counts traced lookups this peer entered whose answer
	// came back over hops other than its own ptree.View.Next loop predicts.
	RouteDivergence atomic.Uint64
	// Locate-then-fetch data plane (docs/ROUTING.md). Located counts
	// KindLocateSet walks this peer answered as the holder; DirectServed /
	// DirectMisses count ranged KindFetch chunks served from the local
	// store or refused (a miss is a stale route hint, deliberately never
	// forwarded).
	Located      atomic.Uint64
	DirectServed atomic.Uint64
	DirectMisses atomic.Uint64
	// Chunked data plane (docs/ROUTING.md). ChunksServed counts ranged
	// KindFetch chunks served from the local store, ChunkBytes their
	// payload bytes; ChunkRefusals counts version-pinned fetches refused
	// because the held copy moved on (the splice guard doing its job).
	ChunksServed  atomic.Uint64
	ChunkBytes    atomic.Uint64
	ChunkRefusals atomic.Uint64
	// RelayedBytes counts file-payload bytes this peer relayed back through
	// a forwarded get — the wire cost the locate path exists to remove. A
	// multi-hop relay get of size S adds S at every intermediate peer; a
	// locate-then-fetch get adds zero.
	RelayedBytes atomic.Uint64
	// Chunked write plane (docs/ROUTING.md "write plane"). WriteChunks
	// counts staged KindPut chunks accepted, WriteBytes their payload
	// bytes; StagedAborts counts staging sessions discarded without a
	// commit (explicit abort, TTL expiry, or a failed commit check — every
	// path where staged bytes die unseen); NotifyPulls counts bodies this
	// peer pulled in response to a propagation notify.
	WriteChunks  atomic.Uint64
	WriteBytes   atomic.Uint64
	StagedAborts atomic.Uint64
	NotifyPulls  atomic.Uint64
	// WritesAtHolder / WritesRemote split write entries by whether the
	// entry peer is where the write belongs — the success measure of the
	// client's write entry: an update or delete initiated at a holder
	// probes the current version for free instead of paying a lookup walk,
	// and an insert entering at one of its primaries keeps its copy there
	// instead of relaying the body to every primary.
	WritesAtHolder atomic.Uint64
	WritesRemote   atomic.Uint64
	// FanoutBytes counts request-payload bytes this peer pushed onto
	// broadcast-tree legs (notify and delete propagations): the notify's
	// transfer facts, never a body, so it grows O(legs) whatever the
	// update's size — the write bench's bytes-on-tree measure.
	FanoutBytes atomic.Uint64
	// ChecksummedBytes counts body bytes this peer passed CRC-32C over,
	// serving, staging and (in its snapshot) pulling: once per byte sent or
	// received on the chunk plane (docs/ROUTING.md "Checksums").
	ChecksummedBytes atomic.Uint64
	// Copies this peer put on a peer (itself included) by reason: insert
	// placement (§2.2), hot-file replication (§6), join/leave handoff
	// (§5.1/§5.2), restore after a death (§5.3). place bumps them, and
	// nothing else does; the repair push's counter is Repaired, below. The
	// receiving side of every one of them is Stored.
	PlacedInsert    atomic.Uint64
	PlacedReplicate atomic.Uint64
	PlacedHandoff   atomic.Uint64
	PlacedRestore   atomic.Uint64
	// PipelineDepth gauges pipelined requests currently being handled
	// across this peer's served connections; FanoutActive gauges broadcast
	// RPC legs currently in flight. Both are instantaneous, not monotonic.
	PipelineDepth atomic.Int64
	FanoutActive  atomic.Int64
	// Anti-entropy repair loop (docs/REPAIR.md). RepairProbes counts
	// per-name liveness probes issued; Repaired counts copies this peer
	// pushed back onto a holder that had lost (or staled) them;
	// RepairPulled counts copies pulled in through a digest delta;
	// RepairErased counts local copies erased because a probe found the
	// name tombstoned (deleted) at a required holder; RepairSkipped
	// counts work deferred by the bandwidth budget. DigestBytes
	// counts digest frame bytes in both directions; RepairDeficit gauges
	// the byte shortfall at the budget's most recent denial (0 when
	// repair is keeping up).
	RepairProbes  atomic.Uint64
	Repaired      atomic.Uint64
	RepairPulled  atomic.Uint64
	RepairErased  atomic.Uint64
	RepairSkipped atomic.Uint64
	DigestBytes   atomic.Uint64
	RepairDeficit atomic.Int64
}

// routing is the peer's registration state — the PID→address table and
// the §5.1 status word — published as one immutable snapshot: readers
// (view, forwardLookup, IsLive, call) load it with a single atomic load and
// zero locks; mutators clone-and-swap under regMu.
type routing struct {
	addrs map[bitops.PID]string
	live  *liveness.Set
}

// Peer is one networked LessLog node.
type Peer struct {
	cfg    Config
	hasher hashring.Hasher
	srv    *transport.Server // the frame listener; locate answers carry its address per request
	tr     *transport.Transport
	det    *transport.Detector

	routing atomic.Pointer[routing]
	regMu   sync.Mutex // serializes routing clone-and-swap mutations

	// propMu serializes the copy handoffs of Leave and of a join (writers)
	// against in-flight update/delete propagations (readers): a handoff
	// that runs mid-fan-out could hand a copy to its new primary and then
	// have the still-running broadcast rewrite the local copy it just gave
	// away, losing the update on the handed-off copy. The applies take the
	// read side around the local store mutation only; Leave holds the
	// write side across handoff and the dead registration, a join handoff
	// across each name's Peek, place and Delete.
	propMu sync.RWMutex

	store *store.Sharded
	eng   *wal.Engine   // nil without Config.DataDir
	clock atomic.Uint64 // Lamport clock; merged with CAS-max, ticked with Add

	fanoutWorkers int

	rng      *xrand.Rand   // maintenance placement's §3 proportional choice
	quit     chan struct{} // closed by the first Close: background loops stop
	quitOnce sync.Once

	wg    sync.WaitGroup
	stats Stats
	obs   peerObs
	log   *slog.Logger

	// Trace plane (docs/OBSERVABILITY.md): head sampler, bounded trace
	// ring, and the trace-ID sequence. ring == nil means tracing is off
	// (Config.TraceSampleEvery < 0); every trace-plane entry point checks
	// it once and degrades to the untraced fast path.
	sampler  *tracering.Sampler
	ring     *tracering.Ring
	traceIDs tracering.IDSeq

	// ttfr tracks time-to-full-replication across repair rounds.
	ttfr repair.TTFR

	// Write plane (docs/ROUTING.md "write plane"): staged chunked uploads,
	// the commit outbox propagation pulls are served from, the puller that
	// fetches notify bodies off converged siblings, and the whole-file sums
	// remembered for outbox and stored bodies.
	uploads uploadTable
	outbox  outbox
	puller  *stream.Fetcher
	sums    sumTable
}

// rt loads the current routing snapshot; never nil after Listen.
func (p *Peer) rt() *routing { return p.routing.Load() }

// mutateRouting applies f to a private clone of the routing state and
// publishes the result. In-flight readers keep the snapshot they loaded.
func (p *Peer) mutateRouting(f func(addrs map[bitops.PID]string, live *liveness.Set)) {
	p.regMu.Lock()
	defer p.regMu.Unlock()
	cur := p.routing.Load()
	addrs := make(map[bitops.PID]string, len(cur.addrs)+1)
	for pid, a := range cur.addrs {
		addrs[pid] = a
	}
	live := cur.live.Clone()
	f(addrs, live)
	p.routing.Store(&routing{addrs: addrs, live: live})
}

// mergeClock advances the Lamport clock to at least v (CAS-max).
func (p *Peer) mergeClock(v uint64) {
	for {
		cur := p.clock.Load()
		if v <= cur || p.clock.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Listen binds the peer's socket and starts serving connections. Call
// SetAddrs with the full peer table (including this peer) before issuing
// file operations.
func Listen(cfg Config) (*Peer, error) {
	bitops.CheckSplit(cfg.M, cfg.B)
	h := cfg.Hasher
	if h == nil {
		h = hashring.Default
	}
	addr := cfg.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	st := store.NewSharded(0)
	var eng *wal.Engine
	if cfg.DataDir != "" {
		// Recovery replay rebuilds a plain Store from the log, then the
		// engine attaches as the sharded store's persister — strictly in
		// that order, so replayed state is not re-appended to the log.
		var restored *store.Store
		var err error
		eng, restored, err = wal.Open(wal.Options{
			Dir:         cfg.DataDir,
			SegmentSize: cfg.SegmentSize,
			Fsync:       cfg.Fsync,
			FsyncEvery:  cfg.FsyncEvery,
			TombstoneGC: repair.DefaultTombstoneTTL,
			Logger:      logger.With("pid", uint32(cfg.PID)),
		})
		if err != nil {
			return nil, fmt.Errorf("netnode: restore %s: %w", cfg.DataDir, err)
		}
		st = store.ShardedFrom(restored, 0)
		st.SetPersister(eng)
	}
	p := &Peer{
		cfg:    cfg,
		hasher: h,
		store:  st,
		eng:    eng,
		rng:    xrand.New(uint64(cfg.PID)*0x9e3779b9 + 1),
		quit:   make(chan struct{}),
	}
	p.routing.Store(&routing{addrs: map[bitops.PID]string{}, live: liveness.New(cfg.M)})
	p.fanoutWorkers = cfg.FanoutWorkers
	if p.fanoutWorkers <= 0 {
		p.fanoutWorkers = DefaultFanoutWorkers
	}
	if cfg.TraceSampleEvery >= 0 {
		slow := cfg.TraceSlow
		if slow <= 0 {
			slow = tracering.DefaultSlow
		}
		p.sampler = tracering.NewSampler(cfg.TraceSampleEvery)
		p.ring = tracering.NewRing(cfg.TraceRingSize, slow)
		p.traceIDs.Seed(uint64(time.Now().UnixNano()) ^ uint64(cfg.PID)<<32)
	}
	p.log = logger.With("component", "netnode", "pid", uint32(cfg.PID))
	p.tr = transport.New(cfg.Transport, cfg.Faults)
	// The notify puller fetches propagation bodies as replica transfers:
	// FlagReplica keeps a pull from counting a §6 access at its source.
	p.puller = stream.New(p.tr, stream.Config{Replica: true})
	p.det = transport.NewDetector(p.tr.Config().FailThreshold, p.peerDown, p.peerUp)
	// A frame can arrive before p.srv is assigned, and handlers quote the
	// server's address: they wait for the assignment.
	ready := make(chan struct{})
	var err error
	p.srv, err = transport.Listen(addr, func(req *msg.Request) *msg.Response {
		<-ready
		p.stats.Requests.Add(1)
		return p.handle(req)
	}, transport.ServeLoopOptions{
		Workers:    cfg.PipelineWorkers,
		ServeDelay: cfg.ServeDelay,
		Depth:      &p.stats.PipelineDepth,
		OnProtoError: func(err error) {
			p.stats.ProtoErrors.Add(1)
			p.tr.Counters().CountRefusal(err)
			p.log.Debug("connection protocol error", "err", err)
		},
	})
	if err != nil {
		if eng != nil {
			eng.Close()
		}
		return nil, err
	}
	close(ready)
	p.log.Debug("listening", "addr", p.Addr(), "m", cfg.M, "b", cfg.B)
	return p, nil
}

// peerDown is the failure-detector callback: consecutive RPC failures to
// pid crossed the threshold, so its liveness bit is cleared — from here on
// every view routes around it through the §5 expanded children lists, the
// same way a register-dead broadcast would. Idle pooled connections to the
// dead peer are dropped with it.
func (p *Peer) peerDown(pid uint32) {
	var addr string
	p.mutateRouting(func(addrs map[bitops.PID]string, live *liveness.Set) {
		addr = addrs[bitops.PID(pid)]
		live.SetDead(bitops.PID(pid))
	})
	if addr != "" {
		p.tr.DropIdle(addr)
	}
	p.stats.PeersDown.Add(1)
	p.log.Warn("peer declared down by failure detector", "peer", pid, "addr", addr)
}

// peerUp restores a detector-dead peer after a successful exchange — the
// transient-failure healing path; a full rejoin heals through the
// register-live broadcast instead.
func (p *Peer) peerUp(pid uint32) {
	p.mutateRouting(func(addrs map[bitops.PID]string, live *liveness.Set) {
		if _, known := addrs[bitops.PID(pid)]; known {
			live.SetLive(bitops.PID(pid))
		}
	})
	p.stats.PeersUp.Add(1)
	p.log.Info("peer restored by successful exchange", "peer", pid)
}

// Addr returns the peer's bound address.
func (p *Peer) Addr() string { return p.srv.Addr() }

// SeedLocal places a copy directly into this peer's store, bypassing the
// wire — whose frames cap payloads at msg.MaxData, below the chunk
// plane's msg.MaxFileSize read ceiling. Tooling/test hook for building
// over-frame replica layouts; production writes go through the insert
// plane and are frame-capped at the edge.
func (p *Peer) SeedLocal(name string, data []byte, version uint64) {
	p.store.Put(store.File{Name: name, Data: data, Version: version}, store.Inserted)
}

// PID returns the peer's identifier.
func (p *Peer) PID() bitops.PID { return p.cfg.PID }

// Stats returns the peer's traffic counters.
func (p *Peer) Stats() *Stats { return &p.stats }

// IsLive reports whether this peer's status word currently marks pid live
// — the §5.1 bit the failure detector and registrations maintain. Safe for
// concurrent use; reads the routing snapshot without locking.
func (p *Peer) IsLive(pid bitops.PID) bool {
	return p.rt().live.IsLive(pid)
}

// HasFile reports whether the peer currently holds a copy of name,
// without counting an access. Safe for concurrent use.
func (p *Peer) HasFile(name string) bool {
	return p.store.Has(name)
}

// SetAddrs installs the PID→address table and marks exactly those PIDs
// live — the networked form of the status word. Failure-detector history
// is discarded: the new table is authoritative.
func (p *Peer) SetAddrs(addrs map[bitops.PID]string) {
	next := &routing{addrs: make(map[bitops.PID]string, len(addrs)), live: liveness.New(p.cfg.M)}
	for pid, a := range addrs {
		next.addrs[pid] = a
		next.live.SetLive(pid)
	}
	p.regMu.Lock()
	p.routing.Store(next)
	p.regMu.Unlock()
	p.det.ResetAll()
}

// Close stops the peer: the listener and every open connection are shut,
// then the outbound transport — a handler may be blocked on it, and would
// hold the wait below for a full RPC deadline — and only then are in-flight
// handlers awaited.
func (p *Peer) Close() error {
	p.quitOnce.Do(func() { close(p.quit) })
	err := p.srv.Shut()
	p.tr.Close()
	p.srv.Close()
	p.wg.Wait()
	if p.eng != nil {
		// All handlers have drained, so no store mutation can race the
		// engine shutdown; Close flushes and fsyncs the open segment and
		// surfaces any write failure the engine went degraded on.
		if cerr := p.eng.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// Checkpoint compacts the peer's log down to its live state — one
// segment holding the latest version of every name plus unexpired
// tombstones. Recovery stays fast without it (segments replay at
// startup); this just caps the replay work.
func (p *Peer) Checkpoint() error {
	if p.eng == nil {
		return fmt.Errorf("netnode: peer has no data directory")
	}
	return p.eng.Checkpoint()
}

// view returns the lookup-tree view of target under the current routing
// snapshot. Lock-free: the snapshot's live set is immutable, so the view
// stays consistent for as long as the caller holds it.
func (p *Peer) view(target bitops.PID) ptree.View {
	return ptree.NewView(target, p.rt().live, p.cfg.B)
}

// handle times and dispatches one decoded request; every handler's full
// latency — forwarded and fanned-out work included — lands in the
// per-kind histogram. Requests entering the fabric here are head-sampled
// into the trace plane (promoting them to traced so the downstream route
// cooperates), and finished entry requests land in the trace ring —
// sampled ones always, slow or errored ones regardless.
func (p *Peer) handle(req *msg.Request) *msg.Response {
	start := time.Now()
	sampled, promoted := p.maybeSampleEntry(req)
	resp := p.dispatch(req)
	elapsed := time.Since(start)
	p.obs.handleHist(req.Kind).ObserveDuration(elapsed)
	p.recordEntryTrace(req, resp, start, elapsed, sampled)
	if promoted {
		// The client never asked for a trace; the stamped route was for the
		// ring only.
		resp.Path = nil
	}
	return resp
}

func (p *Peer) dispatch(req *msg.Request) *msg.Response {
	if req.Flags&msg.FlagPropagate != 0 && (req.Kind == msg.KindDelete || req.Kind == msg.KindNotify) {
		return p.handleDelivery(req) // one leg of a broadcast
	}
	switch req.Kind {
	case msg.KindGet:
		return p.handleGet(req)
	case msg.KindInsert:
		return p.handleInsert(req, crc{})
	case msg.KindUpdate, msg.KindDelete:
		return p.initiate(req, crc{})
	case msg.KindStat:
		return p.handleStat(req)
	case msg.KindRegister:
		return p.handleRegister(req)
	case msg.KindTable:
		return p.handleTable()
	case msg.KindHas:
		return p.handleHas(req)
	case msg.KindDigest:
		return p.handleDigest(req)
	case msg.KindTraces:
		return p.handleTraces()
	case msg.KindFetch:
		return p.handleFetch(req)
	case msg.KindLocateSet:
		return p.handleLocateSet(req)
	case msg.KindPut:
		return p.handlePut(req)
	case msg.KindNotify:
		return p.handleNotify(req)
	}
	return &msg.Response{Err: msg.UnknownKindError(req.Kind)}
}

// ErrTombstoned is the answer to a placement of a name the target has seen
// deleted at a version at least as new as the offered copy. The response
// carries the tombstone version, so an insert racing a delete can merge it
// into its clock and restamp (handleInsert), while a repair push just
// learns its copy is deleted rather than missing.
var ErrTombstoned = errors.New("netnode: name deleted (tombstoned)")

// place puts f on target — the one way a body moves from this peer to
// another (docs/ROUTING.md "Placement"): insert placement on the subtree
// primaries (§2.2), hot-file replication (§6, flags = msg.FlagReplica),
// join/leave handoff (§5.1/§5.2), restore after a death (§5.3) and the
// repair push that re-establishes any of them. It is one direct KindNotify:
// the body rides inline when it fits the frame (msg.NotifyInline), else the
// facts name this peer as the source and target pulls the body in chunks —
// from this peer's store, or from the outbox when the caller is not a
// holder (handleInsert parks it there) — against the sum this peer
// remembers for it, never a fresh pass per leg. A placement on this peer
// itself is applied without touching the wire. tr, when non-nil, stamps
// the exchange as a leg of the caller's trace.
//
// The answer is the version that survived at target: f.Version when the
// copy landed (reason, the caller's placed counter, is bumped), a newer one
// when target kept what it had — still a success, the name is present at
// least as new. ErrTombstoned carries the tombstone version instead.
func (p *Peer) place(target bitops.PID, f store.File, flags uint8, reason *atomic.Uint64, tr *legTrace) (survived uint64, err error) {
	req := &msg.Request{Kind: msg.KindNotify, Flags: flags, Name: f.Name, Version: f.Version}
	tr.stamp(req)
	var resp msg.Response
	if target == p.cfg.PID {
		resp = *p.applyStore(req, f.Data, f.Ref, crc{}, time.Now())
	} else {
		nr, deadline := msg.NotifyReq{TotalSize: uint64(len(f.Data)), Body: f.Data}, time.Duration(0)
		if !msg.NotifyInline(len(f.Data)) {
			nr.Body, nr.FileCRC, deadline = nil, p.fileSum(f), stream.PullDeadline(nr.TotalSize)
			nr.Sources = []msg.Holder{{PID: uint32(p.cfg.PID), Addr: p.Addr(), Version: f.Version}}
		}
		if req.Data, err = msg.AppendNotifyReq(nil, &nr); err == nil {
			req.Tail = nr.Body
			resp, err = p.callTimeout(target, req, deadline)
		}
	}
	if err != nil {
		return 0, err
	}
	tr.collect(&resp)
	switch {
	case resp.OK:
		if resp.Version == f.Version {
			reason.Add(1)
		}
		return resp.Version, nil
	case resp.Err == ErrTombstoned.Error():
		return resp.Version, ErrTombstoned
	}
	return 0, errors.New(resp.Err)
}

// applyStore is the receive side of place (data is the inline body, or the
// one handleNotify pulled, ref the caller's reference to its buffer, which
// the store retains if it keeps the copy): the copy goes through the version- and
// tombstone-gated PutNewer, because a placement races foreground updates and
// deletes — a stale push must neither clobber a copy that went newer since
// the sender looked, nor resurrect a name a delete broadcast erased.
// FlagReplica lands it as a §6 replica. The response always carries the
// surviving version; a kept copy at least as new still answers OK, a
// tombstone refusal answers ErrTombstoned. sum, when a pull verified one, is
// remembered for the copy that landed.
func (p *Peer) applyStore(req *msg.Request, data []byte, ref *msg.Ref, sum crc, start time.Time) *msg.Response {
	kind := store.Inserted
	if req.Flags&msg.FlagReplica != 0 {
		kind = store.Replica
	}
	survived, res := p.store.PutNewer(store.File{Name: req.Name, Data: data, Version: req.Version, Ref: ref}, kind)
	p.mergeClock(req.Version)
	resp := &msg.Response{OK: res != store.PutTombstoned, ServedBy: uint32(p.cfg.PID), Version: survived}
	switch res {
	case store.PutTombstoned:
		resp.Err = ErrTombstoned.Error()
	case store.PutStale:
		if kind == store.Inserted {
			// The sender now relies on the copy kept here as its subtree's
			// authoritative one (a leaver deletes its own): if §6 put it
			// here as a replica, it stops being evictable.
			p.store.Promote(req.Name)
		}
	case store.PutApplied:
		p.stats.Stored.Add(1)
		p.sums.put(req.Name, req.Version, len(data), sum)
	}
	if req.Flags&msg.FlagTrace != 0 {
		// A traced placement (insert fan-out, repair push) records where
		// the copy landed, parented on the placing peer's hop.
		resp.Path = appendHop(req.Path, uint32(p.cfg.PID), msg.HopServe, time.Since(start))
	}
	return resp
}

// handleInsert places a new file on the primary holder of every subtree of
// its lookup tree (§2.2), all legs at once — the acknowledgement waits for
// the slowest subtree, not their sum. sum is the body's CRC-32C when a
// staged commit verified one.
func (p *Peer) handleInsert(req *msg.Request, sum crc) *msg.Response {
	start := time.Now()
	target := p.hasher.Target(req.Name, p.cfg.M)
	v := p.view(target)
	// Holders of a body too large to ride a placement inline pull it from
	// this peer — another primary when a locate client entered at one, else
	// a peer holding no copy itself: it sits in the outbox while the legs
	// run, its sum remembered so neither the notifies nor the pulls' head
	// chunks pass over it.
	parked := !msg.NotifyInline(len(req.Data))
	var buf [8]bitops.PID // a typical set fits on the stack
	holders := v.AppendPrimaries(buf[:0])
	// Entering at a primary is what a locate client's peer-table snapshot
	// aims for (Client.insertEntry); anywhere else the body takes one more
	// hop than the placement needs.
	atPrimary := slices.Contains(holders, p.cfg.PID)
	if atPrimary {
		p.stats.WritesAtHolder.Add(1)
	} else {
		p.stats.WritesRemote.Add(1)
	}
	var ref *msg.Ref
	if parked || atPrimary {
		ref = req.Keep() // the local store, or the outbox, holds Data from here on
		defer ref.Release()
	}
	// A traced insert spreads its trace onto every placement leg: the
	// fan-out root here, one HopServe per holder that took the copy.
	var tr *legTrace
	if req.Flags&msg.FlagTrace != 0 {
		tr = &legTrace{id: req.TraceID, path: p.fanoutRoot(req, 0)}
	}
	f := store.File{Name: req.Name, Data: req.Data, Version: p.clock.Add(1), Ref: ref}
	stored := 0
	var legErr error // why a leg failed, for an insert no holder took
	// A tombstone refusal means the name was deleted at a version this
	// peer's clock has never seen (the deleting peer may never have talked
	// to us). Merge the tombstone version and restamp strictly above it,
	// then re-place everywhere, so the re-insert supersedes the delete at
	// every holder instead of landing below it at some and being erased by
	// anti-entropy later. Bounded retries cover a concurrent delete
	// landing an even newer tombstone mid-insert.
	for attempt := 0; attempt < 3; attempt++ {
		if parked {
			p.outbox.put(f)
		}
		p.sums.put(f.Name, f.Version, len(f.Data), sum)
		var (
			wg    sync.WaitGroup
			mu    sync.Mutex
			tombV uint64
		)
		stored = 0
		leg := func(h bitops.PID) {
			survived, err := p.place(h, f, 0, &p.stats.PlacedInsert, tr)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				stored++
			case errors.Is(err, ErrTombstoned):
				tombV = max(tombV, survived)
			default:
				legErr = err
			}
		}
		for i, h := range holders {
			if i == len(holders)-1 {
				leg(h) // the last leg runs on this goroutine
				break
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				leg(h)
			}()
		}
		wg.Wait()
		if parked {
			p.outbox.remove(f.Name, f.Version) // every leg has pulled or failed
		}
		if tombV < f.Version {
			break
		}
		p.mergeClock(tombV)
		f.Version = p.clock.Add(1)
	}
	if stored == 0 {
		errStr := "netnode: no live holder for insert"
		if legErr != nil {
			errStr += ": " + legErr.Error() // a holder of another epoch is named so
		}
		return p.faultResponse(req, start, errStr)
	}
	return &msg.Response{
		OK: true, ServedBy: uint32(target), Version: f.Version,
		Path: append(p.fanoutRoot(req, time.Since(start)), tr.take()...),
	}
}

// handleGet is §2.2's GETFILE step: serve the file if held, else forward
// the get along the lookup tree. A body past one frame is answered with its
// head (headAnswer); the get counts the §6 access and one serve either way.
func (p *Peer) handleGet(req *msg.Request) *msg.Response {
	start := time.Now()
	if f, ok := p.store.Get(req.Name); ok {
		resp := &msg.Response{
			OK: true, ServedBy: uint32(p.cfg.PID), Hops: req.Hops,
			Version: f.Version, Data: f.Data,
		}
		if len(f.Data) > msg.MaxData {
			p.headAnswer(resp, f)
		}
		resp.Attach(f.Ref) // the read's reference ends once the answer is written
		elapsed := time.Since(start)
		p.stats.Served.Add(1)
		p.obs.serve.ObserveDuration(elapsed)
		if req.Flags&msg.FlagTrace != 0 {
			resp.Path = appendHop(req.Path, uint32(p.cfg.PID), msg.HopServe, elapsed)
		}
		return resp
	}
	defer func() { p.obs.forward.ObserveDuration(time.Since(start)) }()
	return p.forwardLookup(req, start)
}

// headAnswer turns resp, the answer to a get of f, into the answer to a get
// of a body past one frame (msg.GetHead): the holders the rest can be
// fetched from, this one first, and the body's first chunk, a sub-slice of
// the stored body written from where it lives, as a fetch at offset 0 would
// answer it. The reader fetches the rest with ranges pinned to f.Version.
func (p *Peer) headAnswer(resp *msg.Response, f store.File) {
	first := p.firstChunk(f, stream.DefaultChunkSize)
	var buf [8]msg.Holder
	hdr, err := msg.AppendGetHeadHeader(nil, p.appendHolders(buf[:0], f.Name, f.Version), &first)
	if err != nil {
		*resp = msg.Response{Err: fmt.Sprintf("netnode: get head encode: %v", err)}
		return
	}
	resp.Head, resp.Data, resp.Tail = true, hdr, first.Chunk
}

// forwardLookup relays an unserved lookup along the lookup tree — shared
// by relay gets and locates, which walk identical hops and differ only in
// what the holder answers (payload vs location). Each forward is one step
// of ptree.View.Next on the routing state the request carries (Origin,
// Subtree, FlagFallback); the entry peer stamps itself as the Origin, so
// §4 re-enters every subtree at the requester's position. A failed forward
// is not final: the failure feeds the detector, and once the dead hop's
// liveness bit flips, recomputing the step routes around it (§3/§5 over
// the wire) — so a lookup survives a silently crashed peer within a bounded
// number of RPC deadlines. The attempt budget guarantees at least one
// recomputation after the detector threshold is crossed.
func (p *Peer) forwardLookup(req *msg.Request, start time.Time) *msg.Response {
	st := ptree.Route{Origin: bitops.PID(req.Origin), Subtree: req.Subtree,
		Fallback: req.Flags&msg.FlagFallback != 0}
	if req.Hops == 0 {
		st.Origin = p.cfg.PID
	}
	target := p.hasher.Target(req.Name, p.cfg.M)
	attempts := p.tr.Config().FailThreshold + 1
	var lastErr error
	var lastHop bitops.PID
	for attempt := 0; attempt < attempts; attempt++ {
		next, nst, action, ok := p.view(target).Next(p.cfg.PID, st)
		if !ok {
			return p.faultResponse(req, start, "netnode: file not found (fault)")
		}
		fwd := *req
		fwd.Hops++
		fwd.Origin = uint32(nst.Origin)
		fwd.Subtree = nst.Subtree
		fwd.Flags &^= msg.FlagFallback
		if nst.Fallback {
			fwd.Flags |= msg.FlagFallback
		}
		if req.Flags&msg.FlagTrace != 0 {
			fwd.Path = appendHop(req.Path, uint32(p.cfg.PID), action, time.Since(start))
		}
		p.stats.Forwards.Add(1)
		resp, err := p.call(next, &fwd)
		if err == nil {
			if resp.OK && req.Kind == msg.KindGet {
				p.stats.RelayedBytes.Add(uint64(len(resp.Data)))
			}
			if req.Hops == 0 && resp.OK && req.Flags&msg.FlagTrace != 0 {
				p.checkRoute(target, resp.Path[min(len(req.Path), len(resp.Path)):], bitops.PID(resp.ServedBy))
			}
			return &resp
		}
		lastErr, lastHop = err, next
		if errors.Is(err, transport.ErrEpoch) {
			break // the detector does not count it: the step would pick the same hop
		}
	}
	return p.faultResponse(req, start,
		fmt.Sprintf("netnode: forward to P(%d) failed: %v", lastHop, lastErr))
}

// checkRoute counts a traced lookup, answered back at its entry peer, whose
// hops differ from the loop of ptree.View.Next this peer runs from itself
// to the reported server (route_divergence): two peers routing one request
// on different liveness views.
func (p *Peer) checkRoute(target bitops.PID, hops []msg.Hop, server bitops.PID) {
	v := p.view(target)
	cur, st := p.cfg.PID, ptree.Route{Origin: p.cfg.PID}
	for i, h := range hops {
		if bitops.PID(h.PID) != cur {
			break
		}
		if cur == server {
			if i == len(hops)-1 {
				return
			}
			break
		}
		next, nst, _, ok := v.Next(cur, st)
		if !ok {
			break
		}
		cur, st = next, nst
	}
	p.stats.RouteDivergence.Add(1)
}

// faultResponse finalizes a lookup this peer can neither serve nor forward,
// or a fan-out that reached no copy. A traced fault carries the path
// accumulated so far, closed with a terminal fault hop — the partial route
// is exactly what an operator needs to see where routing died, and exactly
// what an OK response would have carried.
func (p *Peer) faultResponse(req *msg.Request, start time.Time, errStr string) *msg.Response {
	p.stats.Faults.Add(1)
	resp := &msg.Response{Hops: req.Hops, Err: errStr}
	if req.Flags&msg.FlagTrace != 0 {
		resp.Path = appendHop(req.Path, uint32(p.cfg.PID), msg.HopFault, time.Since(start))
	}
	return resp
}

// initiate starts the broadcast that carries a client's update or delete to
// every copy of the name (docs/ROUTING.md "Broadcast") — the only entry for
// either, at any size; a staged upload's update commit lands here too, with
// the sum it verified.
func (p *Peer) initiate(req *msg.Request, sum crc) *msg.Response {
	start := time.Now()
	target := p.hasher.Target(req.Name, p.cfg.M)
	// A holder initiating its own broadcast reads the current version for
	// free; the at-holder / remote split is what the hint-guided write entry
	// optimizes.
	if p.store.Has(req.Name) {
		p.stats.WritesAtHolder.Add(1)
	} else {
		p.stats.WritesRemote.Add(1)
	}
	// Learn the file's current version through a locate walk (this peer may
	// never have seen the file; the walk relays no payload), then stamp a
	// strictly newer one, Lamport-style: an update supersedes every copy,
	// and a delete leaves tombstones that dominate the copies it erased —
	// the version anti-entropy compares against before re-propagating a
	// copy a partitioned peer brings back (docs/REPAIR.md).
	probe := p.handleLocateSet(&msg.Request{Kind: msg.KindLocateSet, Name: req.Name})
	if probe.OK {
		p.mergeClock(probe.Version)
	}
	prop := *req
	prop.Flags |= msg.FlagPropagate
	prop.Version = p.clock.Add(1)
	// A traced initiation roots the fan-out tree here: the HopFanout record
	// travels in prop.Path so every delivery parents on it, and the answer
	// carries the whole assembled tree.
	prop.Path = p.fanoutRoot(req, 0)
	fo := fanout{v: p.view(target), col: newHopCollector(req)}
	touched := 0
	if req.Kind == msg.KindUpdate {
		// The tree carries only the transfer facts and every holder pulls
		// the body from here, so it is kept (on the copy — req stays the
		// caller's) and parked in the outbox, this peer perhaps holding no
		// copy itself. broadcast returns once every leg has pulled or failed
		// (failed legs converge through repair), so the body has no reader
		// left when the entry goes; the remove is version-exact. The body's
		// sum — the sender's one pass, unless a staged commit already
		// verified it — goes into the notify and is remembered for the pulls.
		// A copy held here takes the body before any leg starts: the
		// broadcast finds it applied when it reaches this peer (propagate).
		ref := prop.Keep()
		defer ref.Release()
		f := store.File{Name: prop.Name, Data: prop.Data, Version: prop.Version, Ref: ref}
		p.outbox.put(f)
		defer p.outbox.remove(f.Name, f.Version)
		p.sums.put(f.Name, f.Version, len(f.Data), sum)
		size := uint64(len(f.Data))
		body, err := msg.AppendNotifyReq(nil, &msg.NotifyReq{
			TotalSize: size, FileCRC: p.fileSum(f),
			Sources: []msg.Holder{{PID: uint32(p.cfg.PID), Addr: p.Addr(), Version: f.Version}},
		})
		if err != nil {
			return p.faultResponse(req, start, fmt.Sprintf("netnode: notify encode: %v", err))
		}
		prop.Kind, prop.Data, fo.rpcTO, fo.own = msg.KindNotify, body, stream.PullDeadline(size), true
		p.propMu.RLock()
		if p.store.UpdateFile(f) {
			p.mergeClock(f.Version)
			touched++
		}
		p.propMu.RUnlock()
	}
	touched += p.broadcast(fo, &prop)
	if touched == 0 {
		errStr := fmt.Sprintf("netnode: %s found no copy", req.Kind)
		if !probe.OK {
			errStr += ": " + probe.Err // why: a holder of another epoch is named so
		}
		return p.faultResponse(req, start, errStr)
	}
	if req.Kind == msg.KindUpdate {
		p.stats.Updated.Add(1)
	}
	return &msg.Response{
		OK: true, ServedBy: uint32(target), Hops: uint32(touched), Version: prop.Version,
		Path: append(p.fanoutRoot(req, time.Since(start)), fo.col.take()...),
	}
}

// fanoutRoot is the route of a fan-out this peer roots, nil when req is
// untraced: req's path closed with a HopFanout record. With d zero it is
// what the legs carry, so every leg's hop parents on the root; with the
// elapsed time it opens the answer, ahead of the hops the legs brought back.
func (p *Peer) fanoutRoot(req *msg.Request, d time.Duration) []msg.Hop {
	if req.Flags&msg.FlagTrace == 0 {
		return nil
	}
	return appendHop(req.Path, uint32(p.cfg.PID), msg.HopFanout, d)
}

// fanoutSem builds the bounded semaphore one broadcast's RPC legs share:
// min(FanoutWorkers, legs) slots. Slots are held only for the duration of
// a single RPC, never across a subtree recursion, so nested deliveries
// cannot deadlock on their ancestors' slots.
func (p *Peer) fanoutSem(legs int) chan struct{} {
	n := p.fanoutWorkers
	if legs < n {
		n = legs
	}
	if n < 1 {
		n = 1
	}
	return make(chan struct{}, n)
}

// fanout is what every leg of one broadcast step has in common: the tree
// view it walks, the semaphore bounding its RPCs in flight, the trace
// collector (nil when untraced) and the delivery deadline. A notify delivery
// answers only after the receiving holder has pulled the body and its
// subtree has recursed, so its bound scales with the size the notify
// declares; 0, a delete's, keeps the transport's flat deadline. Passed by
// value: each step owns its copy.
type fanout struct {
	v     ptree.View
	sem   chan struct{}
	col   *hopCollector
	rpcTO time.Duration
	// own marks the steps a broadcast's initiator runs itself, whose copy
	// was updated before the legs started (initiate).
	own bool
}

// broadcast starts the top-down children-list broadcast of a propagation
// request (an update's notify, or a delete) at each subtree's root
// position — or at the root's expanded children when it is dead — and
// returns copies touched. The per-subtree legs run concurrently through a bounded
// semaphore, and each remote delivery recurses in parallel on its own
// peer, so broadcast latency tracks the tree depth instead of the copy
// count.
func (p *Peer) broadcast(fo fanout, prop *msg.Request) int {
	// fo.v's liveness snapshot covers every subtree-root check, the same
	// one the children lists below come from.
	starts := fo.v.AppendBroadcastStarts(nil)
	p.obs.fanout.Observe(uint64(len(starts)))
	fo.sem = p.fanoutSem(len(starts))
	return p.deliverAll(fo, starts, prop)
}

// deliverAll delivers a propagation message to every target concurrently
// and returns the exact sum of copies touched. The last target is
// delivered on the calling goroutine — for a single target, no goroutine
// at all.
func (p *Peer) deliverAll(fo fanout, targets []bitops.PID, prop *msg.Request) int {
	switch len(targets) {
	case 0:
		return 0
	case 1:
		return p.deliver(fo, targets[0], prop)
	}
	// One value, so each leg's closure holds one pointer to it beside fo.
	var legs struct {
		sync.WaitGroup
		touched atomic.Int64
	}
	last := len(targets) - 1
	for _, t := range targets[:last] {
		legs.Add(1)
		go func() {
			defer legs.Done()
			legs.touched.Add(int64(p.deliver(fo, t, prop)))
		}()
	}
	n := p.deliver(fo, targets[last], prop)
	legs.Wait()
	return n + int(legs.touched.Load())
}

// deliver sends a propagation message to pid (handling it locally when pid
// is this peer) and returns how many copies it touched downstream. The
// semaphore slot is held only around the RPC itself. When the RPC fails
// outright — the peer crashed without a register-dead — the broadcast
// would silently lose pid's whole branch, so it degrades by routing
// through pid's expanded children list (§3) instead; the failed call has
// already fed the detector, so the liveness bit catches up.
func (p *Peer) deliver(fo fanout, pid bitops.PID, prop *msg.Request) int {
	if pid == p.cfg.PID {
		return p.propagate(fo, prop)
	}
	p.stats.Broadcast.Add(1)
	p.stats.FanoutBytes.Add(uint64(len(prop.Data)))
	fo.sem <- struct{}{}
	p.stats.FanoutActive.Add(1)
	resp, err := p.callTimeout(pid, prop, fo.rpcTO)
	p.stats.FanoutActive.Add(-1)
	<-fo.sem
	if err == nil {
		if !resp.OK {
			return 0
		}
		// A traced delivery answers with its branch's new hops only;
		// splice them into this fan-out's assembly.
		fo.col.add(resp.Path...)
		return int(resp.Hops)
	}
	return p.deliverAll(fo, fo.v.ExpandedChildrenList(pid), prop)
}

// handleDelivery serves one leg of a broadcast — the FlagPropagate form of
// a notify (an update's leg) or a delete. A traced delivery answers with
// only its branch's new hops; the initiator (or the upstream holder) splices
// them into the assembled tree.
func (p *Peer) handleDelivery(req *msg.Request) *msg.Response {
	fo := fanout{v: p.view(p.hasher.Target(req.Name, p.cfg.M)), col: newHopCollector(req)}
	n := p.propagate(fo, req)
	return &msg.Response{OK: true, ServedBy: uint32(p.cfg.PID), Hops: uint32(n), Path: fo.col.take()}
}

// propagate is the per-holder step of every broadcast: apply the message to
// the local copy, then re-broadcast it down this peer's expanded children
// list in parallel; a non-holder discards without forwarding. The apply
// comes first for every kind — a delete in particular erases here before
// its children hear of it, so a racing Leave snapshots either the
// pre-delete copy or the fully post-delete state, never a copy the children
// have already erased (handing that to a successor would resurrect the
// name). Returns copies touched in this branch.
//
// The applies take propMu's read side around the local store mutation only,
// never across an RPC or a pull, so a pending Leave (the write side) cannot
// deadlock in-flight deliveries. Without it, a leave racing the broadcast
// can snapshot the copy just before the rewrite lands and hand the stale
// version to its successor. With it, Leave's handoff runs either wholly
// before the mutation (the copy has moved: nothing is rewritten here, and
// the fan-out below reaches the successor that now holds it) or wholly
// after (the handed-off copy carries the rewrite).
func (p *Peer) propagate(fo fanout, req *msg.Request) int {
	start := time.Now()
	var (
		held, applied bool
		pullTO        time.Duration
	)
	switch {
	case req.Kind == msg.KindDelete:
		held = p.applyErase(req.Name, req.Version)
		applied = held
	case fo.own:
		held = p.store.Has(req.Name) // updated already, by initiate
	default:
		held, applied, pullTO = p.applyBody(req)
	}
	if !held {
		return 0
	}
	kids := fo.v.ExpandedChildrenList(p.cfg.PID)
	if fo.sem == nil {
		// Delivered over the wire: this peer roots the recursion below it,
		// with a semaphore sized to its own legs.
		fo.sem, fo.rpcTO = p.fanoutSem(len(kids)), pullTO
	}
	fwd := req
	if fo.col != nil {
		// A traced holder contributes one HopDeliver record, parented on the
		// upstream peer's hop (the tail of req.Path), and forwards with its
		// own hop appended, so the collected records assemble into the tree.
		hop := *req
		hop.Path = appendHop(req.Path, uint32(p.cfg.PID), msg.HopDeliver, time.Since(start))
		if len(hop.Path) > len(req.Path) {
			fo.col.add(hop.Path[len(hop.Path)-1])
		}
		fwd = &hop
	}
	n := p.deliverAll(fo, kids, fwd)
	if applied {
		n++
	}
	return n
}

// applyBody is the local apply of an update delivery: a holder whose copy
// is behind the stamped version pulls the body from the sources the notify
// lists and rewrites its copy. A non-holder (most legs) finds that out from
// the store's version, before the notify is decoded; a duplicate or stale
// delivery before any body is pulled. A failed pull skips only this apply:
// the branch below still gets the notify and pulls from the upstream
// sources, while this replica converges via the repair plane instead of
// cutting its whole subtree off the broadcast. After an apply, req.Data
// is rewritten to list this peer as one more source, so later legs stripe
// across converged siblings — req is the delivery's own, a wire request
// its handler holds (the initiator's steps do not come here). pullTO is
// the deadline the onward legs need (fanout).
func (p *Peer) applyBody(req *msg.Request) (held, applied bool, pullTO time.Duration) {
	v, held := p.store.Version(req.Name)
	if !held {
		return
	}
	nr, err := msg.DecodeNotifyReq(req.Data)
	if err != nil {
		return false, false, 0 // discarded, like a delivery for a name not held
	}
	pullTO = stream.PullDeadline(nr.TotalSize)
	if v >= req.Version {
		p.mergeClock(req.Version)
		return
	}
	body, err := p.pullBody(req.Name, req.Version, nr)
	if err != nil {
		return
	}
	p.propMu.RLock()
	applied = p.store.UpdateFile(body)
	p.mergeClock(req.Version)
	p.propMu.RUnlock()
	body.Release() // the store holds its own reference if it kept the copy
	if !applied {
		return
	}
	// The pull verified the body against this sum: a sibling pulling from
	// here, and every later get, is served without a whole-file pass.
	p.sums.put(req.Name, req.Version, len(body.Data), crc{nr.FileCRC, true})
	if relisted, err := msg.AppendNotifySource(req.Data, msg.Holder{
		PID: uint32(p.cfg.PID), Addr: p.Addr(), Version: req.Version,
	}); err == nil { // a full list stays as it is
		req.Data = relisted
	}
	return
}

// applyErase erases the local copy of name at version and reports whether
// there was one. The erase leaves a versioned tombstone behind, so a stale
// push cannot re-plant the copy and anti-entropy propagates the deletion
// rather than the corpse.
func (p *Peer) applyErase(name string, version uint64) bool {
	p.propMu.RLock()
	removed := p.store.Tombstone(name, version, time.Now())
	p.propMu.RUnlock()
	if removed {
		p.mergeClock(version)
	}
	return removed
}

// handleStat serves the status snapshot: the one-line "k=v" text by
// default, or — with FlagJSON — the structured StatSnapshot as JSON.
// FlagInventory additionally includes the full per-name inventory (the
// fleet scraper's replica-count and hot-name substrate), which is too
// large to ship on every stat poll.
func (p *Peer) handleStat(req *msg.Request) *msg.Response {
	if req != nil && req.Flags&msg.FlagJSON != 0 {
		data, err := json.Marshal(p.statSnapshot(req.Flags&msg.FlagInventory != 0))
		if err != nil {
			return &msg.Response{Err: fmt.Sprintf("netnode: stat snapshot: %v", err)}
		}
		return &msg.Response{OK: true, ServedBy: uint32(p.cfg.PID), Data: data}
	}
	summary := fmt.Sprintf("pid=%d %s live=%d", p.cfg.PID, p.store, p.rt().live.LiveCount())
	summary += fmt.Sprintf(" detector-down=%d peers-down=%d peers-up=%d %s",
		p.det.DownCount(), p.stats.PeersDown.Load(), p.stats.PeersUp.Load(), p.tr.Counters())
	return &msg.Response{OK: true, ServedBy: uint32(p.cfg.PID), Data: []byte(summary)}
}

// call performs one request/response exchange with pid through the peer's
// transport (deadlines, retries, pooling) and feeds the outcome to the
// failure detector: enough consecutive failures clear pid's liveness bit,
// and a later success restores it. req is only read and the answer comes
// back by value (transport.Exchange), so a caller that reads it and moves
// on allocates neither envelope.
func (p *Peer) call(pid bitops.PID, req *msg.Request) (msg.Response, error) {
	return p.callTimeout(pid, req, 0)
}

// callTimeout is call with a per-exchange deadline floor (see
// transport.Exchange): notify deliveries block on the receiving holder
// pulling the whole body, so their deadline scales with the payload the
// notify describes instead of the flat RPC bound sized for control
// frames. rpcTO 0 keeps the transport's configured deadline.
func (p *Peer) callTimeout(pid bitops.PID, req *msg.Request, rpcTO time.Duration) (msg.Response, error) {
	addr, ok := p.rt().addrs[pid]
	if !ok {
		return msg.Response{}, fmt.Errorf("netnode: no address for P(%d)", pid)
	}
	resp, err := p.tr.Exchange(addr, *req, rpcTO)
	p.det.Observe(uint32(pid), err)
	return resp, err
}

// Probe sends a lightweight stat exchange to pid, feeding the failure
// detector: a successful probe restores a peer the detector had declared
// dead (e.g. after a transient partition heals, without a full rejoin).
func (p *Peer) Probe(pid bitops.PID) error {
	_, err := p.call(pid, &msg.Request{Kind: msg.KindStat})
	return err
}

// Transport returns the peer's RPC transport, exposing its counters.
func (p *Peer) Transport() *transport.Transport { return p.tr }

// Detector returns the peer's failure detector.
func (p *Peer) Detector() *transport.Detector { return p.det }

// defaultTransport backs the package-level Call and NewClient: deadlines
// and retries but no pooling, so casual callers never hold sockets open.
var defaultTransport = sync.OnceValue(func() *transport.Transport {
	return transport.New(transport.Config{PoolSize: -1}, nil)
})

// Call performs one request/response exchange with the peer at addr under
// the default transport's deadlines.
func Call(addr string, req *msg.Request) (*msg.Response, error) {
	return defaultTransport().Do(addr, req)
}
