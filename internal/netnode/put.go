package netnode

// The peer side of the chunked write plane (docs/ROUTING.md "write
// plane"): staged uploads (KindPut) assemble a payload chunk by chunk in
// an in-memory table that is deliberately outside the store — the
// Persister/WAL hook fires only when the commit lands the assembled file
// through the normal insert/update paths, so a partial upload is never
// visible to reads and never durable across a crash. Pull-based
// propagation (KindNotify) is the update broadcast's payload-free twin:
// the tree carries only the transfer facts (size, checksum, pull
// sources), each delivered holder pulls the body over the chunked data
// plane from the origin or an already-converged sibling, and the origin
// keeps the committed bytes in a short-lived outbox so it can serve the
// pulls even when it is not itself a holder.

import (
	"fmt"
	"hash/crc32"
	"sync"
	"time"

	"lesslog/internal/bitops"
	"lesslog/internal/msg"
	"lesslog/internal/ptree"
	"lesslog/internal/stream"
)

// Staging and outbox bounds. The caps bound a peer's write-plane memory:
// staging at the worst case of maxUploadSessions full-size transfers, the
// outbox at the committed payloads still being pulled by in-flight
// broadcasts. The TTLs reclaim sessions whose uploader died mid-transfer
// and outbox entries whose initiating handler died before removing them.
const (
	maxUploadSessions = 64
	maxStagedBytes    = 256 << 20
	uploadTTL         = 2 * time.Minute
	maxOutboxBytes    = 256 << 20
	outboxTTL         = 2 * time.Minute
)

// upload is one staging session: the declared transfer shape and the
// buffer being assembled. got maps chunk offsets to lengths so a
// retransmitted chunk (same offset, same length) counts its bytes once,
// while a contradictory one kills the session rather than splice payloads.
type upload struct {
	name     string
	total    uint64
	fileCRC  uint32
	buf      []byte
	got      map[uint64]int
	gotBytes uint64
	deadline time.Time
}

// uploadTable holds a peer's open staging sessions, keyed by token.
// Tokens start at 1 — the zero token is the wire protocol's "open a new
// session" marker. Expired sessions are pruned lazily under the same
// lock every access takes; the returned prune count feeds StagedAborts.
type uploadTable struct {
	mu    sync.Mutex
	seq   uint64
	m     map[uint64]*upload
	bytes uint64
}

// prune drops expired sessions. Caller holds mu.
func (t *uploadTable) prune(now time.Time) uint64 {
	var n uint64
	for tok, u := range t.m {
		if now.After(u.deadline) {
			t.bytes -= u.total
			delete(t.m, tok)
			n++
		}
	}
	return n
}

// stage applies one PutData frame: opens a session on token 0, otherwise
// verifies the frame against the opened shape and copies the chunk in.
func (t *uploadTable) stage(name string, pr *msg.PutReq) (token uint64, pruned uint64, err error) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	pruned = t.prune(now)
	if pr.Token == 0 {
		if pr.Offset != 0 {
			return 0, pruned, fmt.Errorf("netnode: upload must open at offset 0")
		}
		if len(t.m) >= maxUploadSessions || t.bytes+pr.TotalSize > maxStagedBytes {
			return 0, pruned, fmt.Errorf("netnode: upload staging full")
		}
		if t.m == nil {
			t.m = make(map[uint64]*upload)
		}
		t.seq++
		token = t.seq
		u := &upload{
			name: name, total: pr.TotalSize, fileCRC: pr.FileCRC,
			buf: make([]byte, pr.TotalSize), got: make(map[uint64]int),
		}
		t.m[token] = u
		t.bytes += pr.TotalSize
		return token, pruned + t.stageChunk(u, token, pr, now), nil
	}
	u, ok := t.m[pr.Token]
	if !ok {
		return 0, pruned, fmt.Errorf("netnode: unknown upload session")
	}
	if u.name != name || u.total != pr.TotalSize || u.fileCRC != pr.FileCRC {
		t.dropLocked(pr.Token)
		return 0, pruned + 1, fmt.Errorf("netnode: put frame contradicts opened session")
	}
	return pr.Token, pruned + t.stageChunk(u, pr.Token, pr, now), nil
}

// stageChunk copies one verified chunk into the session buffer. Caller
// holds mu. A same-offset same-length frame is an idempotent retry; a
// same-offset different-length frame can only splice two transfers, so
// the session dies (returned as a prune for the abort counter) and err
// stays nil — the caller surfaces the contradiction on the next frame.
func (t *uploadTable) stageChunk(u *upload, token uint64, pr *msg.PutReq, now time.Time) uint64 {
	if prev, dup := u.got[pr.Offset]; dup {
		if prev == len(pr.Chunk) {
			copy(u.buf[pr.Offset:], pr.Chunk)
			u.deadline = now.Add(uploadTTL)
			return 0
		}
		t.dropLocked(token)
		return 1
	}
	copy(u.buf[pr.Offset:], pr.Chunk)
	u.got[pr.Offset] = len(pr.Chunk)
	u.gotBytes += uint64(len(pr.Chunk))
	u.deadline = now.Add(uploadTTL)
	return 0
}

// dropLocked removes one session. Caller holds mu.
func (t *uploadTable) dropLocked(token uint64) bool {
	u, ok := t.m[token]
	if !ok {
		return false
	}
	t.bytes -= u.total
	delete(t.m, token)
	return true
}

// drop removes one session (PutAbort), reporting whether it existed.
func (t *uploadTable) drop(token uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropLocked(token)
}

// take removes and returns the session a commit addresses.
func (t *uploadTable) take(token uint64) (*upload, uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	pruned := t.prune(time.Now())
	u := t.m[token]
	if u != nil {
		t.dropLocked(token)
	}
	return u, pruned
}

// outEntry is one committed payload parked for pull-based propagation.
type outEntry struct {
	version uint64
	data    []byte
	expires time.Time
}

// outbox parks the bytes of a pull-propagated write at its origin until
// the broadcast tree has pulled them — the origin may not be a holder
// itself, and even a holder's store copy can be superseded again while
// slow legs are still fetching this version. The initiator removes its
// entry when the broadcast returns, which is after every leg has pulled or
// failed; the TTL only bounds an entry whose initiator never got there.
// Bounded by evicting the entries closest to expiry; a pull that misses
// falls back to the other listed sources and, past those, to the repair
// plane.
type outbox struct {
	mu      sync.Mutex
	entries map[string]*outEntry
	bytes   uint64
}

func (o *outbox) put(name string, version uint64, data []byte) {
	now := time.Now()
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.entries == nil {
		o.entries = make(map[string]*outEntry)
	}
	if e, ok := o.entries[name]; ok {
		if version < e.version {
			return
		}
		o.bytes -= uint64(len(e.data))
		delete(o.entries, name)
	}
	for o.bytes+uint64(len(data)) > maxOutboxBytes && len(o.entries) > 0 {
		var victim string
		var soonest time.Time
		for n, e := range o.entries {
			if victim == "" || e.expires.Before(soonest) {
				victim, soonest = n, e.expires
			}
		}
		o.bytes -= uint64(len(o.entries[victim].data))
		delete(o.entries, victim)
	}
	o.entries[name] = &outEntry{version: version, data: data, expires: now.Add(outboxTTL)}
	o.bytes += uint64(len(data))
}

// remove drops name's entry if it still parks exactly this version — a
// newer write of the same name has replaced it otherwise, and that entry
// is its own initiator's to remove. A fetch handler already serving from
// the entry keeps its slice; only later lookups miss.
func (o *outbox) remove(name string, version uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if e, ok := o.entries[name]; ok && e.version == version {
		o.bytes -= uint64(len(e.data))
		delete(o.entries, name)
	}
}

// get answers name's parked payload when it matches the pin (0 accepts
// any version).
func (o *outbox) get(name string, pin uint64) ([]byte, uint64, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	e, ok := o.entries[name]
	if !ok || time.Now().After(e.expires) || (pin != 0 && e.version != pin) {
		return nil, 0, false
	}
	return e.data, e.version, true
}

// handlePut is the staged-upload entry point: data frames stage, abort
// drops, insert/update commits route the assembled payload through the
// normal write paths. Always a direct client↔peer exchange, never
// forwarded — the client already chose its entry peer.
func (p *Peer) handlePut(req *msg.Request) *msg.Response {
	pr, err := msg.DecodePutReq(req.Data)
	if err != nil {
		return &msg.Response{Err: fmt.Sprintf("netnode: put decode: %v", err)}
	}
	switch pr.Op {
	case msg.PutData:
		return p.putStage(req, pr)
	case msg.PutAbort:
		if p.uploads.drop(pr.Token) {
			p.stats.StagedAborts.Add(1)
		}
		return &msg.Response{OK: true, ServedBy: uint32(p.cfg.PID)}
	default:
		return p.putCommit(req, pr)
	}
}

// putStage verifies and stages one chunk. The chunk CRC check happens
// before the table touch so a corrupted frame leaves the session intact
// for the uploader's retry. The session token rides the response Version
// field. Staging copies the chunk into the session buffer, so this handler
// is the last user of the request's frame buffer (pr.Chunk points into it)
// and releases it for the next chunk to be read into.
func (p *Peer) putStage(req *msg.Request, pr *msg.PutReq) *msg.Response {
	defer req.Release()
	if crc32.Checksum(pr.Chunk, castagnoli) != pr.ChunkCRC {
		return &msg.Response{Err: "netnode: put chunk failed CRC"}
	}
	token, pruned, err := p.uploads.stage(req.Name, pr)
	p.stats.StagedAborts.Add(pruned)
	if err != nil {
		return &msg.Response{Err: err.Error()}
	}
	p.stats.WriteChunks.Add(1)
	p.stats.WriteBytes.Add(uint64(len(pr.Chunk)))
	return &msg.Response{OK: true, ServedBy: uint32(p.cfg.PID), Version: token}
}

// putCommit completes a staged upload: the whole-file CRC over the
// assembled buffer is the authoritative completeness check (unfilled
// ranges are zeros and cannot match), then the payload enters the normal
// insert or update path — which is where versions are stamped and the
// store's Persister/WAL hook fires, making this the first durable moment
// of the transfer.
func (p *Peer) putCommit(req *msg.Request, pr *msg.PutReq) *msg.Response {
	u, pruned := p.uploads.take(pr.Token)
	p.stats.StagedAborts.Add(pruned)
	if u == nil {
		return &msg.Response{Err: "netnode: unknown upload session"}
	}
	if u.name != req.Name || u.total != pr.TotalSize || u.fileCRC != pr.FileCRC ||
		u.gotBytes != u.total || crc32.Checksum(u.buf, castagnoli) != u.fileCRC {
		p.stats.StagedAborts.Add(1)
		return &msg.Response{Err: "netnode: upload incomplete or corrupt"}
	}
	inner := &msg.Request{
		Origin: req.Origin, Flags: req.Flags &^ msg.FlagPropagate,
		Name: req.Name, Data: u.buf, TraceID: req.TraceID, Path: req.Path,
	}
	if pr.Op == msg.PutInsert {
		inner.Kind = msg.KindInsert
		return p.handleInsert(inner)
	}
	inner.Kind = msg.KindUpdate
	if len(u.buf) > msg.MaxData {
		// Over one frame, the whole-frame broadcast cannot carry the
		// payload at all: pull-based propagation is the only shape.
		start := time.Now()
		target := p.hasher.Target(req.Name, p.cfg.M)
		if p.store.Has(req.Name) {
			p.stats.WritesAtHolder.Add(1)
		} else {
			p.stats.WritesRemote.Add(1)
		}
		return p.initNotifyUpdate(inner, p.view(target), start, target)
	}
	return p.handleUpdate(inner)
}

// notifyEligible decides whether an update of n bytes propagates by
// notify/pull instead of pushing the payload down every broadcast leg.
// Over-frame payloads always do — no single frame can carry them; under
// that, the configured threshold governs (NotifyThreshold 0 selects
// DefaultNotifyThreshold, negative pins every in-frame update to the
// whole-frame push).
func (p *Peer) notifyEligible(n int) bool {
	if n > msg.MaxData {
		return true
	}
	th := p.cfg.NotifyThreshold
	if th == 0 {
		th = DefaultNotifyThreshold
	}
	return th > 0 && n >= th
}

// initNotifyUpdate initiates an update broadcast in pull form: stamp the
// version exactly like handleUpdate, park the payload in the outbox for as
// long as the broadcast runs, and fan out a payload-free notify naming
// this peer as the pull source.
func (p *Peer) initNotifyUpdate(req *msg.Request, v ptree.View, start time.Time, target bitops.PID) *msg.Response {
	if version, ok := p.probeVersion(req.Name); ok {
		p.mergeClock(version)
	}
	version := p.clock.Add(1)
	crc := crc32.Checksum(req.Data, castagnoli)
	// The outbox parks Data for pulls that may still be reading it after
	// this handler has answered, and a pulling holder stores those bytes.
	req.Keep()
	p.outbox.put(req.Name, version, req.Data)
	// broadcast returns once every leg has pulled or failed (failed legs
	// converge through repair), so the body has no reader left.
	defer p.outbox.remove(req.Name, version)
	body, err := msg.AppendNotifyReq(nil, &msg.NotifyReq{
		TotalSize: uint64(len(req.Data)), FileCRC: crc,
		Sources: []msg.Holder{{PID: uint32(p.cfg.PID), Addr: p.Addr(), Version: version}},
	})
	if err != nil {
		return p.faultResponse(req, start, fmt.Sprintf("netnode: notify encode: %v", err))
	}
	prop := &msg.Request{
		Kind: msg.KindNotify, Origin: req.Origin, Name: req.Name,
		Version: version, Flags: req.Flags | msg.FlagPropagate,
		TraceID: req.TraceID, Data: body,
	}
	col := newHopCollector(req)
	if col != nil {
		prop.Path = appendHop(req.Path, uint32(p.cfg.PID), msg.HopFanout, 0)
	}
	updated := p.broadcast(v, prop, col)
	if updated == 0 {
		p.stats.Faults.Add(1)
		resp := &msg.Response{Err: "netnode: update found no copy"}
		if col != nil {
			resp.Path = appendHop(req.Path, uint32(p.cfg.PID), msg.HopFault, time.Since(start))
		}
		return resp
	}
	p.stats.Updated.Add(1)
	resp := &msg.Response{OK: true, ServedBy: uint32(target), Hops: uint32(updated), Version: version}
	if col != nil {
		root := appendHop(req.Path, uint32(p.cfg.PID), msg.HopFanout, time.Since(start))
		resp.Path = append(root, col.take()...)
	}
	return resp
}

// handleNotify serves KindNotify: the propagate form is one delivery leg
// of a pull-based update broadcast, the direct form a placement of a body
// over one frame (place).
func (p *Peer) handleNotify(req *msg.Request) *msg.Response {
	nr, err := msg.DecodeNotifyReq(req.Data)
	if err != nil {
		return &msg.Response{Err: fmt.Sprintf("netnode: notify decode: %v", err)}
	}
	if req.Flags&msg.FlagPropagate == 0 {
		return p.notifyStore(req, nr)
	}
	v := p.view(p.hasher.Target(req.Name, p.cfg.M))
	col := newHopCollector(req)
	n := p.propagateNotify(v, req, nr, nil, col)
	return &msg.Response{OK: true, ServedBy: uint32(p.cfg.PID),
		Hops: uint32(n), Path: col.take()}
}

// propagateNotify applies one pull-propagation delivery: a holder whose
// copy is behind pulls the body from the listed sources, applies it under
// the same propMu/versions discipline as propagateUpdate, appends itself
// to the source list (so later legs stripe across converged siblings),
// and fans out to its expanded children. Non-holders discard without
// forwarding, exactly like a whole-frame propagate. A failed pull skips
// only the local apply — the fan-out still runs so the branch below pulls
// from the upstream sources, and this replica converges via the repair
// plane instead of silently cutting its whole subtree off the broadcast.
func (p *Peer) propagateNotify(v ptree.View, req *msg.Request, nr *msg.NotifyReq, sem chan struct{}, col *hopCollector) int {
	start := time.Now()
	f, held := p.store.Peek(req.Name)
	if !held {
		return 0
	}
	applied := false
	fwd := *req
	if f.Version < req.Version {
		if data, err := p.pullBody(req.Name, req.Version, nr); err == nil {
			// Same propMu discipline as propagateUpdate: the lock is held
			// only around the local store mutation, never across the pull
			// RPCs above or the fan-out below.
			p.propMu.RLock()
			if p.store.Has(req.Name) {
				applied = p.store.Update(req.Name, data, req.Version)
			}
			p.mergeClock(req.Version)
			p.propMu.RUnlock()
			if applied && len(nr.Sources) < msg.MaxHolders {
				srcs := append(append([]msg.Holder(nil), nr.Sources...),
					msg.Holder{PID: uint32(p.cfg.PID), Addr: p.Addr(), Version: req.Version})
				if body, err := msg.AppendNotifyReq(nil, &msg.NotifyReq{
					TotalSize: nr.TotalSize, FileCRC: nr.FileCRC, Sources: srcs,
				}); err == nil {
					fwd.Data = body
				}
			}
		}
	} else {
		p.mergeClock(req.Version)
	}
	kids := p.childTargets(v)
	if sem == nil {
		sem = p.fanoutSem(len(kids))
	}
	if col != nil {
		fwd.Path = appendHop(req.Path, uint32(p.cfg.PID), msg.HopDeliver, time.Since(start))
		if len(fwd.Path) > len(req.Path) {
			col.add(fwd.Path[len(fwd.Path)-1])
		}
	}
	n := 0
	if applied {
		n = 1
	}
	return n + p.deliverAll(v, kids, &fwd, sem, col)
}

// notifyStore receives a placement of a body over one frame: pull the body
// from the placing peer, then apply it exactly like a whole-frame store. A
// copy already at or past the notified version answers OK with the
// surviving version without pulling anything, like a stale push — the
// placement's goal (name present at least as new) holds.
func (p *Peer) notifyStore(req *msg.Request, nr *msg.NotifyReq) *msg.Response {
	start := time.Now()
	if f, ok := p.store.Peek(req.Name); ok && f.Version >= req.Version {
		// What applyStore does with a copy it keeps, without pulling a body
		// to refuse.
		p.mergeClock(req.Version)
		if req.Flags&msg.FlagReplica == 0 {
			p.store.Promote(req.Name)
		}
		return &msg.Response{OK: true, ServedBy: uint32(p.cfg.PID), Version: f.Version}
	}
	data, err := p.pullBody(req.Name, req.Version, nr)
	if err != nil {
		return &msg.Response{Err: fmt.Sprintf("netnode: notify pull: %v", err)}
	}
	return p.applyStore(req, data, start)
}

// notifyDeadline sizes the delivery RPC bound for one pull-propagation
// leg: the receiving holder pulls the notify's whole body (and its
// subtree recurses) before answering, so the exchange deadline scales
// with the payload the notify describes. Non-notify legs — and a notify
// frame that fails to decode, which the receiver will refuse quickly —
// keep the transport's flat deadline.
func notifyDeadline(prop *msg.Request) time.Duration {
	if prop.Kind != msg.KindNotify {
		return 0
	}
	nr, err := msg.DecodeNotifyReq(prop.Data)
	if err != nil {
		return 0
	}
	return stream.PullDeadline(nr.TotalSize)
}

// pullBody fetches the body a notify describes: the local outbox/store
// first when this peer is itself listed (the origin applying its own
// broadcast), then a striped chunked fetch across the remote sources. The
// notify's size and whole-file CRC gate acceptance either way — a pull
// can never apply bytes that do not match the broadcast's declared shape.
func (p *Peer) pullBody(name string, version uint64, nr *msg.NotifyReq) ([]byte, error) {
	srcs := make([]stream.Source, 0, len(nr.Sources))
	for _, h := range nr.Sources {
		if bitops.PID(h.PID) == p.cfg.PID {
			if data, ver, ok := p.fetchLocal(name, version); ok && ver == version &&
				uint64(len(data)) == nr.TotalSize && crc32.Checksum(data, castagnoli) == nr.FileCRC {
				return data, nil
			}
			continue
		}
		srcs = append(srcs, stream.Source{PID: h.PID, Addr: h.Addr})
	}
	data, _, err := p.puller.Fetch(name, version, srcs)
	if err != nil {
		return nil, err
	}
	if uint64(len(data)) != nr.TotalSize || crc32.Checksum(data, castagnoli) != nr.FileCRC {
		return nil, fmt.Errorf("netnode: pulled body does not match notify shape")
	}
	p.stats.NotifyPulls.Add(1)
	return data, nil
}

// fetchLocal answers name's bytes from this peer itself: the write outbox
// first (it can be ahead of the store mid-broadcast), then the store.
func (p *Peer) fetchLocal(name string, pin uint64) ([]byte, uint64, bool) {
	if data, ver, ok := p.outbox.get(name, pin); ok {
		return data, ver, true
	}
	if f, ok := p.store.Peek(name); ok && (pin == 0 || f.Version == pin) {
		return f.Data, f.Version, true
	}
	return nil, 0, false
}
