package netnode

// The peer side of the chunked write plane (docs/ROUTING.md "write
// plane"): staged uploads (KindPut) assemble a payload chunk by chunk in
// an in-memory table that is deliberately outside the store — the
// Persister/WAL hook fires only when the commit lands the assembled file
// through the normal insert/update paths, so a partial upload is never
// visible to reads and never durable across a crash. Pull-based
// propagation (KindNotify) is the payload-free form of the update
// broadcast (initiate, applyBody): the tree carries only the transfer
// facts (size, checksum, pull sources), each delivered holder pulls the
// body over the chunked data plane from the origin or an already-converged
// sibling (pullBody), and the origin keeps the committed bytes in a
// short-lived outbox so it can serve the pulls even when it is not itself
// a holder.

import (
	"fmt"
	"hash/crc32"
	"sync"
	"time"

	"lesslog/internal/bitops"
	"lesslog/internal/msg"
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
	return p.initiate(inner)
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

// handleNotify serves the direct form of KindNotify — the placement of a
// body over one frame (place); the propagate form is a broadcast delivery
// (handleDelivery). It pulls the body from the placing peer, then applies
// it exactly like a whole-frame store. A copy already at or past the
// notified version answers OK with the surviving version without pulling
// anything, like a stale push — the placement's goal (name present at least
// as new) holds.
func (p *Peer) handleNotify(req *msg.Request) *msg.Response {
	start := time.Now()
	nr, err := msg.DecodeNotifyReq(req.Data)
	if err != nil {
		return &msg.Response{Err: fmt.Sprintf("netnode: notify decode: %v", err)}
	}
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
