package netnode

// The peer side of the chunked write plane (docs/ROUTING.md "write
// plane"): staged uploads (KindPut) assemble a payload chunk by chunk in
// an in-memory table that is deliberately outside the store — the
// Persister/WAL hook fires only when the commit lands the assembled file
// through the normal insert/update paths, so a partial upload is never
// visible to reads and never durable across a crash. The update broadcast
// is pull-based at every size (KindNotify; initiate, applyBody): the tree
// carries only the transfer facts (size, checksum, pull sources), each
// delivered holder pulls the body over the chunked data plane from the
// origin or an already-converged sibling (pullBody), and the origin keeps
// the committed bytes in a short-lived outbox so it can serve the pulls
// even when it is not itself a holder.

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"lesslog/internal/bitops"
	"lesslog/internal/crc32c"
	"lesslog/internal/msg"
	"lesslog/internal/store"
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
// buffer being assembled, drawn from the free list (msg.NewBody) with the
// session's reference to it. got records each staged range — offset to length
// and the CRC-32C verified over the range where it lies in buf — so a
// retransmitted chunk (same offset, same length) replaces its range's sum
// with its bytes, a contradictory one kills the session rather than splice
// payloads, and the commit knows the whole-file sum without a pass.
//
// The session's own lock covers the bytes of buf, got, closed and ref, so
// chunks of different uploads land and verify in parallel; the table's lock
// covers the map, the byte budget and the deadlines. A session that ends
// without a commit lists its buffer only once it is closed (discard), so a
// chunk still landing either lands first or finds it closed.
type upload struct {
	name     string
	total    uint64
	fileCRC  uint32
	deadline time.Time // under the table's mu

	mu  sync.Mutex
	buf []byte
	ref *msg.Ref
	got map[uint64]staged
	// closed: a commit took buf (it may be a stored body by now) or the
	// session was dropped; nothing more may land in it.
	closed bool
}

// discard closes a session that ended without a commit — aborted, pruned,
// contradicted — and ends its reference, listing buf for the next body.
func (u *upload) discard() {
	u.mu.Lock()
	u.closed = true
	ref := u.ref
	u.ref = nil
	u.mu.Unlock()
	ref.Release()
}

type staged struct {
	ln  int
	sum uint32
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

// prune drops expired sessions, appending them to dropped for the caller
// to discard once it lets go of mu. Caller holds mu.
func (t *uploadTable) prune(now time.Time, dropped []*upload) []*upload {
	for tok, u := range t.m {
		if now.After(u.deadline) {
			t.bytes -= u.total
			delete(t.m, tok)
			dropped = append(dropped, u)
		}
	}
	return dropped
}

// discardAll discards the sessions prune or a contradiction dropped — outside
// the table's lock, as discarding one waits out a chunk landing in it — and
// counts them.
func discardAll(dropped []*upload) uint64 {
	for _, u := range dropped {
		u.discard()
	}
	return uint64(len(dropped))
}

// session resolves the session one PutData frame belongs to: a new one on
// token 0, otherwise the opened one, checked against the shape it was opened
// with. The chunk itself lands outside the table's lock (upload.stage).
// dropped counts the sessions it dropped: expired ones, or the one the frame
// contradicts.
func (t *uploadTable) session(name string, pr *msg.PutReq) (u *upload, token uint64, dropped uint64, err error) {
	var gone []*upload
	// Deferred ahead of the unlock, so it runs after it: discarding a
	// session waits out a chunk landing in it, which must not hold the
	// table.
	defer func() { dropped = discardAll(gone) }()
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	gone = t.prune(now, nil)
	if pr.Token == 0 {
		if pr.Offset != 0 {
			return nil, 0, 0, errors.New("netnode: upload must open at offset 0")
		}
		if len(t.m) >= maxUploadSessions || t.bytes+pr.TotalSize > maxStagedBytes {
			return nil, 0, 0, errors.New("netnode: upload staging full")
		}
		if t.m == nil {
			t.m = make(map[uint64]*upload)
		}
		t.seq++
		buf, ref := msg.NewBody(int(pr.TotalSize))
		u = &upload{
			name: name, total: pr.TotalSize, fileCRC: pr.FileCRC, deadline: now.Add(uploadTTL),
			buf: buf, ref: ref, got: make(map[uint64]staged),
		}
		t.m[t.seq] = u
		t.bytes += pr.TotalSize
		return u, t.seq, 0, nil
	}
	u, ok := t.m[pr.Token]
	if !ok {
		return nil, 0, 0, errUnknownSession
	}
	if u.name != name || u.total != pr.TotalSize || u.fileCRC != pr.FileCRC {
		gone = append(gone, t.dropLocked(pr.Token))
		return nil, 0, 0, errContradiction
	}
	u.deadline = now.Add(uploadTTL)
	return u, pr.Token, 0, nil
}

var (
	errUnknownSession = errors.New("netnode: unknown upload session")
	errContradiction  = errors.New("netnode: put frame contradicts opened session")
	errChunkCRC       = errors.New("netnode: put chunk failed CRC")
)

// stage lands one chunk in the session buffer and verifies it there, once:
// the sum recorded beside the range is of the bytes a commit will hand on.
// A same-offset same-length frame is an idempotent retry; a same-offset
// different-length frame can only splice two transfers, so the session dies
// (errContradiction: the caller drops it). A chunk that fails its CRC has
// dirtied the buffer under its span: every range recorded there is forgotten
// and the session stays open for the uploader's retry. sum is the peer's
// counted CRC-32C pass (sumBody).
func (u *upload) stage(pr *msg.PutReq, sum func([]byte) uint32) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.closed {
		return errUnknownSession
	}
	if prev, dup := u.got[pr.Offset]; dup && prev.ln != len(pr.Chunk) {
		u.closed = true
		return errContradiction
	}
	end := pr.Offset + uint64(len(pr.Chunk))
	landed := u.buf[pr.Offset:end]
	copy(landed, pr.Chunk)
	verified := sum(landed)
	if verified != pr.ChunkCRC {
		for off, r := range u.got {
			if off < end && pr.Offset < off+uint64(r.ln) {
				delete(u.got, off)
			}
		}
		return errChunkCRC
	}
	u.got[pr.Offset] = staged{ln: len(landed), sum: verified}
	return nil
}

// seal closes the session for its commit and answers the whole-file sum of
// what was staged: the ranges must tile [0,total) exactly — sorted,
// contiguous, no overlap, no gap — and their sums, combined in that order,
// are the sum of buf.
func (u *upload) seal() (sum uint32, complete bool) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.closed = true
	offs := make([]uint64, 0, len(u.got))
	for off := range u.got {
		offs = append(offs, off)
	}
	slices.Sort(offs)
	var next uint64
	for _, off := range offs {
		if off != next {
			return 0, false
		}
		r := u.got[off]
		sum = crc32c.Combine(sum, r.sum, uint64(r.ln))
		next += uint64(r.ln)
	}
	return sum, next == u.total
}

// dropLocked removes one session and returns it, nil when there is none.
// Caller holds mu.
func (t *uploadTable) dropLocked(token uint64) *upload {
	u := t.m[token]
	if u != nil {
		t.bytes -= u.total
		delete(t.m, token)
	}
	return u
}

// drop removes and discards one session (PutAbort, or a contradiction),
// reporting whether it existed.
func (t *uploadTable) drop(token uint64) bool {
	t.mu.Lock()
	u := t.dropLocked(token)
	t.mu.Unlock()
	if u == nil {
		return false
	}
	u.discard()
	return true
}

// take removes and returns the session a commit addresses, and the count
// of expired sessions it discarded on the way.
func (t *uploadTable) take(token uint64) (*upload, uint64) {
	t.mu.Lock()
	gone := t.prune(time.Now(), nil)
	u := t.dropLocked(token)
	t.mu.Unlock()
	return u, discardAll(gone)
}

// outEntry is one committed payload parked for pull-based propagation,
// with the outbox's own reference to its buffer (store.File.Ref).
type outEntry struct {
	body    store.File
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
// plane. An entry holds a reference to its body, ended when it leaves.
type outbox struct {
	mu      sync.Mutex
	entries map[string]*outEntry
	bytes   uint64
}

func (o *outbox) put(body store.File) {
	now := time.Now()
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.entries == nil {
		o.entries = make(map[string]*outEntry)
	}
	if e, ok := o.entries[body.Name]; ok {
		if body.Version < e.body.Version {
			return
		}
		o.drop(body.Name)
	}
	for o.bytes+uint64(len(body.Data)) > maxOutboxBytes && len(o.entries) > 0 {
		var victim string
		var soonest time.Time
		for n, e := range o.entries {
			if victim == "" || e.expires.Before(soonest) {
				victim, soonest = n, e.expires
			}
		}
		o.drop(victim)
	}
	body.Ref.Retain()
	o.entries[body.Name] = &outEntry{body: body, expires: now.Add(outboxTTL)}
	o.bytes += uint64(len(body.Data))
}

// drop removes name's entry and ends its reference. Caller holds mu.
func (o *outbox) drop(name string) {
	e := o.entries[name]
	o.bytes -= uint64(len(e.body.Data))
	e.body.Release()
	delete(o.entries, name)
}

// remove drops name's entry if it still parks exactly this version — a
// newer write of the same name has replaced it otherwise, and that entry
// is its own initiator's to remove. A fetch handler already serving from
// the entry holds a reference of its own; only later lookups miss.
func (o *outbox) remove(name string, version uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if e, ok := o.entries[name]; ok && e.body.Version == version {
		o.drop(name)
	}
}

// get answers name's parked payload when it matches the pin (0 accepts
// any version), with a reference the caller ends (store.File.Release).
func (o *outbox) get(name string, pin uint64) (store.File, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	e, ok := o.entries[name]
	if !ok || time.Now().After(e.expires) || (pin != 0 && e.body.Version != pin) {
		return store.File{}, false
	}
	e.body.Ref.Retain()
	return e.body, true
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

// putStage stages one chunk and verifies it where it landed. A corrupted
// frame leaves the session open for the uploader's retry. The session token
// rides the response Version field. Staging copies the chunk into the
// session buffer, so this handler is the last user of the request's frame
// buffer (pr.Chunk points into it) and releases it for the next chunk to be
// read into.
func (p *Peer) putStage(req *msg.Request, pr *msg.PutReq) *msg.Response {
	defer req.Release()
	u, token, dropped, err := p.uploads.session(req.Name, pr)
	p.stats.StagedAborts.Add(dropped)
	if err == nil {
		if err = u.stage(pr, p.sumBody); errors.Is(err, errContradiction) && p.uploads.drop(token) {
			p.stats.StagedAborts.Add(1)
		}
	}
	if err != nil {
		return &msg.Response{Err: err.Error()}
	}
	p.stats.WriteChunks.Add(1)
	p.stats.WriteBytes.Add(uint64(len(pr.Chunk)))
	return &msg.Response{OK: true, ServedBy: uint32(p.cfg.PID), Version: token}
}

// putCommit completes a staged upload: the staged ranges must tile the
// declared size and their verified sums combine to the declared whole-file
// CRC (an unfilled or doubly-filled range cannot), then the payload enters
// the normal insert or update path with that sum beside it — which is where
// versions are stamped and the store's Persister/WAL hook fires, making this
// the first durable moment of the transfer. The inner request owns the
// session's reference: the store and the outbox take their own (Keep), and
// ending it once the path returns leaves the buffer to them — or lists it
// for the next body when nothing kept it, as a refused commit does at once.
func (p *Peer) putCommit(req *msg.Request, pr *msg.PutReq) *msg.Response {
	u, pruned := p.uploads.take(pr.Token)
	p.stats.StagedAborts.Add(pruned)
	if u == nil {
		return &msg.Response{Err: errUnknownSession.Error()}
	}
	sum, complete := u.seal() // no chunk lands in buf from here on
	if u.name != req.Name || u.total != pr.TotalSize || u.fileCRC != pr.FileCRC ||
		!complete || sum != u.fileCRC {
		u.ref.Release()
		p.stats.StagedAborts.Add(1)
		return &msg.Response{Err: "netnode: upload incomplete or corrupt"}
	}
	inner := &msg.Request{
		Origin: req.Origin, Flags: req.Flags &^ msg.FlagPropagate,
		Name: req.Name, Data: u.buf, TraceID: req.TraceID, Path: req.Path,
	}
	inner.Attach(u.ref)
	defer inner.Release()
	if pr.Op == msg.PutInsert {
		inner.Kind = msg.KindInsert
		return p.handleInsert(inner, crc{sum, true})
	}
	inner.Kind = msg.KindUpdate
	return p.initiate(inner, crc{sum, true})
}

// handleNotify serves the direct form of KindNotify — a placement (place);
// the propagate form is a broadcast delivery (handleDelivery). It stores the
// inline body, or pulls it from the placing peer, through applyStore. A
// copy already at or past the notified version answers OK with the
// surviving version without pulling anything, like a stale inline body —
// the placement's goal (name present at least as new) holds.
func (p *Peer) handleNotify(req *msg.Request) *msg.Response {
	start := time.Now()
	nr, err := msg.DecodeNotifyReq(req.Data)
	if err != nil {
		return &msg.Response{Err: fmt.Sprintf("netnode: notify decode: %v", err)}
	}
	if nr.Body != nil { // inline: stored unsummed, and kept past the frame
		req.Data = nr.Body
		ref := req.Keep()
		defer ref.Release()
		return p.applyStore(req, req.Data, ref, crc{}, start)
	}
	if v, ok := p.store.Version(req.Name); ok && v >= req.Version {
		// What applyStore does with a copy it keeps, without pulling a body
		// to refuse.
		p.mergeClock(req.Version)
		if req.Flags&msg.FlagReplica == 0 {
			p.store.Promote(req.Name)
		}
		return &msg.Response{OK: true, ServedBy: uint32(p.cfg.PID), Version: v}
	}
	body, err := p.pullBody(req.Name, req.Version, nr)
	if err != nil {
		return &msg.Response{Err: fmt.Sprintf("netnode: notify pull: %v", err)}
	}
	defer body.Release()
	return p.applyStore(req, body.Data, body.Ref, crc{nr.FileCRC, true}, start)
}

// pullBody fetches the body a notify describes: nothing for an empty body,
// else a striped chunked fetch across the sources it lists. This peer is
// skipped when listed: an initiator rewrote its own copy before the legs
// started, and a holder lists itself only once it has applied. The notify's
// size and whole-file CRC gate acceptance — a pull can never apply bytes
// that do not match the broadcast's declared shape — against the sum the
// fetch verified every received byte against. The body comes back named and
// versioned as asked, with a reference the caller ends (store.File.Release).
func (p *Peer) pullBody(name string, version uint64, nr *msg.NotifyReq) (store.File, error) {
	if nr.TotalSize == 0 {
		// Its sum is 0, which the notify's sanity check holds it to.
		return store.File{Name: name, Data: []byte{}, Version: version}, nil
	}
	srcs := make([]stream.Source, 0, len(nr.Sources))
	for _, h := range nr.Sources {
		if bitops.PID(h.PID) != p.cfg.PID {
			srcs = append(srcs, stream.Source{PID: h.PID, Addr: h.Addr})
		}
	}
	b, err := p.puller.FetchBody(name, version, srcs)
	if err != nil {
		return store.File{}, err
	}
	if uint64(len(b.Data)) != nr.TotalSize || b.Sum != nr.FileCRC {
		b.Ref.Release()
		return store.File{}, fmt.Errorf("netnode: pulled body does not match notify shape")
	}
	p.stats.NotifyPulls.Add(1)
	return store.File{Name: name, Data: b.Data, Version: version, Ref: b.Ref}, nil
}
