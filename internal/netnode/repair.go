package netnode

// The anti-entropy repair loop (docs/REPAIR.md): §7's self-organization
// handles one polite leave or one detected failure, but under sustained
// churn the 2^b subtree copies silently erode — a crash during another
// crash's recovery leaves names under-replicated with nobody assigned to
// notice. This file makes every peer notice for itself: a background
// loop samples names the peer holds, verifies each required subtree
// still has a live copy (cheap version-carrying KindHas probes at the
// placement the bit arithmetic names), and re-inserts what is missing —
// all under a token-bucket byte budget so repair never starves
// foreground traffic. A digest exchange (msg.KindDigest) between subtree
// peers bounds the rejoin cost: a peer that comes back empty pulls only
// the delta its partner's bucket folds flag, instead of waiting for
// per-name probes to find every hole.

import (
	"sync"
	"time"

	"lesslog/internal/bitops"
	"lesslog/internal/msg"
	"lesslog/internal/repair"
	"lesslog/internal/store"
	"lesslog/internal/stream"
)

// RepairOnce runs one anti-entropy round: up to sample names from the
// local inventory are verified — for every subtree of their lookup tree,
// the current primary holder must hold a copy at least as new as ours —
// and divergence is repaired in whichever direction the versions say:
// missing or stale at the holder pushes our copy; newer at the holder
// pulls; tombstoned at the holder (deleted at a version our copy does
// not supersede) erases our copy, so a peer that slept through a delete
// broadcast propagates the deletion instead of resurrecting the name.
// Probes and pushes spend from budget; denied work is deferred to a
// later round. Returns the number of copies repaired (pushed, pulled or
// erased). Exposed for tests and tooling; StartRepair drives it.
func (p *Peer) RepairOnce(sampler *repair.Sampler, budget *repair.Budget, sample int) int {
	// Head-sample the whole round into the trace plane: every probe and
	// push this round carries the round's TraceID and the HopRepair root,
	// and each responder's hop comes back in its answer — assembling a
	// star rooted at this peer (docs/OBSERVABILITY.md).
	tr := p.newRepairTrace()
	repaired := 0
	var prims []bitops.PID // reused by every name of the round
	for _, name := range sampler.Next(p.store.AllNames(), sample) {
		f, ok := p.store.Peek(name)
		if !ok {
			continue // evicted since sampling
		}
		prims = p.view(p.hasher.Target(name, p.cfg.M)).AppendPrimaries(prims[:0])
	subtrees:
		for _, h := range prims {
			if h == p.cfg.PID {
				continue
			}
			if !budget.Allow(repair.ProbeCost) {
				p.stats.RepairSkipped.Add(1)
				continue
			}
			p.stats.RepairProbes.Add(1)
			probe := &msg.Request{Kind: msg.KindHas, Name: name}
			tr.stamp(probe)
			resp, err := p.call(h, probe)
			if err != nil {
				continue // detector fed; next round sees the updated view
			}
			tr.collect(&resp)
			switch {
			case !resp.OK && resp.Version > 0 && resp.Version >= f.Version:
				// The holder tombstoned the name at a version our copy does
				// not supersede: the delete reached it but missed us. Apply
				// the deletion locally — push the tombstone on, not the corpse.
				if p.applyTombstone(name, resp.Version) {
					repaired++
				}
				break subtrees // the name is gone locally; stop probing its subtrees
			case !resp.OK, resp.Version < f.Version:
				// Missing at its required holder (or tombstoned older than
				// our copy — a re-insert the holder missed), or versioned
				// stale: place our copy. The holder re-gates the apply
				// (applyStore), so a copy that went newer between this probe
				// and the push survives.
				if !budget.Allow(len(f.Data)) {
					p.stats.RepairSkipped.Add(1)
					continue
				}
				if survived, err := p.place(h, f, 0, &p.stats.Repaired, tr); err == nil && survived == f.Version {
					repaired++
					p.log.Info("repair: re-established copy", "name", name, "on", uint32(h))
				}
			case resp.Version > f.Version:
				// The holder is newer than us — we missed an update
				// broadcast. Pull rather than clobber.
				if p.pullCopy(name, h, budget) {
					repaired++
				}
			}
		}
		f.Release() // the Peek's reference, held across the pushes
	}
	p.stats.RepairDeficit.Store(budget.Deficit())
	// TTFR bookkeeping: a round that moved copies opens (or extends) a
	// divergence episode; a clean round closes it.
	p.ttfr.Note(repaired > 0, time.Now())
	tr.record(p, "repair")
	return repaired
}

// applyTombstone erases the local copy of name because a required holder
// reported it deleted at version; the local tombstone then propagates
// the deletion onward through this peer's own has answers. The erase is
// the delete broadcast's own (applyErase).
func (p *Peer) applyTombstone(name string, version uint64) bool {
	if !p.applyErase(name, version) {
		return false
	}
	p.stats.RepairErased.Add(1)
	p.log.Info("repair: erased deleted copy", "name", name, "version", version)
	return true
}

// pullCopy fetches name's payload directly from holder h over the chunk
// plane — a replica transfer, so the partner serves it from Peek and counts
// no access (anti-entropy is not popularity) — and applies it locally:
// Update for an existing copy (strictly-newer semantics, so a concurrent
// broadcast cannot be clobbered by a stale pull) or a tombstone-gated
// inserted PutNewer when we hold nothing — a pull must not resurrect a name
// this peer saw deleted after the partner wrote its copy. The payload is
// charged to the budget after the fact with Spend (its size is only known on
// arrival): the bucket goes negative and repays itself from refill, so large
// pulls stall later rounds instead of riding free past the budget.
func (p *Peer) pullCopy(name string, h bitops.PID, budget *repair.Budget) bool {
	if !budget.Allow(repair.ProbeCost) {
		p.stats.RepairSkipped.Add(1)
		return false
	}
	addr, ok := p.rt().addrs[h]
	if !ok {
		return false
	}
	b, err := p.puller.FetchBody(name, 0, []stream.Source{{PID: uint32(h), Addr: addr}})
	if err != nil {
		return false
	}
	defer b.Ref.Release() // the store retains its own if it keeps the copy
	budget.Spend(len(b.Data))
	f := store.File{Name: name, Data: b.Data, Version: b.Version, Ref: b.Ref}
	p.propMu.RLock() // local apply serializes against Leave, as on broadcast paths
	applied := false
	if p.store.Has(name) {
		applied = p.store.UpdateFile(f)
	} else {
		_, res := p.store.PutNewer(f, store.Inserted)
		applied = res == store.PutApplied
	}
	p.propMu.RUnlock()
	if !applied {
		return false // a concurrent update or deletion already superseded the pull
	}
	p.sums.put(name, f.Version, len(f.Data), crc{b.Sum, true})
	p.mergeClock(f.Version)
	p.stats.RepairPulled.Add(1)
	p.log.Info("repair: pulled newer copy", "name", name, "from", uint32(h))
	return true
}

// DigestSync runs one digest exchange with partner: our whole name-set,
// folded into width buckets, goes out in one KindDigest frame; the
// partner answers with the (name, version) entries it holds — restricted
// to names this peer is a required holder for — in buckets whose folds
// differ; we pull the ones we are missing or hold stale. Cost scales
// with divergence: identical inventories exchange width*8 bytes and stop.
// Returns copies pulled.
func (p *Peer) DigestSync(partner bitops.PID, budget *repair.Budget, width int) int {
	tr := p.newRepairTrace()
	digest := make([]uint64, width)
	for _, name := range p.store.AllNames() {
		if v, ok := p.store.Version(name); ok {
			repair.Fold(digest, name, v)
		}
	}
	data, err := msg.AppendDigest(nil, digest)
	if err != nil {
		return 0
	}
	if !budget.Allow(repair.ProbeCost + len(data)) {
		p.stats.RepairSkipped.Add(1)
		return 0
	}
	dreq := &msg.Request{Kind: msg.KindDigest, Origin: uint32(p.cfg.PID), Data: data}
	tr.stamp(dreq)
	resp, err := p.call(partner, dreq)
	if err != nil {
		return 0
	}
	tr.collect(&resp)
	p.stats.DigestBytes.Add(uint64(len(data)))
	if !resp.OK {
		return 0
	}
	p.stats.DigestBytes.Add(uint64(len(resp.Data)))
	entries, err := msg.DecodeDigestEntries(resp.Data)
	if err != nil {
		p.log.Warn("digest: corrupt entry frame", "from", uint32(partner), "err", err)
		return 0
	}
	pulled := 0
	for _, e := range entries {
		// The responder filtered to names we should hold, but its view may
		// lag ours: re-check placement locally before storing, so a stale
		// responder cannot plant copies on a peer that no longer owns them.
		// Repair pushes only to (and digests only cover) the positions the
		// insert path itself would pick: the §2.2 placement run in reverse.
		if !p.view(p.hasher.Target(e.Name, p.cfg.M)).IsPrimary(p.cfg.PID) {
			continue
		}
		if v, have := p.store.Version(e.Name); have && v >= e.Version {
			continue
		}
		// A tombstone at least as new as the offer means this peer saw the
		// name deleted after the partner wrote that copy — a partner that
		// slept through the delete must not push the corpse back.
		if tv, dead := p.store.TombVersion(e.Name); dead && tv >= e.Version {
			continue
		}
		if p.pullCopy(e.Name, partner, budget) {
			pulled++
		}
	}
	p.stats.RepairDeficit.Store(budget.Deficit())
	if pulled > 0 {
		// Only divergence is noted here: convergence calls belong to the
		// per-name probe pass (RepairOnce), so a clean digest cannot close
		// an episode the probes still see open.
		p.ttfr.Note(true, time.Now())
	}
	tr.record(p, "digest")
	return pulled
}

// handleDigest answers a partner's digest exchange: fold our own
// holdings — restricted to names the requester is a required holder for —
// into the requester's bucket partition, and return the (name, version)
// entries in buckets whose folds differ. Restricting to the requester's
// required names is what makes the digest converge: without it, two
// peers with legitimately disjoint inventories would re-flag the same
// buckets forever.
func (p *Peer) handleDigest(req *msg.Request) *msg.Response {
	start := time.Now()
	remote, err := msg.DecodeDigest(req.Data)
	if err != nil {
		return &msg.Response{Err: "netnode: digest decode: " + err.Error()}
	}
	p.stats.DigestBytes.Add(uint64(len(req.Data)))
	requester := bitops.PID(req.Origin)
	type held struct {
		name    string
		version uint64
	}
	local := make([]uint64, len(remote))
	var candidates []held
	for _, name := range p.store.AllNames() {
		v, ok := p.store.Version(name)
		if !ok {
			continue
		}
		if !p.view(p.hasher.Target(name, p.cfg.M)).IsPrimary(requester) {
			continue
		}
		repair.Fold(local, name, v)
		candidates = append(candidates, held{name: name, version: v})
	}
	diff := repair.DiffBuckets(local, remote)
	if len(diff) == 0 {
		empty, _ := msg.AppendDigestEntries(nil, nil)
		resp := &msg.Response{OK: true, ServedBy: uint32(p.cfg.PID), Data: empty}
		if req.Flags&msg.FlagTrace != 0 {
			resp.Path = appendHop(req.Path, uint32(p.cfg.PID), msg.HopServe, time.Since(start))
		}
		return resp
	}
	inDiff := make(map[int]bool, len(diff))
	for _, b := range diff {
		inDiff[b] = true
	}
	var entries []msg.DigestEntry
	for _, c := range candidates {
		if !inDiff[repair.BucketOf(c.name, len(remote))] {
			continue
		}
		entries = append(entries, msg.DigestEntry{Name: c.name, Version: c.version})
		if len(entries) == msg.MaxDigestEntries {
			break // the rest rides a later round once these converge
		}
	}
	data, err := msg.AppendDigestEntries(nil, entries)
	if err != nil {
		return &msg.Response{Err: "netnode: digest encode: " + err.Error()}
	}
	p.stats.DigestBytes.Add(uint64(len(data)))
	resp := &msg.Response{OK: true, ServedBy: uint32(p.cfg.PID), Data: data}
	if req.Flags&msg.FlagTrace != 0 {
		resp.Path = appendHop(req.Path, uint32(p.cfg.PID), msg.HopServe, time.Since(start))
	}
	return resp
}

// AnnounceInventory pushes this peer's entire inventory through the
// repair plane in one pass — the restart-warming half of the durable
// storage engine (docs/STORAGE.md). A peer that recovered its store from
// the log rejoins holding names the rest of the system may have
// re-replicated, aged past, or deleted while it was down; one full
// unbudgeted RepairOnce round reconciles every name in both directions
// (push what the holders lost, pull what went newer, erase what was
// deleted — recovered tombstones propagate the same way), and a digest
// exchange with the next live partner pulls back anything this peer
// should hold but its log never saw. Returns copies repaired. Join runs
// this in the background after a rejoin with recovered state; the
// steady-state loop (StartRepair) then keeps the peer converged.
func (p *Peer) AnnounceInventory() int {
	budget := repair.NewBudget(-1, 0) // one-shot warming round: unbudgeted
	repaired := p.RepairOnce(&repair.Sampler{}, budget, -1)
	var cursor int
	if partner, ok := p.nextRepairPartner(&cursor); ok {
		repaired += p.DigestSync(partner, budget, repair.DefaultBuckets)
	}
	p.log.Info("announced recovered inventory",
		"names", p.store.Len(), "tombstones", p.store.TombstoneCount(), "repaired", repaired)
	return repaired
}

// StartRepair runs the anti-entropy loop every cfg.Interval until the
// peer closes: a digest exchange with the next live partner on round 0
// (so a rejoined peer warms up within one interval) and every
// cfg.DigestEvery rounds after, plus a RepairOnce probe pass each round.
// The returned stop function halts the loop early; calling it more than
// once is safe.
func (p *Peer) StartRepair(cfg repair.Config) (stop func()) {
	cfg = cfg.WithDefaults()
	budget := repair.NewBudget(cfg.Budget, 0)
	sampler := &repair.Sampler{}
	done := make(chan struct{})
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		ticker := time.NewTicker(cfg.Interval)
		defer ticker.Stop()
		round := 0
		var partnerCursor int
		for {
			select {
			case <-done:
				return
			case <-p.quit:
				return
			case <-ticker.C:
				if cfg.TombstoneTTL > 0 {
					// GC horizon: a deletion old enough to have reached every
					// replica no longer needs its tombstone (docs/REPAIR.md).
					p.store.PruneTombstones(time.Now().Add(-cfg.TombstoneTTL))
				}
				if cfg.DigestEvery > 0 && round%cfg.DigestEvery == 0 {
					if partner, ok := p.nextRepairPartner(&partnerCursor); ok {
						p.DigestSync(partner, budget, cfg.Buckets)
					}
				}
				p.RepairOnce(sampler, budget, cfg.SampleSize)
				round++
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// nextRepairPartner round-robins over the live peers this node knows,
// excluding itself. The cursor advances by PID order so every live peer
// is digested against within len(peers) digest rounds.
func (p *Peer) nextRepairPartner(cursor *int) (bitops.PID, bool) {
	rt := p.rt()
	var live []bitops.PID
	for q := range rt.addrs {
		if q != p.cfg.PID && rt.live.IsLive(q) {
			live = append(live, q)
		}
	}
	if len(live) == 0 {
		return 0, false
	}
	sortPIDs(live)
	q := live[*cursor%len(live)]
	*cursor++
	return q, true
}

// sortPIDs orders a PID slice ascending (insertion sort: partner lists
// are a handful of entries).
func sortPIDs(pids []bitops.PID) {
	for i := 1; i < len(pids); i++ {
		for j := i; j > 0 && pids[j] < pids[j-1]; j-- {
			pids[j], pids[j-1] = pids[j-1], pids[j]
		}
	}
}
