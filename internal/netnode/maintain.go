package netnode

// Distributed REPLICATEFILE (§2.2/§3) and the counter-based replica
// removal (§6) over the wire: each peer watches its own serve counters
// and, when a file exceeds the window threshold, places one replica on
// the first node of its children list without a copy — discovering
// "without a copy" through KindHas probes, and the list itself through
// pure bit arithmetic on the status word. No access logs leave the node;
// the only state consulted is the peer's own hit counters, which LessLog
// needs anyway to notice it is overloaded.

import (
	"sync"
	"time"

	"lesslog/internal/bitops"
	"lesslog/internal/msg"
	"lesslog/internal/ptree"
	"lesslog/internal/replication"
	"lesslog/internal/xrand"
)

// netCtx adapts the networked copy-placement state to
// replication.Context: copy existence at remote peers is answered by
// KindHas probes.
type netCtx struct {
	p    *Peer
	v    ptree.View
	name string
	rng  *xrand.Rand
}

func (c netCtx) View() ptree.View { return c.v }

func (c netCtx) HasCopy(q bitops.PID) bool {
	if q == c.p.cfg.PID {
		return c.p.store.Has(c.name)
	}
	resp, err := c.p.call(q, &msg.Request{Kind: msg.KindHas, Name: c.name})
	return err == nil && resp.OK
}

func (c netCtx) ForwardedLoad(bitops.PID, bitops.PID) float64 { return 0 }
func (c netCtx) Rand() *xrand.Rand                            { return c.rng }

// handleHas answers copy-existence probes. The response carries the held
// copy's version (Version — a probe must not count as an access), so the
// anti-entropy repair loop distinguishes "missing" from "stale" with the
// same frame REPLICATEFILE always used. A missing name that carries a
// tombstone answers !OK with the tombstone's version — "deleted at v", not
// merely "absent" — which is what lets repair push the deletion instead of
// the stale copy.
func (p *Peer) handleHas(req *msg.Request) *msg.Response {
	start := time.Now()
	version, ok := p.store.Version(req.Name)
	if !ok {
		if tv, dead := p.store.TombVersion(req.Name); dead {
			version = tv
		}
	}
	resp := &msg.Response{OK: ok, ServedBy: uint32(p.cfg.PID), Version: version}
	if req.Flags&msg.FlagTrace != 0 {
		// A traced repair probe records the answering holder as one hop,
		// parented on the repairing peer's root (the tail of req.Path).
		resp.Path = appendHop(req.Path, uint32(p.cfg.PID), msg.HopServe, time.Since(start))
	}
	return resp
}

// MaintainOnce runs one §2.2/§6 maintenance window on this peer: the
// store closes the window (store.Sharded.EndWindow evicts the replicas
// that served fewer than evictBelow gets, picks the hottest survivor and
// resets the counters), and if that copy served more than threshold gets
// one replica is placed on the peer's children list. It returns where a
// replica was placed, if any.
func (p *Peer) MaintainOnce(threshold, evictBelow uint64) (placed bitops.PID, ok bool) {
	hot, have, _ := p.store.EndWindow(threshold, evictBelow)
	if !have {
		return 0, false
	}
	defer hot.Release()
	v := p.view(p.hasher.Target(hot.Name, p.cfg.M))
	target, found := (replication.LessLog{}).Place(netCtx{p: p, v: v, name: hot.Name, rng: p.rng}, p.cfg.PID)
	if !found {
		return 0, false
	}
	if _, err := p.place(target, hot, msg.FlagReplica, &p.stats.PlacedReplicate, nil); err != nil {
		p.log.Warn("maintenance: replica not placed", "name", hot.Name, "on", uint32(target), "err", err)
		return 0, false
	}
	p.log.Info("replica placed by maintenance", "name", hot.Name, "on", uint32(target))
	return target, true
}

// StartMaintenance runs MaintainOnce every interval until the peer
// closes. The returned stop function halts the loop early; calling it
// more than once is safe.
func (p *Peer) StartMaintenance(interval time.Duration, threshold, evictBelow uint64) (stop func()) {
	done := make(chan struct{})
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-p.quit:
				return
			case <-ticker.C:
				p.MaintainOnce(threshold, evictBelow)
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}
