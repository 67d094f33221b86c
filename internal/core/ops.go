package core

import (
	"lesslog/internal/bitops"
	"lesslog/internal/ptree"
	"lesslog/internal/replication"
	"lesslog/internal/store"
	"lesslog/internal/xrand"
)

// InsertResult reports where an insert placed its primary copies.
type InsertResult struct {
	Target  bitops.PID   // ψ(name)
	Holders []bitops.PID // one per subtree with a live node, 2^B at most
}

// Insert stores a file per ADVANCEDINSERTFILE (§3) extended to the
// fault-tolerant model (§4): in each of the 2^B subtrees of the target's
// lookup tree, the copy lands on the node FINDLIVENODE selects — the
// target itself when alive, else the live node with the most offspring.
func (c *Cluster) Insert(origin bitops.PID, name string, data []byte) (InsertResult, error) {
	if !c.live.IsLive(origin) {
		return InsertResult{}, ErrDeadOrigin
	}
	r := c.Target(name)
	v := c.view(r)
	c.version++
	f := store.File{Name: name, Data: data, Version: c.version}
	res := InsertResult{Target: r, Holders: v.AppendPrimaries(nil)}
	for _, h := range res.Holders {
		c.nodes[h].store.Put(f, store.Inserted)
		c.stats.InsertCopies++
	}
	if len(res.Holders) == 0 {
		return res, ErrNoLiveNode
	}
	c.stats.Inserts++
	return res, nil
}

// GetResult reports how a get was served.
type GetResult struct {
	File     store.File
	ServedBy bitops.PID
	Hops     int  // forwarding hops (0 when the origin held a copy)
	Fallback bool // §3 step 2: jumped to the FINDLIVENODE primary
	Migrated bool // §4: served from a different subtree
}

// Get resolves a file per GETFILE (§2.2) with the §3 dead-node
// augmentation and the §4 subtree migration: the request walks from the
// origin along live ancestors in the target's lookup tree until a copy is
// found; if the walk ends at a dead subtree root, it jumps to the
// FINDLIVENODE primary; if the origin's subtree has no copy at all, the
// request re-enters the next subtree by rewriting its subtree identifier.
func (c *Cluster) Get(origin bitops.PID, name string) (GetResult, error) {
	if !c.live.IsLive(origin) {
		return GetResult{}, ErrDeadOrigin
	}
	c.stats.Gets++
	r := c.Target(name)
	v := c.view(r)
	ownSID := v.SubtreeID(origin)
	if res, ok := c.getInSubtree(v, origin, name); ok {
		return res, nil
	}
	// §4: migrate the request to the remaining subtrees by changing the
	// subtree identifier while keeping the subtree VID.
	svid := v.SubtreeVID(origin)
	for d := 1; d < bitops.SubtreeCount(c.cfg.B); d++ {
		sid := (ownSID + bitops.VID(d)) & (bitops.VID(1)<<uint(c.cfg.B) - 1)
		entry := v.PID(bitops.ComposeVID(svid, sid, c.cfg.B))
		c.stats.GetMigrations++
		c.stats.GetHops++ // the cross-subtree jump itself
		if res, ok := c.getInSubtree(v, entry, name); ok {
			res.Migrated = true
			return res, nil
		}
	}
	c.stats.Faults++
	return GetResult{}, ErrNotFound
}

// getInSubtree walks one subtree's lookup path from entry (which may be a
// dead position; the walk then starts at its first live ancestor).
func (c *Cluster) getInSubtree(v ptree.View, entry bitops.PID, name string) (GetResult, bool) {
	var res GetResult
	hops := -1 // the first live stop is the origin itself, not a hop
	served := false
	last, found := v.RouteToFirst(entry, func(q bitops.PID) bool {
		hops++
		f, ok := c.nodes[q].store.Get(name)
		if ok {
			res = GetResult{File: f, ServedBy: q, Hops: hops}
			served = true
		}
		return ok
	})
	if hops < 0 {
		hops = 0 // entry position dead: its first live ancestor counts as hop 1
	}
	if served {
		c.stats.GetHops += uint64(res.Hops)
		return res, true
	}
	if found {
		return res, false // unreachable: found implies served
	}
	// The walk ended without a copy. If it never reached the subtree's
	// primary (dead root), take §3's second step.
	p, ok := v.PrimaryOf(entry)
	if !ok || p == last {
		c.stats.GetHops += uint64(hops)
		return res, false
	}
	hops++
	c.stats.GetFallbacks++
	f, ok := c.nodes[p].store.Get(name)
	c.stats.GetHops += uint64(hops)
	if !ok {
		return res, false
	}
	return GetResult{File: f, ServedBy: p, Hops: hops, Fallback: true}, true
}

// UpdateResult reports an update's propagation.
type UpdateResult struct {
	Target        bitops.PID
	CopiesUpdated int
	Messages      int
}

// Update rewrites a file and propagates the new contents top-down (§2.2,
// §3): in each subtree the broadcast starts at the root position —
// bypassing it to its expanded children list when dead — and every node
// holding a copy applies the update and re-broadcasts to its own children
// list, while nodes without a copy discard the request.
func (c *Cluster) Update(origin bitops.PID, name string, data []byte) (UpdateResult, error) {
	if !c.live.IsLive(origin) {
		return UpdateResult{}, ErrDeadOrigin
	}
	r := c.Target(name)
	v := c.view(r)
	c.version++
	res := UpdateResult{Target: r}
	apply := func(st *store.Store) bool { return st.Update(name, data, c.version) }
	for _, q := range v.AppendBroadcastStarts(nil) {
		res.CopiesUpdated += c.visit(v, q, name, &res.Messages, apply)
	}
	c.stats.UpdateMessages += uint64(res.Messages)
	if res.CopiesUpdated == 0 {
		return res, ErrNotFound
	}
	c.stats.Updates++
	return res, nil
}

// visit delivers a broadcast to live node p: a holder applies it and
// re-broadcasts to its expanded children list; a non-holder discards it.
// The children list is liveness-shaped, not content-shaped, so applying
// before the recursion counts the same copies as after it. It returns the
// copies apply touched in p's branch.
func (c *Cluster) visit(v ptree.View, p bitops.PID, name string, msgs *int, apply func(*store.Store) bool) int {
	*msgs++
	st := c.nodes[p].store
	if !st.Has(name) {
		return 0
	}
	n := 0
	if apply(st) {
		n = 1
	}
	for _, q := range v.ExpandedChildrenList(p) {
		n += c.visit(v, q, name, msgs, apply)
	}
	return n
}

// DeleteResult reports a delete's propagation.
type DeleteResult struct {
	Target        bitops.PID
	CopiesRemoved int
	Messages      int
}

// Delete removes a file from the system: every copy — the authoritative
// ones and all replicas — is erased by the same top-down children-list
// broadcast Update uses. (The paper defines no delete; this is the
// natural completion of its update mechanism and is documented as an
// extension in DESIGN.md.)
func (c *Cluster) Delete(origin bitops.PID, name string) (DeleteResult, error) {
	if !c.live.IsLive(origin) {
		return DeleteResult{}, ErrDeadOrigin
	}
	r := c.Target(name)
	v := c.view(r)
	res := DeleteResult{Target: r}
	apply := func(st *store.Store) bool { return st.Delete(name) }
	for _, q := range v.AppendBroadcastStarts(nil) {
		res.CopiesRemoved += c.visit(v, q, name, &res.Messages, apply)
	}
	if res.CopiesRemoved == 0 {
		return res, ErrNotFound
	}
	return res, nil
}

// stratCtx adapts one file's copy placement to replication.Context so the
// engine shares the exact strategy implementation the simulator uses.
type stratCtx struct {
	c    *Cluster
	v    ptree.View
	name string
}

func (s stratCtx) View() ptree.View { return s.v }
func (s stratCtx) HasCopy(p bitops.PID) bool {
	n, ok := s.c.nodes[p]
	return ok && n.store.Has(s.name)
}
func (s stratCtx) ForwardedLoad(bitops.PID, bitops.PID) float64 { return 0 }
func (s stratCtx) Rand() *xrand.Rand                            { return s.c.rng }

// ReplicateFile implements REPLICATEFILE (§2.2, §3): the overloaded holder
// places one replica of name on the first node of its children list
// without a copy, with the advanced model's proportional escape when the
// holder is its subtree's live maximum. It returns the replica's location.
func (c *Cluster) ReplicateFile(holder bitops.PID, name string) (bitops.PID, error) {
	n, ok := c.nodes[holder]
	if !ok {
		return 0, ErrNotLive
	}
	f, ok := n.store.Peek(name)
	if !ok {
		return 0, ErrNotFound
	}
	v := c.view(c.Target(name))
	target, ok := (replication.LessLog{}).Place(stratCtx{c: c, v: v, name: name}, holder)
	if !ok {
		return 0, ErrNoLiveNode
	}
	c.nodes[target].store.Put(f, store.Replica)
	c.stats.ReplicasCreated++
	return target, nil
}

// Placement records one replica created by Maintain.
type Placement struct {
	Holder  bitops.PID
	Name    string
	Replica bitops.PID
}

// Maintain closes one §2.2/§6 counting window on every live node — the
// engine-level equivalent of the simulator's Balance loop, one step per
// call. Each node's store closes its window first (store.EndWindow: evict
// the replicas that served fewer than evictBelow gets, pick the hottest
// survivor, reset the counters); then every node whose pick served more
// than threshold gets places one replica of it, in the same node order.
// All evictions thus precede any placement. It returns the placements
// made and the number of replicas evicted.
func (c *Cluster) Maintain(threshold, evictBelow uint64) ([]Placement, int) {
	var hot []Placement
	evicted := 0
	c.live.ForEachLive(func(p bitops.PID) {
		f, ok, n := c.nodes[p].store.EndWindow(threshold, evictBelow)
		evicted += n
		if ok {
			hot = append(hot, Placement{Holder: p, Name: f.Name})
		}
	})
	c.stats.ReplicasEvicted += uint64(evicted)
	out := hot[:0]
	for _, h := range hot {
		if rep, err := c.ReplicateFile(h.Holder, h.Name); err == nil {
			h.Replica = rep
			out = append(out, h)
		}
	}
	return out, evicted
}
