package core

import (
	"lesslog/internal/bitops"
	"lesslog/internal/msg"
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
	Fallback bool // §3 step 2: the server was reached by the FINDLIVENODE jump
	Migrated bool // §4: served from a different subtree
}

// Get resolves a file per GETFILE (§2.2) with the §3 dead-node
// augmentation and the §4 subtree migration: the request loops
// ptree.View.Next from the origin — live ancestors, then the FINDLIVENODE
// primary, then the origin's position in the next subtree — until a stop
// holds a copy. Every step is one hop, as it is one frame on the fabric.
func (c *Cluster) Get(origin bitops.PID, name string) (GetResult, error) {
	if !c.live.IsLive(origin) {
		return GetResult{}, ErrDeadOrigin
	}
	c.stats.Gets++
	v := c.view(c.Target(name))
	cur, st := origin, ptree.Route{Origin: origin}
	hops := 0
	for {
		if f, ok := c.nodes[cur].store.Get(name); ok {
			return GetResult{File: f, ServedBy: cur, Hops: hops,
				Fallback: st.Fallback, Migrated: st.Subtree > 0}, nil
		}
		next, nst, act, ok := v.Next(cur, st)
		if !ok {
			c.stats.Faults++
			return GetResult{}, ErrNotFound
		}
		hops++
		c.stats.GetHops++
		if act == msg.HopMigrate {
			c.stats.GetMigrations++
		}
		if act != msg.HopForward && nst.Fallback { // landed on a FINDLIVENODE primary
			c.stats.GetFallbacks++
		}
		cur, st = next, nst
	}
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
