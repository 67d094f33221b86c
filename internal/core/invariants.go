package core

import (
	"fmt"

	"lesslog/internal/bitops"
	"lesslog/internal/store"
)

// CheckInvariants verifies the structural invariants the engine maintains
// across file operations and churn, returning the first violation:
//
//  1. every live node's status word matches the ground truth (§5.1);
//  2. in each lookup tree and subtree, at most one *inserted* copy of a
//     file exists, and it sits exactly at the FINDLIVENODE placement —
//     the root position when alive, else the live node with the largest
//     subtree VID (the invariant that makes gets, updates and recovery
//     find the authoritative copy);
//  3. copies never sit on PIDs outside the live set.
//
// It is exercised by the property tests after randomized operation/churn
// sequences.
func (c *Cluster) CheckInvariants() error {
	// (1) status-word agreement.
	var statusErr error
	c.live.ForEachLive(func(p bitops.PID) {
		if statusErr != nil {
			return
		}
		n, ok := c.nodes[p]
		if !ok {
			statusErr = fmt.Errorf("core: live PID %d has no node", p)
			return
		}
		if !n.status.Equal(c.live) {
			statusErr = fmt.Errorf("core: P(%d) status word diverged from ground truth", p)
		}
	})
	if statusErr != nil {
		return statusErr
	}
	// (3) no orphan nodes.
	for p := range c.nodes {
		if !c.live.IsLive(p) {
			return fmt.Errorf("core: node map holds dead PID %d", p)
		}
	}
	// (2) placement of inserted copies, grouped per file and subtree.
	type key struct {
		name string
		sid  bitops.VID
	}
	holders := map[key][]bitops.PID{}
	c.live.ForEachLive(func(p bitops.PID) {
		st := c.nodes[p].store
		for _, name := range st.Names(store.Inserted) {
			v := c.view(c.Target(name))
			holders[key{name, v.SubtreeID(p)}] = append(holders[key{name, v.SubtreeID(p)}], p)
		}
	})
	for k, hs := range holders {
		if len(hs) > 1 {
			return fmt.Errorf("core: file %q has %d inserted copies in subtree %b: %v",
				k.name, len(hs), k.sid, hs)
		}
		// hs[0] is live, so its subtree has a primary.
		if want, _ := c.view(c.Target(k.name)).PrimaryOf(hs[0]); hs[0] != want {
			return fmt.Errorf("core: inserted copy of %q in subtree %b at P(%d), want P(%d)",
				k.name, k.sid, hs[0], want)
		}
	}
	return nil
}

// FaultToleranceDegreeOf returns how many subtrees currently hold an
// inserted copy of name — the achieved fault-tolerance degree, at most
// 2^B (§4).
func (c *Cluster) FaultToleranceDegreeOf(name string) int {
	v := c.view(c.Target(name))
	seen := map[bitops.VID]bool{}
	c.live.ForEachLive(func(p bitops.PID) {
		if k, ok := c.nodes[p].store.KindOf(name); ok && k == store.Inserted {
			seen[v.SubtreeID(p)] = true
		}
	})
	return len(seen)
}
