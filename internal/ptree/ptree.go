// Package ptree provides views of the physical lookup trees of a LessLog
// system (paper §2.1, §3 and §4): the image of the virtual binomial tree
// under XOR with the root's complement, combined with a liveness status
// word and, for the fault-tolerant model, a 2^b-way subtree split.
//
// A View answers every tree-shaped question the file operations need:
// parent routing with dead-node bypass (the augmented FP of §3), the get
// walk as one step (Next, which the engine, the fabric, the simulator and
// the trace renderer all loop), the FINDLIVENODE search, the expanded
// children list used by replication, and the live-population counts behind
// the proportional children-list choice. All operations but Next work
// *within a subtree*; with b = 0 there is exactly one subtree — the whole
// tree — and the view reduces to the basic/advanced models of §2 and §3.
package ptree

import (
	"sort"

	"lesslog/internal/bitops"
	"lesslog/internal/liveness"
	"lesslog/internal/msg"
)

// View is a read-only view of the physical lookup tree rooted at Root,
// split into 2^B subtrees, with liveness supplied by Live. Views are cheap
// value types: create them on the fly per target node.
type View struct {
	Root bitops.PID
	Live *liveness.Set
	B    int

	m    int
	comp bitops.VID
}

// NewView returns the view of the lookup tree rooted at root. b is the
// number of fault-tolerance bits (0 for the basic and advanced models).
func NewView(root bitops.PID, live *liveness.Set, b int) View {
	m := live.M()
	bitops.CheckSplit(m, b) // b == 0 is always valid since m >= 1
	return View{Root: root, Live: live, B: b, m: m, comp: bitops.Complement(root, m)}
}

// M returns the identifier width.
func (v View) M() int { return v.m }

// VID returns p's virtual identifier in this tree (Property 4).
func (v View) VID(p bitops.PID) bitops.VID { return bitops.VID(p) ^ v.comp }

// PID returns the node occupying virtual position vid (Property 4).
func (v View) PID(vid bitops.VID) bitops.PID { return bitops.PID(vid ^ v.comp) }

// SubtreeID returns the subtree identifier of p: the last B bits of its
// VID (§4). With B == 0 every node is in subtree 0.
func (v View) SubtreeID(p bitops.PID) bitops.VID {
	return bitops.SubtreeID(v.VID(p), v.B)
}

// SubtreeVID returns p's position within its subtree.
func (v View) SubtreeVID(p bitops.PID) bitops.VID {
	return bitops.SubtreeVID(v.VID(p), v.B)
}

// SubtreeRoot returns the node at the root position of subtree sid,
// regardless of liveness.
func (v View) SubtreeRoot(sid bitops.VID) bitops.PID {
	return v.PID(bitops.SubtreeRootVID(sid, v.m, v.B))
}

// Parent returns p's parent within its subtree (Property 2 on the subtree
// VID) and whether p has one, ignoring liveness.
func (v View) Parent(p bitops.PID) (bitops.PID, bool) {
	pv, ok := bitops.SubtreeParentVID(v.VID(p), v.m, v.B)
	if !ok {
		return 0, false
	}
	return v.PID(pv), true
}

// AliveAncestor implements the augmented FP of §3: the first *live* proper
// ancestor of p within its subtree. It reports false when every remaining
// ancestor up to the subtree root is dead.
func (v View) AliveAncestor(p bitops.PID) (bitops.PID, bool) {
	vid := v.VID(p)
	for {
		pv, ok := bitops.SubtreeParentVID(vid, v.m, v.B)
		if !ok {
			return 0, false
		}
		if q := v.PID(pv); v.Live.IsLive(q) {
			return q, true
		}
		vid = pv
	}
}

// Children returns p's children within its subtree in descending VID order,
// ignoring liveness.
func (v View) Children(p bitops.PID) []bitops.PID {
	vids := bitops.AppendSubtreeChildrenVIDs(nil, v.VID(p), v.m, v.B)
	out := make([]bitops.PID, len(vids))
	for i, cv := range vids {
		out[i] = v.PID(cv)
	}
	return out
}

// FindLiveNode implements FINDLIVENODE(s, r) from §3, restricted to s's
// subtree as §4 prescribes: if P(s) is alive it is returned; otherwise the
// live node with the largest subtree VID strictly below s's. By Property 3
// that is the live node with the most offspring, the node ADVANCEDINSERTFILE
// targets. It reports false when the subtree has no live node at or below
// s's position.
func (v View) FindLiveNode(s bitops.PID) (bitops.PID, bool) {
	if v.Live.IsLive(s) {
		return s, true
	}
	sv := v.SubtreeVID(s)
	if sv == 0 {
		return 0, false
	}
	return v.maxLiveAtOrBelow(v.SubtreeID(s), sv-1)
}

// primaryHolder returns the primary of subtree sid: the node FINDLIVENODE
// selects for this tree's root, i.e. the root position if alive, else the
// live node with the largest subtree VID. False when the subtree is
// entirely dead.
func (v View) primaryHolder(sid bitops.VID) (bitops.PID, bool) {
	return v.maxLiveAtOrBelow(sid, bitops.Mask(v.m-v.B))
}

// AppendPrimaries appends where an insert targeted at this tree's root puts
// its copies (§2.2, §4) to dst: the primary of every subtree that has a live
// node, in subtree order. Any node holding the status word computes the same
// list, which is what lets a client send an insert straight to one of them.
func (v View) AppendPrimaries(dst []bitops.PID) []bitops.PID {
	for sid := bitops.VID(0); sid < bitops.VID(bitops.SubtreeCount(v.B)); sid++ {
		if h, ok := v.primaryHolder(sid); ok {
			dst = append(dst, h)
		}
	}
	return dst
}

// PrimaryOf returns the primary of q's subtree — FINDLIVENODE of the
// subtree's root position (§3) — and false when that subtree has no live
// node. It is where a copy q's subtree must hold lives, and where a get
// that walked off a dead subtree root jumps.
func (v View) PrimaryOf(q bitops.PID) (bitops.PID, bool) {
	return v.primaryHolder(v.SubtreeID(q))
}

// IsPrimary reports whether q is its subtree's primary: the one position in
// the subtree an inserted copy of this tree's name belongs on.
func (v View) IsPrimary(q bitops.PID) bool {
	h, ok := v.PrimaryOf(q)
	return ok && h == q
}

// JoinTakes reports whether, in a view where joiner is already live, the
// inserted copy at holder moves to joiner (§5.1): holder is in joiner's
// subtree and joiner now outranks every other live node there.
func (v View) JoinTakes(joiner, holder bitops.PID) bool {
	return v.SubtreeID(holder) == v.SubtreeID(joiner) && v.IsPrimary(joiner)
}

// RestoreTarget returns where holder restores a copy lost with dead (§5.3),
// in a view where dead is already dead: the new primary of dead's subtree,
// when dead was that subtree's primary and holder sits in another subtree.
// False when no restore is due from holder or no live node is left there.
func (v View) RestoreTarget(dead, holder bitops.PID) (bitops.PID, bool) {
	if v.SubtreeID(holder) == v.SubtreeID(dead) {
		return 0, false
	}
	h, ok := v.PrimaryOf(dead)
	if !ok || v.SubtreeVID(dead) <= v.SubtreeVID(h) {
		return 0, false
	}
	return h, true
}

// AppendBroadcastStarts appends where a top-down broadcast of this tree's
// name enters each subtree (§3) to dst: the subtree's root position when it
// is live, else that root's expanded children list. The lists of different
// subtrees head disjoint parts of the tree that together cover every live
// node.
func (v View) AppendBroadcastStarts(dst []bitops.PID) []bitops.PID {
	for sid := bitops.VID(0); sid < bitops.VID(bitops.SubtreeCount(v.B)); sid++ {
		if root := v.SubtreeRoot(sid); v.Live.IsLive(root) {
			dst = append(dst, root)
		} else {
			dst = append(dst, v.ExpandedChildrenList(root)...)
		}
	}
	return dst
}

// maxLiveAtOrBelow finds the live node with the largest subtree VID at or
// below bound in subtree sid, using the word-scanned status-word query when
// the whole tree is one subtree.
func (v View) maxLiveAtOrBelow(sid, bound bitops.VID) (bitops.PID, bool) {
	if v.B == 0 {
		vid, ok := v.Live.MaxLiveVID(v.comp, bound)
		if !ok {
			return 0, false
		}
		return v.PID(vid), true
	}
	sv, ok := v.Live.MaxLiveSubtreeVID(v.comp, sid, bound, v.B)
	if !ok {
		return 0, false
	}
	return v.PID(bitops.ComposeVID(sv, sid, v.B)), true
}

// HasLiveGreaterVID reports whether some live node in p's subtree has a
// strictly larger subtree VID than p — the predicate the advanced model's
// replication tests (§3). p's own liveness is irrelevant to the answer.
func (v View) HasLiveGreaterVID(p bitops.PID) bool {
	q, ok := v.PrimaryOf(p)
	return ok && v.SubtreeVID(q) > v.SubtreeVID(p)
}

// ExpandedChildrenList returns the children list of §3: p's live children
// together with the (recursively expanded) children lists of p's dead
// children, the whole list sorted by descending VID — which by Property 3
// is descending offspring count. With no dead nodes this is exactly the
// §2.2 children list. The worked example of §3 — the children list of
// P(4) with P(0) and P(5) dead being (P(6), P(7), P(1), P(12), P(13),
// P(8)) — is reproduced in the tests.
func (v View) ExpandedChildrenList(p bitops.PID) []bitops.PID {
	list := v.appendExpanded(nil, v.VID(p))
	sort.Slice(list, func(i, j int) bool { return v.VID(list[i]) > v.VID(list[j]) })
	return list
}

func (v View) appendExpanded(dst []bitops.PID, vid bitops.VID) []bitops.PID {
	for _, cv := range bitops.AppendSubtreeChildrenVIDs(nil, vid, v.m, v.B) {
		if c := v.PID(cv); v.Live.IsLive(c) {
			dst = append(dst, c)
		} else {
			dst = v.appendExpanded(dst, cv)
		}
	}
	return dst
}

// ForEachDescendant calls fn for every position in p's proper descendant
// set within its subtree, live or dead. The descendant positions of a node
// whose subtree VID is R·0·x (R the leading-ones run) are exactly Y·0·x for
// all Y, so the walk enumerates 2^LeadingOnes - 1 positions directly.
func (v View) ForEachDescendant(p bitops.PID, fn func(q bitops.PID)) {
	sv := v.SubtreeVID(p)
	sid := v.SubtreeID(p)
	mb := v.m - v.B
	lo := bitops.LeadingOnes(sv, mb)
	if lo == 0 {
		return
	}
	tail := sv &^ (bitops.Mask(mb) << uint(mb-lo)) // bits below the run
	for y := bitops.VID(0); y < bitops.VID(1)<<uint(lo); y++ {
		dsv := y<<uint(mb-lo) | tail
		if dsv == sv {
			continue
		}
		fn(v.PID(bitops.ComposeVID(dsv, sid, v.B)))
	}
}

// LiveDescendants counts the live proper descendants of p within its
// subtree — the "offspring nodes of P(k)" side of the proportional choice
// in §3's replication rule.
func (v View) LiveDescendants(p bitops.PID) int {
	n := 0
	v.ForEachDescendant(p, func(q bitops.PID) {
		if v.Live.IsLive(q) {
			n++
		}
	})
	return n
}

// LiveInSubtree counts the live nodes in subtree sid.
func (v View) LiveInSubtree(sid bitops.VID) int {
	if v.B == 0 {
		return v.Live.LiveCount()
	}
	n := 0
	mask := bitops.VID(1)<<uint(v.B) - 1
	v.Live.ForEachLive(func(p bitops.PID) {
		if v.VID(p)&mask == sid {
			n++
		}
	})
	return n
}

// Route is the state a get carries from stop to stop: exactly the three
// routing fields of msg.Request (Origin, Subtree, FlagFallback), so a peer
// resumes the walk from what a frame carries.
type Route struct {
	Origin   bitops.PID // the requester: §4 re-enters every subtree at its position
	Subtree  uint32     // subtrees left so far, the §4 migration counter
	Fallback bool       // §3's second step taken in the current subtree
}

// Next is one step of the get walk from self, a live stop that holds no
// copy: the first live ancestor (§2.2/§3, HopForward); when there is none,
// the subtree's FINDLIVENODE primary (§3 step two, HopFallback); once that
// too is spent, the requester's subtree VID in the next subtree that has a
// live node (§4, HopMigrate) — that position if live, else its first live
// ancestor, else the primary there with the fallback already taken. It
// reports false when no subtree is left. A get is the loop of Next from
// its requester until a stop holds a copy; the hops are the steps taken.
func (v View) Next(self bitops.PID, st Route) (bitops.PID, Route, msg.HopAction, bool) {
	if !st.Fallback {
		if anc, ok := v.AliveAncestor(self); ok {
			return anc, st, msg.HopForward, true
		}
		st.Fallback = true
		if prim, ok := v.PrimaryOf(self); ok && prim != self {
			return prim, st, msg.HopFallback, true
		}
	}
	n := uint32(bitops.SubtreeCount(v.B))
	svid, sid := v.SubtreeVID(st.Origin), v.SubtreeID(st.Origin)
	for st.Subtree+1 < n {
		st.Subtree++
		st.Fallback = false
		entry := v.PID(bitops.ComposeVID(svid, (sid+bitops.VID(st.Subtree))&bitops.VID(n-1), v.B))
		if v.Live.IsLive(entry) {
			return entry, st, msg.HopMigrate, true
		}
		if anc, ok := v.AliveAncestor(entry); ok {
			return anc, st, msg.HopMigrate, true
		}
		if prim, ok := v.PrimaryOf(entry); ok {
			st.Fallback = true
			return prim, st, msg.HopMigrate, true
		}
	}
	return 0, st, 0, false
}
