package core

import (
	"lesslog/internal/bitops"
	"lesslog/internal/liveness"
	"lesslog/internal/store"
)

// Join admits a new node at PID k (§5.1): k obtains the status word from a
// neighbor, every live node registers k as live, and the inserted files
// that other nodes held *because k was absent* are handed to k.
//
// The paper "copies" such files to the joining node; this implementation
// moves them (copy then delete at the old holder) to preserve the
// single-authoritative-copy-per-subtree invariant that the update
// broadcast and the leave/fail mechanisms rely on; see DESIGN.md.
func (c *Cluster) Join(k bitops.PID) error {
	if int(k) >= bitops.Slots(c.cfg.M) {
		return ErrPIDRange
	}
	if c.live.IsLive(k) {
		return ErrPIDInUse
	}
	// Obtain the status word from a neighboring live node (§5.1), then
	// register.
	var status *liveness.Set
	if c.live.LiveCount() > 0 {
		neighbor := c.live.LivePIDs()[0]
		status = c.nodes[neighbor].status.Clone()
	} else {
		status = liveness.New(c.cfg.M)
	}
	c.live.SetLive(k)
	status.SetLive(k)
	node := &Node{pid: k, store: store.New(), status: status}
	c.nodes[k] = node
	c.broadcastStatus(func(s *liveness.Set) { s.SetLive(k) })

	// Recover the files k must now hold: any inserted copy whose subtree
	// placement now selects k. (The paper walks all 2^m lookup trees; an
	// inserted copy exists only where a file does, so walking the files
	// visits exactly the trees that matter.)
	type move struct {
		from bitops.PID
		file store.File
	}
	var moves []move
	c.live.ForEachLive(func(j bitops.PID) {
		if j == k {
			return
		}
		st := c.nodes[j].store
		for _, name := range st.Names(store.Inserted) {
			if c.view(c.Target(name)).JoinTakes(k, j) {
				f, _ := st.Peek(name)
				moves = append(moves, move{from: j, file: f})
			}
		}
	})
	for _, mv := range moves {
		node.store.Put(mv.file, store.Inserted)
		c.nodes[mv.from].store.Delete(mv.file.Name)
		c.stats.FilesMigrated++
	}
	return nil
}

// Leave retires node k voluntarily (§5.2): k broadcasts its departure,
// discards its replicated files, and re-inserts each of its inserted files
// with itself registered dead, so every file keeps an authoritative copy
// in k's former subtree.
func (c *Cluster) Leave(k bitops.PID) error {
	n, ok := c.nodes[k]
	if !ok {
		return ErrNotLive
	}
	inserted := n.store.Names(store.Inserted)
	files := make([]store.File, 0, len(inserted))
	for _, name := range inserted {
		f, _ := n.store.Peek(name)
		files = append(files, f)
	}
	c.live.SetDead(k)
	delete(c.nodes, k)
	c.broadcastStatus(func(s *liveness.Set) { s.SetDead(k) })

	for _, f := range files {
		v := c.view(c.Target(f.Name))
		// The copy k held served k's own subtree; re-place it there.
		if h, ok := v.PrimaryOf(k); ok {
			c.nodes[h].store.Put(f, store.Inserted)
			c.stats.FilesMigrated++
		}
		// No live node left in the subtree: the copy is lost there, but
		// with B > 0 the other subtrees still serve it (§4).
	}
	return nil
}

// Fail kills node k without warning (§5.3): its stored files are lost.
// Every live node registers k dead. With B > 0 the engine then restores
// the 2^B-copy invariant: for every file whose copy died with k, a live
// holder in another subtree supplies a fresh copy to k's former subtree.
// With B == 0 the lost inserted files simply fault on access.
func (c *Cluster) Fail(k bitops.PID) error {
	if _, ok := c.nodes[k]; !ok {
		return ErrNotLive
	}
	c.live.SetDead(k)
	delete(c.nodes, k)
	c.broadcastStatus(func(s *liveness.Set) { s.SetDead(k) })
	if c.cfg.B == 0 {
		return nil
	}

	// §5.3 recovery, driven from the surviving inserted copies: a file's
	// copy died with k exactly when, in its lookup tree, k's subtree
	// placement pointed at k (k outranked today's primary). The
	// surviving holder j in another subtree re-inserts it.
	type restore struct {
		to   bitops.PID
		file store.File
	}
	var restores []restore
	seen := map[string]bool{}
	c.live.ForEachLive(func(j bitops.PID) {
		st := c.nodes[j].store
		for _, name := range st.Names(store.Inserted) {
			if seen[name] {
				continue
			}
			h, ok := c.view(c.Target(name)).RestoreTarget(k, j)
			if !ok {
				continue // k held no copy j must restore
			}
			if c.nodes[h].store.Has(name) {
				continue // already restored from another subtree
			}
			seen[name] = true
			f, _ := st.Peek(name)
			restores = append(restores, restore{to: h, file: f})
		}
	})
	for _, rs := range restores {
		c.nodes[rs.to].store.Put(rs.file, store.Inserted)
		c.stats.FilesMigrated++
	}
	return nil
}
