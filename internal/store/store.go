// Package store implements a LessLog node's local file store (paper §2.2
// and §5.2). It distinguishes *inserted* files — the authoritative copies
// placed by (ADVANCED)INSERTFILE, which must be migrated when the node
// leaves — from *replicated* files created to shed load, which are simply
// discarded on departure. Each copy carries a version for top-down update
// propagation and an access counter feeding the paper's counter-based
// replica-removal mechanism (§6).
package store

import (
	"fmt"
	"sort"
	"time"

	"lesslog/internal/msg"
)

// Kind distinguishes the two copy classes of §5.2.
type Kind uint8

const (
	// Inserted marks an authoritative copy placed by file insertion.
	Inserted Kind = iota
	// Replica marks a copy created by REPLICATEFILE to shed load.
	Replica
)

// String returns "inserted" or "replica".
func (k Kind) String() string {
	if k == Inserted {
		return "inserted"
	}
	return "replica"
}

// File is an immutable snapshot of a stored file.
type File struct {
	Name    string
	Data    []byte
	Version uint64
	// Ref, when Data lives in a large frame's read buffer, is a reference
	// to that buffer (msg.Ref); nil for every other body. The store holds
	// a reference of its own for as long as it keeps the copy, ending it
	// when a write supersedes the copy or a delete removes it, and every
	// read that returns the copy (Get, Peek, EndWindow's pick) hands the
	// caller one more, which the caller ends with Release once it is done
	// with Data. A reference never ended only leaves the buffer to the
	// collector; ending one and then reading Data is the one way to go
	// wrong. A mutator never takes over the caller's reference: it
	// retains what it keeps.
	Ref *msg.Ref
}

// Release ends the caller's reference to f's buffer, if it has one; f.Data
// must not be read afterwards.
func (f File) Release() { f.Ref.Release() }

// held is f with one more reference taken, for a read handing f out.
func (f File) held() File {
	f.Ref.Retain()
	return f
}

type entry struct {
	file File
	kind Kind
	hits uint64
}

// tomb records a deletion: the version the delete carried (or the erased
// copy's own version when the delete was unversioned) and when it was
// recorded, for horizon-based pruning. A name never carries both a live
// copy and a tombstone: Tombstone erases the copy, and any write that
// supersedes the tombstone clears it.
type tomb struct {
	version uint64
	at      time.Time
}

// Persister receives every durable mutation the store applies, in apply
// order — the hook a write-ahead log (internal/wal) attaches through
// SetPersister. Calls happen synchronously inside the mutator, under
// whatever lock serializes the store (the shard mutex for Sharded), so
// the persisted order per name is exactly the applied order, and a
// persister that blocks until the record is on disk makes "applied"
// imply "durable". A nil persister — the default — keeps the store
// memory-only, which is what tests and the simulation engine want.
//
// Access counters (hits) and tombstone pruning are deliberately not
// persisted: counters are a per-window load signal, and replayed
// tombstones carry their record time, so the repair loop's next TTL
// prune re-drops anything pruned before the restart.
type Persister interface {
	// PersistPut logs a copy placement or overwrite (Put, Update,
	// Promote — kind is the effective stored kind).
	PersistPut(f File, kind Kind)
	// PersistTombstone logs a versioned deletion marker with its merged
	// (winning) version.
	PersistTombstone(name string, version uint64, at time.Time)
	// PersistDelete logs a local-only removal (no tombstone).
	PersistDelete(name string)
}

// Store is one node's local storage. It is not safe for concurrent use;
// the cluster engine serializes access per node, and the networked node
// wraps it in its own mutex.
type Store struct {
	files map[string]*entry
	tombs map[string]tomb
	p     Persister
}

// New returns an empty store.
func New() *Store {
	return &Store{files: make(map[string]*entry), tombs: make(map[string]tomb)}
}

// SetPersister attaches (or, with nil, detaches) the durability hook.
// Attach only after any recovery replay has filled the store, or the
// replay itself would be re-appended to the log it came from.
func (s *Store) SetPersister(p Persister) { s.p = p }

// Put places a copy of f with the given kind, replacing any existing copy
// of the same name (and resetting its access counter) and clearing any
// tombstone — the unconditional, authoritative write. Replacing an
// inserted copy with a replica is rejected: an authoritative copy never
// loses its status to a load-shedding one. Callers that may race newer
// writes or deletions should use PutNewer instead.
func (s *Store) Put(f File, kind Kind) {
	if old, ok := s.files[f.Name]; ok && old.kind == Inserted && kind == Replica {
		kind = Inserted
	}
	delete(s.tombs, f.Name)
	f.Ref.Retain()
	if old, ok := s.files[f.Name]; ok {
		old.file.Release()
	}
	s.files[f.Name] = &entry{file: f, kind: kind}
	if s.p != nil {
		s.p.PersistPut(f, kind)
	}
}

// PutResult says what PutNewer did with a copy.
type PutResult uint8

const (
	// PutApplied: the copy was stored.
	PutApplied PutResult = iota
	// PutStale: an existing copy at least as new was kept instead.
	PutStale
	// PutTombstoned: the name was deleted at a version at least as new as
	// the offered copy; the write was refused.
	PutTombstoned
)

// PutNewer places f with kind unless the name's history already dominates
// it: a tombstone at or above f.Version refuses the write (the name was
// deleted at least as recently as this copy was written), and an existing
// copy at or above f.Version is kept. The surviving version is returned
// either way; a write that goes through clears any older tombstone.
func (s *Store) PutNewer(f File, kind Kind) (uint64, PutResult) {
	if t, ok := s.tombs[f.Name]; ok && f.Version <= t.version {
		return t.version, PutTombstoned
	}
	if old, ok := s.files[f.Name]; ok && old.file.Version >= f.Version {
		return old.file.Version, PutStale
	}
	s.Put(f, kind)
	return f.Version, PutApplied
}

// Get returns the copy of name, counting the access, and reports whether
// one exists.
func (s *Store) Get(name string) (File, bool) {
	e, ok := s.files[name]
	if !ok {
		return File{}, false
	}
	e.hits++
	return e.file.held(), true
}

// Peek returns the copy of name without counting an access.
func (s *Store) Peek(name string) (File, bool) {
	e, ok := s.files[name]
	if !ok {
		return File{}, false
	}
	return e.file.held(), true
}

// Version returns the version of name's copy without counting an access
// or handing out its body: the read for a caller that compares versions.
func (s *Store) Version(name string) (uint64, bool) {
	e, ok := s.files[name]
	if !ok {
		return 0, false
	}
	return e.file.Version, true
}

// Has reports whether a copy of name exists, without counting an access.
func (s *Store) Has(name string) bool {
	_, ok := s.files[name]
	return ok
}

// KindOf returns the kind of the stored copy of name.
func (s *Store) KindOf(name string) (Kind, bool) {
	e, ok := s.files[name]
	if !ok {
		return 0, false
	}
	return e.kind, true
}

// Update overwrites the data of an existing copy if newVersion is strictly
// newer, preserving its kind and reporting whether an overwrite happened.
// Stale or duplicate update deliveries are therefore idempotent.
func (s *Store) Update(name string, data []byte, newVersion uint64) bool {
	return s.UpdateFile(File{Name: name, Data: data, Version: newVersion})
}

// UpdateFile is Update for a body that may live in a frame buffer: the
// superseded copy's reference ends, and f's is retained.
func (s *Store) UpdateFile(f File) bool {
	e, ok := s.files[f.Name]
	if !ok || f.Version <= e.file.Version {
		return false
	}
	f.Ref.Retain()
	e.file.Release()
	e.file.Data, e.file.Ref, e.file.Version = f.Data, f.Ref, f.Version
	if s.p != nil {
		s.p.PersistPut(e.file, e.kind)
	}
	return true
}

// Delete removes the copy of name and reports whether one existed. No
// tombstone is left behind: this is the local-only removal (replica
// eviction, post-handoff cleanup), not a cluster-wide deletion — the file
// still exists elsewhere and may legitimately be pushed back. Cluster
// deletions go through Tombstone.
func (s *Store) Delete(name string) bool {
	e, ok := s.files[name]
	if !ok {
		return false
	}
	e.file.Release()
	delete(s.files, name)
	if s.p != nil {
		s.p.PersistDelete(name)
	}
	return true
}

// Tombstone erases the copy of name (if any) and records a versioned
// tombstone so the deletion wins against later stale writes: PutNewer
// refuses any copy at or below the tombstone's version until a newer
// write supersedes it or PruneTombstones drops it. The recorded version
// is the largest of version, the erased copy's own version, and any
// existing tombstone's, so the exact copy a delete erased can never be
// re-planted by a lagging push. Reports whether a copy was erased.
// Nothing is recorded for a name this store neither holds nor has
// already tombstoned, bounding tombstone growth to names actually held.
func (s *Store) Tombstone(name string, version uint64, at time.Time) bool {
	e, had := s.files[name]
	if had {
		if e.file.Version > version {
			version = e.file.Version
		}
		e.file.Release()
		delete(s.files, name)
	}
	t, marked := s.tombs[name]
	if !had && !marked {
		return false
	}
	if t.version > version {
		version = t.version
	}
	s.tombs[name] = tomb{version: version, at: at}
	if s.p != nil {
		s.p.PersistTombstone(name, version, at)
	}
	return had
}

// RestoreTombstone records a tombstone for name unconditionally, erasing
// any copy it dominates — the recovery-replay path (internal/wal). Unlike
// Tombstone it does not require the name to be held or already marked:
// after log compaction a tombstone may be the only record a name has
// left, and Tombstone would drop it as a no-op. Versions still merge
// upward so replay order quirks can never lower a mark. Nothing is
// persisted — the record being restored is already in the log.
func (s *Store) RestoreTombstone(name string, version uint64, at time.Time) {
	if e, ok := s.files[name]; ok {
		if e.file.Version > version {
			version = e.file.Version
		}
		e.file.Release()
		delete(s.files, name)
	}
	if t, ok := s.tombs[name]; ok && t.version > version {
		version = t.version
	}
	s.tombs[name] = tomb{version: version, at: at}
}

// DiscardAll drops every copy and tombstone without informing the
// persister, and returns how many copies were dropped. This is the
// in-memory half of a graceful departure (netnode Leave): the durable
// half is a single retire barrier record (wal.Engine.Retire), not one
// delete record per name, so the persister must not see the discard. The
// dropped copies' references are not ended: a departing peer's bodies go
// to the collector, not to the free list.
func (s *Store) DiscardAll() int {
	n := len(s.files)
	s.files = make(map[string]*entry)
	s.tombs = make(map[string]tomb)
	return n
}

// TombVersion returns the tombstone version of name and whether name is
// currently tombstoned.
func (s *Store) TombVersion(name string) (uint64, bool) {
	t, ok := s.tombs[name]
	return t.version, ok
}

// PruneTombstones drops tombstones recorded before cutoff — the GC
// horizon after which a deletion is assumed to have reached every
// replica — and returns how many were dropped. The prune itself is not
// persisted: replay may briefly restore pruned marks, but they carry
// their original record time, so the next TTL prune drops them again.
func (s *Store) PruneTombstones(cutoff time.Time) int {
	n := 0
	for name, t := range s.tombs {
		if t.at.Before(cutoff) {
			delete(s.tombs, name)
			n++
		}
	}
	return n
}

// Promote upgrades a replica of name to an inserted copy (used when a
// leaving node's files are re-inserted at their new holder).
func (s *Store) Promote(name string) {
	e, ok := s.files[name]
	if !ok || e.kind == Inserted {
		return
	}
	e.kind = Inserted
	// Kind is durable state: an inserted copy must be migrated on Leave
	// where a replica is discarded, so a promotion that only lived in
	// memory would demote back across a restart.
	if s.p != nil {
		s.p.PersistPut(e.file, Inserted)
	}
}

// Hits returns the access count of name since it was stored or the last
// EndWindow.
func (s *Store) Hits(name string) uint64 {
	if e, ok := s.files[name]; ok {
		return e.hits
	}
	return 0
}

// EndWindow closes one §2.2/§6 counting window — the per-node rule, in
// one place for the engine (core.Cluster.Maintain) and the fabric
// (netnode.Peer.MaintainOnce):
//
//   - every replica that served fewer than evictBelow gets is deleted,
//     through the persister as Delete does (inserted copies are never
//     candidates);
//   - among the survivors the copy with the most hits, ties broken toward
//     the smallest name, is returned as hot when it served more than
//     threshold gets — the file to shed with one children-list replica;
//   - every counter is zeroed, starting the next window.
//
// Evicting before picking only differs from picking first when a replica
// that served more than threshold gets is evicted, i.e. threshold+1 <
// evictBelow, which no caller configures. The kind check and the delete
// happen in one call (on Sharded, under one shard lock), so a concurrent
// Promote either lands first and the copy is kept, or finds it gone: an
// authoritative copy is never evicted. A returned hot copy holds a
// reference, like a Peek's.
func (s *Store) EndWindow(threshold, evictBelow uint64) (hot File, ok bool, evicted int) {
	var w window
	s.endWindow(evictBelow, &w)
	return w.result(threshold)
}

// window accumulates one EndWindow pass, possibly over several stores
// (Sharded's shards): the hottest surviving copy so far, with a reference
// taken under its shard's lock, and the evictions.
type window struct {
	hot     File
	hits    uint64
	evicted int
}

// endWindow applies EndWindow's rule to s, folding its survivors into w.
func (s *Store) endWindow(evictBelow uint64, w *window) {
	for name, e := range s.files {
		if e.kind == Replica && e.hits < evictBelow {
			s.Delete(name)
			w.evicted++
			continue
		}
		if e.hits > w.hits || e.hits == w.hits && name < w.hot.Name {
			w.hot.Release()
			w.hot, w.hits = e.file.held(), e.hits
		}
		e.hits = 0
	}
}

// result returns the window's hot pick if it served more than threshold
// gets, and the number of replicas evicted.
func (w *window) result(threshold uint64) (File, bool, int) {
	if w.hits <= threshold {
		w.hot.Release()
		return File{}, false, w.evicted
	}
	return w.hot, true, w.evicted
}

// Names returns the sorted names of all copies of the given kind.
func (s *Store) Names(kind Kind) []string {
	var out []string
	for n, e := range s.files {
		if e.kind == kind {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// AllNames returns the sorted names of every copy.
func (s *Store) AllNames() []string {
	out := make([]string, 0, len(s.files))
	for n := range s.files {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of stored copies.
func (s *Store) Len() int { return len(s.files) }

// TombstoneCount returns the number of live tombstones — deletions
// recorded but not yet pruned. Surfaced as a gauge so operators can see
// delete propagation debt instead of inferring it from memory growth.
func (s *Store) TombstoneCount() int { return len(s.tombs) }

// TombRecord is one live tombstone: the deleted name, the winning
// version, and when the mark was recorded (the TTL-prune clock).
type TombRecord struct {
	Name    string
	Version uint64
	At      time.Time
}

// Tombstones returns every live tombstone, sorted by name — the
// enumeration checkpointing and compaction need to carry deletions
// across restarts.
func (s *Store) Tombstones() []TombRecord {
	out := make([]TombRecord, 0, len(s.tombs))
	for n, t := range s.tombs {
		out = append(out, TombRecord{Name: n, Version: t.version, At: t.at})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Record is one inventory row: a copy's identity plus its §6 access count
// in the current window. The fleet scraper aggregates these into
// replica-count distributions and top-K hot-name lists.
type Record struct {
	Name    string `json:"name"`
	Version uint64 `json:"version"`
	Kind    string `json:"kind"`
	Hits    uint64 `json:"hits"`
}

// Records returns the store's full inventory, sorted by name.
func (s *Store) Records() []Record {
	out := make([]Record, 0, len(s.files))
	for n, e := range s.files {
		out = append(out, Record{Name: n, Version: e.file.Version, Kind: e.kind.String(), Hits: e.hits})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Counts returns how many inserted copies and how many replicas the store
// holds, allocating nothing — the monitoring read, where Names(kind) would
// build and sort a name list just to take its length.
func (s *Store) Counts() (inserted, replicas int) {
	for _, e := range s.files {
		if e.kind == Inserted {
			inserted++
		}
	}
	return inserted, len(s.files) - inserted
}

// String summarizes the store for debugging.
func (s *Store) String() string {
	ins, rep := s.Counts()
	return fmt.Sprintf("store{inserted=%d replicas=%d}", ins, rep)
}
