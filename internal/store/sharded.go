package store

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// DefaultShards is the shard count NewSharded picks when the caller does
// not care; 16 keeps per-shard contention negligible at the fan-in one
// pipelined connection can generate while costing one mutex word each.
const DefaultShards = 16

// Sharded is a concurrency-safe store: names are spread across power-of-2
// Store shards by FNV-1a hash, each behind its own mutex, so gets of
// distinct names stop contending on one lock. It mirrors the Store API;
// aggregate reads (AllNames, Len, Records, …) visit the shards in
// order and are linearizable per shard, not across them — the same
// guarantee the single global mutex gave concurrent observers in practice.
type Sharded struct {
	shards []shard
	mask   uint32
}

type shard struct {
	mu sync.Mutex
	s  *Store
}

// NewSharded returns an empty sharded store with n shards rounded up to a
// power of 2; n <= 0 selects DefaultShards.
func NewSharded(n int) *Sharded {
	if n <= 0 {
		n = DefaultShards
	}
	size := 1
	for size < n {
		size <<= 1
	}
	s := &Sharded{shards: make([]shard, size), mask: uint32(size - 1)}
	for i := range s.shards {
		s.shards[i].s = New()
	}
	return s
}

// ShardedFrom distributes src's copies (with their kinds; access counters
// start fresh) and tombstones across a new sharded store — the restore
// path from recovery replay, which rebuilds into a plain Store. Carrying
// the tombstones is what stops a restart from resurrecting deletions the
// repair plane hasn't finished propagating.
func ShardedFrom(src *Store, n int) *Sharded {
	s := NewSharded(n)
	for _, name := range src.AllNames() {
		f, _ := src.Peek(name)
		kind, _ := src.KindOf(name)
		s.Put(f, kind)
		f.Release()
	}
	for _, t := range src.Tombstones() {
		s.RestoreTombstone(t.Name, t.Version, t.At)
	}
	return s
}

// SetPersister attaches the durability hook to every shard. Mutators call
// it under the shard mutex, so per-name persist order equals apply order.
// Attach only after ShardedFrom has rebuilt recovered state, or the
// replay would be re-logged.
func (s *Sharded) SetPersister(p Persister) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.s.SetPersister(p)
		sh.mu.Unlock()
	}
}

// fnv1a is the 32-bit FNV-1a hash of name.
func fnv1a(name string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return h
}

func (s *Sharded) shardFor(name string) *shard {
	return &s.shards[fnv1a(name)&s.mask]
}

// Put places a copy of f with the given kind; see Store.Put.
func (s *Sharded) Put(f File, kind Kind) {
	sh := s.shardFor(f.Name)
	sh.mu.Lock()
	sh.s.Put(f, kind)
	sh.mu.Unlock()
}

// PutNewer places a copy of f unless an existing copy or tombstone is at
// least as new; see Store.PutNewer. The check and the write are one
// atomic step under the shard's mutex, so a concurrent newer write
// cannot be clobbered between them.
func (s *Sharded) PutNewer(f File, kind Kind) (uint64, PutResult) {
	sh := s.shardFor(f.Name)
	sh.mu.Lock()
	v, res := sh.s.PutNewer(f, kind)
	sh.mu.Unlock()
	return v, res
}

// Get returns the copy of name, counting the access.
func (s *Sharded) Get(name string) (File, bool) {
	sh := s.shardFor(name)
	sh.mu.Lock()
	f, ok := sh.s.Get(name)
	sh.mu.Unlock()
	return f, ok
}

// Peek returns the copy of name without counting an access.
func (s *Sharded) Peek(name string) (File, bool) {
	sh := s.shardFor(name)
	sh.mu.Lock()
	f, ok := sh.s.Peek(name)
	sh.mu.Unlock()
	return f, ok
}

// Version returns the version of name's copy; see Store.Version.
func (s *Sharded) Version(name string) (uint64, bool) {
	sh := s.shardFor(name)
	sh.mu.Lock()
	v, ok := sh.s.Version(name)
	sh.mu.Unlock()
	return v, ok
}

// Has reports whether a copy of name exists.
func (s *Sharded) Has(name string) bool {
	sh := s.shardFor(name)
	sh.mu.Lock()
	ok := sh.s.Has(name)
	sh.mu.Unlock()
	return ok
}

// KindOf returns the kind of the stored copy of name.
func (s *Sharded) KindOf(name string) (Kind, bool) {
	sh := s.shardFor(name)
	sh.mu.Lock()
	k, ok := sh.s.KindOf(name)
	sh.mu.Unlock()
	return k, ok
}

// Update overwrites an existing copy if newVersion is strictly newer; see
// Store.Update.
func (s *Sharded) Update(name string, data []byte, newVersion uint64) bool {
	return s.UpdateFile(File{Name: name, Data: data, Version: newVersion})
}

// UpdateFile is Update for a body that may live in a frame buffer; see
// Store.UpdateFile.
func (s *Sharded) UpdateFile(f File) bool {
	sh := s.shardFor(f.Name)
	sh.mu.Lock()
	ok := sh.s.UpdateFile(f)
	sh.mu.Unlock()
	return ok
}

// Delete removes the copy of name and reports whether one existed.
func (s *Sharded) Delete(name string) bool {
	sh := s.shardFor(name)
	sh.mu.Lock()
	ok := sh.s.Delete(name)
	sh.mu.Unlock()
	return ok
}

// Tombstone erases the copy of name and records a versioned tombstone;
// see Store.Tombstone.
func (s *Sharded) Tombstone(name string, version uint64, at time.Time) bool {
	sh := s.shardFor(name)
	sh.mu.Lock()
	ok := sh.s.Tombstone(name, version, at)
	sh.mu.Unlock()
	return ok
}

// RestoreTombstone records a tombstone unconditionally; see
// Store.RestoreTombstone.
func (s *Sharded) RestoreTombstone(name string, version uint64, at time.Time) {
	sh := s.shardFor(name)
	sh.mu.Lock()
	sh.s.RestoreTombstone(name, version, at)
	sh.mu.Unlock()
}

// Tombstones returns every live tombstone across shards, sorted by name.
func (s *Sharded) Tombstones() []TombRecord {
	var out []TombRecord
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		out = append(out, sh.s.Tombstones()...)
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// DiscardAll drops every copy and tombstone across shards without
// informing the persister; see Store.DiscardAll. Per-shard atomicity
// only — callers (Leave) hold their own serialization.
func (s *Sharded) DiscardAll() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.s.DiscardAll()
		sh.mu.Unlock()
	}
	return n
}

// TombVersion returns the tombstone version of name, if tombstoned.
func (s *Sharded) TombVersion(name string) (uint64, bool) {
	sh := s.shardFor(name)
	sh.mu.Lock()
	v, ok := sh.s.TombVersion(name)
	sh.mu.Unlock()
	return v, ok
}

// PruneTombstones drops tombstones recorded before cutoff across every
// shard and returns how many were dropped.
func (s *Sharded) PruneTombstones(cutoff time.Time) int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.s.PruneTombstones(cutoff)
		sh.mu.Unlock()
	}
	return n
}

// Promote upgrades a replica of name to an inserted copy.
func (s *Sharded) Promote(name string) {
	sh := s.shardFor(name)
	sh.mu.Lock()
	sh.s.Promote(name)
	sh.mu.Unlock()
}

// Hits returns the access count of name in the current window.
func (s *Sharded) Hits(name string) uint64 {
	sh := s.shardFor(name)
	sh.mu.Lock()
	h := sh.s.Hits(name)
	sh.mu.Unlock()
	return h
}

// EndWindow closes the counting window shard by shard, each under its
// shard's mutex; see Store.EndWindow. The hot pick is across all shards.
func (s *Sharded) EndWindow(threshold, evictBelow uint64) (hot File, ok bool, evicted int) {
	var w window
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.s.endWindow(evictBelow, &w)
		sh.mu.Unlock()
	}
	return w.result(threshold)
}

// Names returns the sorted names of all copies of the given kind.
func (s *Sharded) Names(kind Kind) []string {
	var out []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		out = append(out, sh.s.Names(kind)...)
		sh.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// AllNames returns the sorted names of every copy.
func (s *Sharded) AllNames() []string {
	var out []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		out = append(out, sh.s.AllNames()...)
		sh.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// Len returns the number of stored copies.
func (s *Sharded) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.s.Len()
		sh.mu.Unlock()
	}
	return n
}

// TombstoneCount returns the number of live tombstones across shards.
func (s *Sharded) TombstoneCount() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.s.TombstoneCount()
		sh.mu.Unlock()
	}
	return n
}

// Records returns the store's full inventory, sorted by name. Per-shard
// consistency only, like every other aggregate read.
func (s *Sharded) Records() []Record {
	var out []Record
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		out = append(out, sh.s.Records()...)
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Snapshot merges the shards — copies and tombstones — into one plain
// Store. Copies are re-Put, so the snapshot shares no entry structure
// with the live store. Per-shard consistency only.
func (s *Sharded) Snapshot() *Store {
	out := New()
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, name := range sh.s.AllNames() {
			f, _ := sh.s.Peek(name)
			kind, _ := sh.s.KindOf(name)
			out.Put(f, kind)
			f.Release()
		}
		for _, t := range sh.s.Tombstones() {
			out.RestoreTombstone(t.Name, t.Version, t.At)
		}
		sh.mu.Unlock()
	}
	return out
}

// Counts returns the inserted-copy and replica totals across shards,
// allocating nothing (see Store.Counts).
func (s *Sharded) Counts() (inserted, replicas int) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		ins, rep := sh.s.Counts()
		sh.mu.Unlock()
		inserted, replicas = inserted+ins, replicas+rep
	}
	return inserted, replicas
}

// String summarizes the store in the same format as Store.String.
func (s *Sharded) String() string {
	ins, rep := s.Counts()
	return fmt.Sprintf("store{inserted=%d replicas=%d}", ins, rep)
}
