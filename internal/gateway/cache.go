package gateway

// The versioned read-through cache. Entries are bounded two ways — a TTL
// for freshness and an LRU capacity for memory — and guarded one more:
// per-name version floors. A floor records the newest write this gateway
// has seen acknowledged for a name (the Version field update and insert
// responses already carry); a fill older than the floor is refused, so a
// read that raced an update can never park pre-update data in the cache,
// and a hit is never older than an acknowledged write through the same
// gateway. Expired entries are kept until capacity evicts them: an entry
// that still satisfies the floor is the fallback when the fabric briefly
// answers with an older version than a write this gateway acknowledged.
// The entries live in an array-backed LRU (internal/lru) whose evicted
// slots take the next fill, so a fill at capacity — every miss of a working
// set larger than the cache — allocates nothing of the cache's own.
//
// A write-through entry whose bytes are a frame buffer the write arrived in
// holds a reference to it (msg.Ref), ended when a newer version supersedes
// the entry or a removal or capacity eviction drops it; every hit takes a
// reference of its own under the cache's lock. So a superseded entry's
// buffer goes back to the free list for the next frame once the last hit
// served from it is written, and never before.

import (
	"sync"
	"time"

	"lesslog/internal/lru"
	"lesslog/internal/metrics"
	"lesslog/internal/msg"
)

// entry is one cached file version, with the cache's reference to the frame
// buffer data points into (nil when data is an allocation of its own).
type entry struct {
	data     []byte
	ref      *msg.Ref
	version  uint64
	servedBy uint32
	hops     uint32
	expires  time.Time
}

// cacheCounters observes the cache's behavior; wired to the gateway's
// counter set.
type cacheCounters struct {
	evictions     metrics.AtomicCounter // capacity evictions
	invalidations metrics.AtomicCounter // entries dropped by a newer write or delete
	staleRejected metrics.AtomicCounter // fills refused for running behind a floor
}

// versionCache is the bounded, versioned store behind Gateway.Get. All
// methods are safe for concurrent use.
type versionCache struct {
	mu      sync.Mutex
	cap     int
	ttl     time.Duration
	entries *lru.LRU[string, entry]
	floors  map[string]uint64 // min acceptable version per name
	c       cacheCounters
}

// newVersionCache builds a cache holding at most capacity entries, each
// fresh for ttl after its fill. capacity <= 0 disables caching (floors are
// still tracked, so write-ordering holds even cacheless).
func newVersionCache(capacity int, ttl time.Duration) *versionCache {
	return &versionCache{
		cap:     capacity,
		ttl:     ttl,
		entries: lru.New[string, entry](capacity),
		floors:  map[string]uint64{},
	}
}

// get returns the cached entry for name if it satisfies the name's floor,
// with a reference of the caller's own to its buffer (e.ref) that the
// caller ends once done with e.data — or never, leaving the buffer to the
// collector. fresh reports whether it is also within its TTL; a
// stale-but-ok entry is the floor fallback, not a servable hit.
func (vc *versionCache) get(name string) (e entry, fresh, ok bool) {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	ent, present := vc.entries.Get(name)
	if !present {
		return entry{}, false, false
	}
	if ent.version < vc.floors[name] {
		// A floor raised after the fill; the entry is dead weight.
		vc.removeLocked(name)
		vc.c.invalidations.Inc()
		return entry{}, false, false
	}
	ent.ref.Retain()
	return *ent, time.Now().Before(ent.expires), true
}

// put fills name from a fabric read. The fill is refused (returning false)
// when it runs behind the name's floor — the caller raced a write this
// gateway already acknowledged — or when caching is disabled.
func (vc *versionCache) put(name string, data []byte, version uint64, servedBy, hops uint32) bool {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	if version < vc.floors[name] {
		vc.c.staleRejected.Inc()
		return false
	}
	if vc.cap <= 0 {
		return true // fill accepted for the caller's purposes, nothing retained
	}
	vc.insertLocked(name, data, nil, version, servedBy, hops)
	return true
}

// ackUpdate records an acknowledged update: the floor rises to version
// (monotonically — racing acks settle on the newest) and the written data
// is cached write-through, so readers see the new version immediately
// instead of waiting out a round-trip. ref is the writer's reference to the
// frame buffer data points into, nil for none: a cached entry takes one of
// its own.
func (vc *versionCache) ackUpdate(name string, data []byte, ref *msg.Ref, version uint64) {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	if version > vc.floors[name] {
		vc.floors[name] = version
	}
	if vc.cap <= 0 {
		return
	}
	if ent, present := vc.entries.Peek(name); present && ent.version >= version {
		return // already newer
	}
	vc.insertLocked(name, data, ref, version, 0, 0)
}

// ackInsert records an acknowledged insert. An insert starts a new
// generation of the name — after a delete the fabric's version clock may
// restart lower — so the floor resets to the new version instead of
// ratcheting. ref is as for ackUpdate.
func (vc *versionCache) ackInsert(name string, data []byte, ref *msg.Ref, version uint64) {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	vc.floors[name] = version
	if vc.cap <= 0 {
		return
	}
	if _, present := vc.removeLocked(name); present {
		vc.c.invalidations.Inc()
	}
	vc.insertLocked(name, data, ref, version, 0, 0)
}

// ackDelete records an acknowledged delete, whose tombstone the fabric
// stamped at version tomb: the entry is dropped and the floor rises past
// both the tombstone and the deleted version, so an in-flight read of the
// dead data cannot re-fill the cache behind the delete — also for a name
// this gateway never wrote, or last saw at a version older than the one
// deleted.
func (vc *versionCache) ackDelete(name string, tomb uint64) {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	floor := vc.floors[name]
	if ent, present := vc.removeLocked(name); present {
		if ent.version >= floor {
			floor = ent.version + 1
		}
		vc.c.invalidations.Inc()
	} else if floor > 0 {
		floor++
	}
	vc.floors[name] = max(floor, tomb+1)
}

// floor returns the current version floor for name.
func (vc *versionCache) floor(name string) uint64 {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	return vc.floors[name]
}

// len returns the number of cached entries.
func (vc *versionCache) len() int {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	return vc.entries.Len()
}

// insertLocked installs or refreshes an entry, taking a reference to ref
// for it and ending the one of the entry it supersedes, and evicts past
// capacity. Floors outlive their entries deliberately: eviction forgets
// data, never write ordering.
func (vc *versionCache) insertLocked(name string, data []byte, ref *msg.Ref, version uint64, servedBy, hops uint32) {
	if old, present := vc.entries.Peek(name); present {
		old.ref.Release()
	}
	e := entry{data: data, ref: ref.Retain(), version: version, servedBy: servedBy, hops: hops, expires: time.Now().Add(vc.ttl)}
	if _, old, evicted := vc.entries.Put(name, e); evicted {
		old.ref.Release()
		vc.c.evictions.Inc()
	}
}

// removeLocked drops name's entry, ending its reference, and returns it.
// Caller holds mu.
func (vc *versionCache) removeLocked(name string) (entry, bool) {
	e, present := vc.entries.Remove(name)
	e.ref.Release()
	return e, present
}
