// Package routehint caches name → holder locations for the
// locate-then-fetch data plane (docs/ROUTING.md). A hint set remembers
// which peers hold a name — holder PID, listen address and the copy
// version observed — so a warm client turns an O(log N) tree resolution
// into one direct RPC, and a hot name's fetches rotate across its whole
// replica set instead of re-hammering the one holder a lookup walk
// happened to reach.
//
// Hints are advisory, never authoritative: the data plane tolerates a
// wrong hint (the holder answers not-found and the client re-resolves), so
// the cache optimizes for cheap invalidation instead of strict coherence.
// Three things bound staleness:
//
//   - a TTL, so replica migration and membership churn age hints out even
//     when no signal arrives;
//   - per-name purges on acknowledged updates, deletes and inserts (the
//     writes that move a name's version or holder set);
//   - per-holder purges (PurgeHolder) when a failure detector — or a
//     failed direct fetch, which is the same evidence one deadline
//     earlier — declares the holder dead. The holder is removed from every
//     set it appears in; a name keeps its surviving holders, so one dead
//     replica no longer evicts the hint for the live ones.
//
// Capacity is LRU-bounded per name, in an array-backed LRU (internal/lru)
// whose evicted slots take the next set, so a locate answer cached at
// capacity allocates nothing of the cache's own. All methods are safe for
// concurrent use.
package routehint

import (
	"sync"
	"time"

	"lesslog/internal/lru"
)

// Defaults for consumers that do not care.
const (
	DefaultCapacity = 4096
	DefaultTTL      = 10 * time.Second
)

// MaxHolders bounds one name's hint set; mirrors msg.MaxHolders without
// importing it (the cache is wire-agnostic).
const MaxHolders = 64

// Hint locates one holder of a name.
type Hint struct {
	PID     uint32 // holder's peer identifier
	Addr    string // holder's listen address — where the direct fetch goes
	Version uint64 // copy version observed at locate time (0 = unprobed)
}

// entry is one cached hint set plus its bookkeeping.
type entry struct {
	hints   []Hint
	next    int // rotation cursor: index of the holder Get serves next
	expires time.Time
}

// Cache maps names to holder hint sets, bounded by TTL and LRU capacity.
type Cache struct {
	mu      sync.Mutex
	ttl     time.Duration
	now     func() time.Time // time.Now; a test's clock
	entries *lru.LRU[string, entry]
	byAddr  map[string]map[string]struct{} // holder addr → names hinted there
}

// New returns a cache holding at most capacity hint sets, each valid for
// ttl after its Put. capacity <= 0 selects DefaultCapacity; ttl <= 0
// selects DefaultTTL.
func New(capacity int, ttl time.Duration) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	return &Cache{
		ttl:     ttl,
		now:     time.Now,
		entries: lru.New[string, entry](capacity),
		byAddr:  map[string]map[string]struct{}{},
	}
}

// Get returns one live hint for name, rotating through the cached holder
// set call by call so repeated fetches of a hot name spread across its
// replicas. An expired set is removed and reported as a miss.
func (c *Cache) Get(name string) (Hint, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.liveLocked(name)
	if e == nil {
		return Hint{}, false
	}
	h := e.hints[e.next%len(e.hints)]
	e.next = (e.next + 1) % len(e.hints)
	return h, true
}

// GetSet returns a copy of name's live hint set, first holder to try
// first (rotation applies: consecutive calls start at successive
// holders).
func (c *Cache) GetSet(name string) ([]Hint, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.liveLocked(name)
	if e == nil {
		return nil, false
	}
	n := len(e.hints)
	out := make([]Hint, n)
	for i := 0; i < n; i++ {
		out[i] = e.hints[(e.next+i)%n]
	}
	e.next = (e.next + 1) % n
	return out, true
}

// liveLocked returns name's entry if present and unexpired, bumping its
// LRU position; an expired entry is removed.
func (c *Cache) liveLocked(name string) *entry {
	e, ok := c.entries.Get(name)
	if !ok {
		return nil
	}
	if !c.now().Before(e.expires) {
		c.removeLocked(name)
		return nil
	}
	return e
}

// Put records (or merges) a single-holder hint for name and restarts the
// set's TTL: a holder already in the set gets its version refreshed, a
// new holder joins the set — so the fetch path's post-success refresh
// enriches a locate-set hint instead of collapsing it to one holder.
func (c *Cache) Put(name string, h Hint) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries.Get(name); ok {
		e.expires = c.now().Add(c.ttl)
		for i := range e.hints {
			if e.hints[i].Addr == h.Addr {
				e.hints[i] = h
				return
			}
		}
		if len(e.hints) < MaxHolders {
			e.hints = append(e.hints, h)
			c.indexLocked(name, h.Addr)
		}
		return
	}
	c.insertLocked(name, []Hint{h})
}

// PutSet replaces name's hint set wholesale — the locate-set answer path.
// The cache takes ownership of hs: the caller must neither keep nor modify
// it afterwards, since purges edit a set in place. An empty set is a
// no-op; sets beyond MaxHolders are truncated.
func (c *Cache) PutSet(name string, hs []Hint) {
	if len(hs) == 0 {
		return
	}
	if len(hs) > MaxHolders {
		hs = hs[:MaxHolders]
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.removeLocked(name)
	c.insertLocked(name, hs)
}

// insertLocked installs a fresh entry for name, evicting the least
// recently used one at capacity.
func (c *Cache) insertLocked(name string, hs []Hint) {
	old, e, evicted := c.entries.Put(name, entry{hints: hs, expires: c.now().Add(c.ttl)})
	if evicted {
		c.unindexLocked(old, e.hints)
	}
	for _, h := range hs {
		c.indexLocked(name, h.Addr)
	}
}

// Purge drops the hint set for name, reporting whether one existed —
// called on acknowledged writes, stale direct fetches and holder misses.
func (c *Cache) Purge(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.removeLocked(name)
}

// PurgeFrom removes one holder from one name's set — the targeted
// invalidation for a replica that refused a fetch while its siblings keep
// serving. Dropping the last holder drops the entry. Reports whether the
// holder was present.
func (c *Cache) PurgeFrom(name, addr string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries.Peek(name)
	if !ok {
		return false
	}
	for i := range e.hints {
		if e.hints[i].Addr == addr {
			e.hints = append(e.hints[:i], e.hints[i+1:]...)
			if e.next >= len(e.hints) {
				e.next = 0
			}
			c.unindexOneLocked(name, addr)
			if len(e.hints) == 0 {
				c.entries.Remove(name)
			}
			return true
		}
	}
	return false
}

// PurgeHolder removes addr from every hint set it appears in and returns
// how many names were affected — the peer-down path: one detector event
// reroutes all of a dead holder's names at once. Names with surviving
// holders keep them; a set emptied by the purge is dropped.
func (c *Cache) PurgeHolder(addr string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := c.byAddr[addr]
	n := len(names)
	for name := range names {
		e, ok := c.entries.Peek(name)
		if !ok {
			continue
		}
		for i := 0; i < len(e.hints); i++ {
			if e.hints[i].Addr == addr {
				e.hints = append(e.hints[:i], e.hints[i+1:]...)
				i--
			}
		}
		if e.next >= len(e.hints) {
			e.next = 0
		}
		if len(e.hints) == 0 {
			c.entries.Remove(name)
		}
	}
	delete(c.byAddr, addr)
	return n
}

// Len returns the number of cached names.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries.Len()
}

// indexLocked records name under one holder address.
func (c *Cache) indexLocked(name, addr string) {
	set, ok := c.byAddr[addr]
	if !ok {
		set = map[string]struct{}{}
		c.byAddr[addr] = set
	}
	set[name] = struct{}{}
}

// unindexOneLocked removes name from one holder's reverse index.
func (c *Cache) unindexOneLocked(name, addr string) {
	set := c.byAddr[addr]
	delete(set, name)
	if len(set) == 0 {
		delete(c.byAddr, addr)
	}
}

// removeLocked drops name's set from every index, reporting whether there
// was one.
func (c *Cache) removeLocked(name string) bool {
	e, ok := c.entries.Remove(name)
	if ok {
		c.unindexLocked(name, e.hints)
	}
	return ok
}

// unindexLocked removes name from the reverse index of every holder in hs.
func (c *Cache) unindexLocked(name string, hs []Hint) {
	for _, h := range hs {
		c.unindexOneLocked(name, h.Addr)
	}
}
