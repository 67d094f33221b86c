// Package lru is the bounded least-recently-used index the client edge's
// two caches keep their entries in: the gateway's versioned read cache and
// routehint's hint sets. It is a map from key to slot plus a doubly linked
// list threaded through an array of slots, most recently used first. A
// slot freed by a removal is the next one filled, and an insert at
// capacity reuses the slot of the entry it evicts, so once a cache has
// filled up a put allocates nothing.
//
// An LRU is not safe for concurrent use: each cache guards its own with the
// lock that already guards the rest of its state.
package lru

// none is the null slot index.
const none = -1

// LRU maps keys to values, bounded to a capacity by evicting the least
// recently used entry. The zero value is unusable; construct with New.
type LRU[K comparable, V any] struct {
	cap   int
	index map[K]int32
	slots []slot[K, V]
	head  int32 // most recently used slot, none when empty
	tail  int32 // least recently used slot, none when empty
	free  int32 // first free slot, chained through next; none when none is
}

// slot is one entry and its links; a free slot holds zero values.
type slot[K comparable, V any] struct {
	key        K
	val        V
	prev, next int32
}

// New returns an empty LRU holding at most capacity entries (at least one).
// Slots are allocated as entries arrive, not up front.
func New[K comparable, V any](capacity int) *LRU[K, V] {
	return &LRU[K, V]{cap: max(capacity, 1), index: map[K]int32{}, head: none, tail: none, free: none}
}

// Len returns the number of entries.
func (l *LRU[K, V]) Len() int { return len(l.index) }

// Get returns k's value, for the caller to read or update in place, and
// makes k the most recently used entry. The pointer is valid until the next
// Put or Remove.
func (l *LRU[K, V]) Get(k K) (*V, bool) {
	i, ok := l.index[k]
	if !ok {
		return nil, false
	}
	l.unlink(i)
	l.pushFront(i)
	return &l.slots[i].val, true
}

// Peek is Get without touching the recency order.
func (l *LRU[K, V]) Peek(k K) (*V, bool) {
	i, ok := l.index[k]
	if !ok {
		return nil, false
	}
	return &l.slots[i].val, true
}

// Put sets k's value and makes k the most recently used entry. Adding a
// key at capacity first evicts the least recently used entry, which Put
// returns (evicted true) so the caller can undo what it kept beside it.
func (l *LRU[K, V]) Put(k K, v V) (oldKey K, oldVal V, evicted bool) {
	if i, ok := l.index[k]; ok {
		l.slots[i].val = v
		l.unlink(i)
		l.pushFront(i)
		return oldKey, oldVal, false
	}
	var i int32
	switch {
	case len(l.index) >= l.cap:
		i = l.tail
		s := &l.slots[i]
		oldKey, oldVal, evicted = s.key, s.val, true
		delete(l.index, s.key)
		l.unlink(i)
	case l.free != none:
		i = l.free
		l.free = l.slots[i].next
	default:
		i = int32(len(l.slots))
		l.slots = append(l.slots, slot[K, V]{})
	}
	l.slots[i].key, l.slots[i].val = k, v
	l.index[k] = i
	l.pushFront(i)
	return oldKey, oldVal, evicted
}

// Remove deletes k and returns the value it had.
func (l *LRU[K, V]) Remove(k K) (V, bool) {
	i, ok := l.index[k]
	if !ok {
		var zero V
		return zero, false
	}
	delete(l.index, k)
	l.unlink(i)
	v := l.slots[i].val
	l.slots[i] = slot[K, V]{next: l.free} // drop what the entry pointed to
	l.free = i
	return v, true
}

// unlink takes slot i out of the recency list.
func (l *LRU[K, V]) unlink(i int32) {
	s := &l.slots[i]
	if s.prev != none {
		l.slots[s.prev].next = s.next
	} else {
		l.head = s.next
	}
	if s.next != none {
		l.slots[s.next].prev = s.prev
	} else {
		l.tail = s.prev
	}
	s.prev, s.next = none, none
}

// pushFront links slot i in as the most recently used.
func (l *LRU[K, V]) pushFront(i int32) {
	s := &l.slots[i]
	s.prev, s.next = none, l.head
	if l.head != none {
		l.slots[l.head].prev = i
	} else {
		l.tail = i
	}
	l.head = i
}
