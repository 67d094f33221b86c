package lru

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// model is the reference an LRU is checked against: a map for the values
// and a slice for the recency order, most recently used first.
type model struct {
	cap   int
	vals  map[int]int
	order []int
}

func (m *model) touch(k int) {
	m.order = slices.DeleteFunc(m.order, func(x int) bool { return x == k })
	m.order = slices.Insert(m.order, 0, k)
}

func (m *model) get(k int) (int, bool) {
	v, ok := m.vals[k]
	if ok {
		m.touch(k)
	}
	return v, ok
}

func (m *model) put(k, v int) (oldKey, oldVal int, evicted bool) {
	if _, ok := m.vals[k]; !ok && len(m.vals) >= m.cap {
		oldKey = m.order[len(m.order)-1]
		oldVal, evicted = m.vals[oldKey], true
		delete(m.vals, oldKey)
		m.order = m.order[:len(m.order)-1]
	}
	m.vals[k] = v
	m.touch(k)
	return oldKey, oldVal, evicted
}

func (m *model) remove(k int) (int, bool) {
	v, ok := m.vals[k]
	if ok {
		delete(m.vals, k)
		m.order = slices.DeleteFunc(m.order, func(x int) bool { return x == k })
	}
	return v, ok
}

// order walks l's recency list, most recently used first, and checks the
// links agree in both directions.
func order(t *testing.T, l *LRU[int, int]) []int {
	t.Helper()
	var keys []int
	prev := int32(none)
	for i := l.head; i != none; i = l.slots[i].next {
		if l.slots[i].prev != prev {
			t.Fatalf("slot %d links back to %d, want %d", i, l.slots[i].prev, prev)
		}
		keys = append(keys, l.slots[i].key)
		prev = i
	}
	if l.tail != prev {
		t.Fatalf("tail is slot %d, list ends at %d", l.tail, prev)
	}
	return keys
}

// TestLRUMatchesModel runs seeded random histories of puts, gets, peeks
// and removes over a key space larger than the capacity, comparing every
// answer, the eviction each put reports, and the recency order after each
// step with the reference model.
func TestLRUMatchesModel(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		capacity := 1 + rng.IntN(8)
		l := New[int, int](capacity)
		m := &model{cap: capacity, vals: map[int]int{}}
		for step := 0; step < 2000; step++ {
			k := rng.IntN(3 * capacity)
			var what string
			switch op := rng.IntN(10); {
			case op < 4:
				v := rng.Int()
				what = fmt.Sprintf("put(%d)", k)
				gk, gv, ge := l.Put(k, v)
				wk, wv, we := m.put(k, v)
				if ge != we || (we && (gk != wk || gv != wv)) {
					t.Fatalf("seed %d step %d %s: evicted (%d,%d,%v), want (%d,%d,%v)", seed, step, what, gk, gv, ge, wk, wv, we)
				}
			case op < 7:
				what = fmt.Sprintf("get(%d)", k)
				gv, gok := l.Get(k)
				wv, wok := m.get(k)
				if gok != wok || (wok && *gv != wv) {
					t.Fatalf("seed %d step %d %s: %v, want %d %v", seed, step, what, gok, wv, wok)
				}
			case op < 8:
				what = fmt.Sprintf("peek(%d)", k)
				gv, gok := l.Peek(k)
				wv, wok := m.vals[k]
				if gok != wok || (wok && *gv != wv) {
					t.Fatalf("seed %d step %d %s: %v, want %d %v", seed, step, what, gok, wv, wok)
				}
			default:
				what = fmt.Sprintf("remove(%d)", k)
				gv, gok := l.Remove(k)
				wv, wok := m.remove(k)
				if gok != wok || gv != wv {
					t.Fatalf("seed %d step %d %s: (%d,%v), want (%d,%v)", seed, step, what, gv, gok, wv, wok)
				}
			}
			if got := order(t, l); !slices.Equal(got, m.order) || l.Len() != len(m.vals) {
				t.Fatalf("seed %d step %d %s: order %v (len %d), want %v", seed, step, what, got, l.Len(), m.order)
			}
			if len(l.slots) > capacity {
				t.Fatalf("seed %d step %d: %d slots for capacity %d", seed, step, len(l.slots), capacity)
			}
		}
	}
}

// TestLRUPutAtCapacityAllocatesNothing: once full, an insert reuses the
// slot of the entry it evicts, and one after a removal the freed slot.
func TestLRUPutAtCapacityAllocatesNothing(t *testing.T) {
	const capacity = 64
	keys := make([]string, 4*capacity)
	for i := range keys {
		keys[i] = fmt.Sprintf("name/%d", i)
	}
	l := New[string, []byte](capacity)
	for _, k := range keys {
		l.Put(k, nil)
	}
	next := 0
	if got := testing.AllocsPerRun(1000, func() {
		if _, _, evicted := l.Put(keys[next%len(keys)], nil); !evicted {
			t.Fatal("put at capacity evicted nothing")
		}
		next++
	}); got != 0 {
		t.Errorf("put at capacity: %v allocs, want 0", got)
	}
	if got := testing.AllocsPerRun(1000, func() {
		l.Remove(keys[next%len(keys)])
		l.Put(keys[(next+1)%len(keys)], nil)
		next += 2
	}); got != 0 {
		t.Errorf("put into a removed entry's slot: %v allocs, want 0", got)
	}
}
