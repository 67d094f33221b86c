package routehint

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestPutGetPurge(t *testing.T) {
	c := New(8, time.Minute)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache hit")
	}
	h := Hint{PID: 4, Addr: "127.0.0.1:7104", Version: 9}
	c.Put("a", h)
	got, ok := c.Get("a")
	if !ok || got != h {
		t.Fatalf("Get = %+v, %v; want %+v", got, ok, h)
	}
	if !c.Purge("a") {
		t.Fatal("Purge found nothing")
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("purged hint served")
	}
	if c.Purge("a") {
		t.Fatal("double purge reported a hint")
	}
}

func TestTTLExpiry(t *testing.T) {
	c := New(8, 10*time.Millisecond)
	c.Put("a", Hint{PID: 1, Addr: "x"})
	if _, ok := c.Get("a"); !ok {
		t.Fatal("fresh hint missed")
	}
	time.Sleep(20 * time.Millisecond)
	if _, ok := c.Get("a"); ok {
		t.Fatal("expired hint served")
	}
	if c.Len() != 0 {
		t.Fatalf("expired entry retained, len=%d", c.Len())
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(3, time.Minute)
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprintf("n%d", i), Hint{PID: uint32(i), Addr: "a"})
	}
	c.Get("n0") // refresh n0; n1 becomes the eviction candidate
	c.Put("n3", Hint{PID: 3, Addr: "a"})
	if _, ok := c.Get("n1"); ok {
		t.Fatal("LRU victim survived")
	}
	for _, name := range []string{"n0", "n2", "n3"} {
		if _, ok := c.Get(name); !ok {
			t.Fatalf("%s evicted, want kept", name)
		}
	}
	if c.Len() != 3 {
		t.Fatalf("len = %d, want 3", c.Len())
	}
}

func TestPurgeHolder(t *testing.T) {
	c := New(16, time.Minute)
	c.Put("a", Hint{PID: 1, Addr: "dead:1"})
	c.Put("b", Hint{PID: 1, Addr: "dead:1"})
	c.Put("c", Hint{PID: 2, Addr: "live:2"})
	// A re-Put at another holder merges into the set: b is now hinted at
	// both, and must survive the dead holder's purge on its live one.
	c.Put("b", Hint{PID: 2, Addr: "live:2"})
	if n := c.PurgeHolder("dead:1"); n != 2 {
		t.Fatalf("PurgeHolder = %d, want 2 (a and b were hinted there)", n)
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("hint at dead holder served")
	}
	for _, name := range []string{"b", "c"} {
		h, ok := c.Get(name)
		if !ok {
			t.Fatalf("%s purged, want kept", name)
		}
		if h.Addr != "live:2" {
			t.Fatalf("%s still hinted at %s", name, h.Addr)
		}
	}
	if n := c.PurgeHolder("dead:1"); n != 0 {
		t.Fatalf("second PurgeHolder = %d, want 0", n)
	}
}

func TestRotationAcrossSet(t *testing.T) {
	c := New(16, time.Minute)
	set := []Hint{
		{PID: 1, Addr: "h:1", Version: 5},
		{PID: 2, Addr: "h:2", Version: 5},
		{PID: 3, Addr: "h:3"},
	}
	c.PutSet("a", set)
	seen := map[string]int{}
	for i := 0; i < 6; i++ {
		h, ok := c.Get("a")
		if !ok {
			t.Fatal("set missed")
		}
		seen[h.Addr]++
	}
	for _, h := range set {
		if seen[h.Addr] != 2 {
			t.Fatalf("rotation uneven: %v", seen)
		}
	}
}

func TestGetSetRotatesStart(t *testing.T) {
	c := New(16, time.Minute)
	c.PutSet("a", []Hint{{PID: 1, Addr: "h:1"}, {PID: 2, Addr: "h:2"}})
	s1, ok := c.GetSet("a")
	if !ok || len(s1) != 2 {
		t.Fatalf("GetSet = %v, %v", s1, ok)
	}
	s2, _ := c.GetSet("a")
	if s1[0].Addr == s2[0].Addr {
		t.Fatal("consecutive GetSet calls start at the same holder")
	}
	if s1[0].Addr != s2[1].Addr || s1[1].Addr != s2[0].Addr {
		t.Fatalf("rotation lost a holder: %v then %v", s1, s2)
	}
}

func TestPurgeFrom(t *testing.T) {
	c := New(16, time.Minute)
	c.PutSet("a", []Hint{{PID: 1, Addr: "h:1"}, {PID: 2, Addr: "h:2"}})
	if !c.PurgeFrom("a", "h:1") {
		t.Fatal("PurgeFrom missed a present holder")
	}
	h, ok := c.Get("a")
	if !ok || h.Addr != "h:2" {
		t.Fatalf("surviving holder = %+v, %v", h, ok)
	}
	if c.PurgeFrom("a", "h:1") {
		t.Fatal("PurgeFrom found an already-removed holder")
	}
	if !c.PurgeFrom("a", "h:2") {
		t.Fatal("PurgeFrom missed the last holder")
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty set served")
	}
	if c.Len() != 0 {
		t.Fatalf("emptied entry retained, len=%d", c.Len())
	}
}

func TestPutSetReplaces(t *testing.T) {
	c := New(16, time.Minute)
	c.PutSet("a", []Hint{{PID: 1, Addr: "h:1"}})
	c.PutSet("a", []Hint{{PID: 2, Addr: "h:2"}})
	if n := c.PurgeHolder("h:1"); n != 0 {
		t.Fatalf("stale holder still indexed after PutSet replace: %d", n)
	}
	h, ok := c.Get("a")
	if !ok || h.Addr != "h:2" {
		t.Fatalf("Get = %+v, %v", h, ok)
	}
}

// TestConcurrentMix hammers every mutation concurrently; run under -race
// in CI it is the data-race check for the hint cache.
func TestConcurrentMix(t *testing.T) {
	c := New(64, time.Minute)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				name := fmt.Sprintf("n%d", i%100)
				addr := fmt.Sprintf("h%d", i%7)
				switch i % 8 {
				case 0:
					c.Put(name, Hint{PID: uint32(i), Addr: addr, Version: uint64(i)})
				case 1:
					c.Get(name)
				case 2:
					c.Purge(name)
				case 3:
					c.PurgeHolder(addr)
				case 4:
					c.PutSet(name, []Hint{{PID: uint32(i), Addr: addr}, {PID: uint32(i + 1), Addr: addr + "b"}})
				case 5:
					c.GetSet(name)
				case 6:
					c.PurgeFrom(name, addr)
				default:
					c.Len()
				}
			}
		}(w)
	}
	wg.Wait()
}

// hintModel is the reference a Cache is checked against: a map of sets and
// a slice of names, most recently used first, stated as routehint's rules
// read — live lookups bump, expired sets are dropped when looked up, a
// merge refreshes the TTL and bumps without an expiry check, purges touch
// no order, and a new set at capacity evicts the least recently used.
type hintModel struct {
	cap   int
	ttl   time.Duration
	sets  map[string]*modelSet
	order []string
}

type modelSet struct {
	hints   []Hint
	next    int
	expires time.Time
}

func (m *hintModel) bump(name string) {
	m.order = slices.DeleteFunc(m.order, func(x string) bool { return x == name })
	m.order = slices.Insert(m.order, 0, name)
}

func (m *hintModel) drop(name string) {
	delete(m.sets, name)
	m.order = slices.DeleteFunc(m.order, func(x string) bool { return x == name })
}

func (m *hintModel) live(name string, now time.Time) *modelSet {
	s, ok := m.sets[name]
	if !ok {
		return nil
	}
	if !now.Before(s.expires) {
		m.drop(name)
		return nil
	}
	m.bump(name)
	return s
}

func (m *hintModel) insert(name string, hs []Hint, now time.Time) {
	if len(m.sets) >= m.cap {
		m.drop(m.order[len(m.order)-1])
	}
	m.sets[name] = &modelSet{hints: hs, expires: now.Add(m.ttl)}
	m.bump(name)
}

func (m *hintModel) purgeFrom(name, addr string) bool {
	s, ok := m.sets[name]
	if !ok {
		return false
	}
	i := slices.IndexFunc(s.hints, func(h Hint) bool { return h.Addr == addr })
	if i < 0 {
		return false
	}
	s.hints = slices.Delete(s.hints, i, i+1)
	if s.next >= len(s.hints) {
		s.next = 0
	}
	if len(s.hints) == 0 {
		m.drop(name)
	}
	return true
}

// TestCacheMatchesModel runs seeded random histories of every Cache
// operation, under a clock the test moves, against the reference model:
// every answer, the surviving sets, and — through the evictions that
// follow from it — the LRU order must agree, across TTL expiry, per-name,
// per-holder and per-name-holder purges, and capacity eviction.
func TestCacheMatchesModel(t *testing.T) {
	addrs := []string{"h0", "h1", "h2", "h3", "h4"}
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 1))
		capacity := 1 + rng.IntN(6)
		ttl := time.Duration(1+rng.IntN(20)) * time.Second
		now := time.Unix(1000, 0)
		c := New(capacity, ttl)
		c.now = func() time.Time { return now }
		m := &hintModel{cap: capacity, ttl: ttl, sets: map[string]*modelSet{}}
		for step := 0; step < 3000; step++ {
			name := fmt.Sprintf("n%d", rng.IntN(3*capacity))
			addr := addrs[rng.IntN(len(addrs))]
			hint := Hint{PID: uint32(rng.IntN(100)), Addr: addr, Version: uint64(step)}
			var what string
			switch op := rng.IntN(9); op {
			case 0:
				what = "put " + name
				c.Put(name, hint)
				if s, ok := m.sets[name]; ok {
					s.expires = now.Add(ttl)
					m.bump(name)
					if i := slices.IndexFunc(s.hints, func(h Hint) bool { return h.Addr == addr }); i >= 0 {
						s.hints[i] = hint
					} else {
						s.hints = append(s.hints, hint)
					}
				} else {
					m.insert(name, []Hint{hint}, now)
				}
			case 1:
				what = "putset " + name
				perm := rng.Perm(len(addrs))[:1+rng.IntN(len(addrs))]
				set := make([]Hint, len(perm))
				for i, a := range perm {
					set[i] = Hint{PID: uint32(a), Addr: addrs[a], Version: uint64(step)}
				}
				m.drop(name)
				m.insert(name, slices.Clone(set), now)
				c.PutSet(name, set) // owned by the cache from here on
			case 2:
				what = "get " + name
				got, gok := c.Get(name)
				var want Hint
				s := m.live(name, now)
				if s != nil {
					want = s.hints[s.next%len(s.hints)]
					s.next = (s.next + 1) % len(s.hints)
				}
				if gok != (s != nil) || got != want {
					t.Fatalf("seed %d step %d %s: %+v %v, want %+v %v", seed, step, what, got, gok, want, s != nil)
				}
			case 3:
				what = "getset " + name
				got, gok := c.GetSet(name)
				var want []Hint
				s := m.live(name, now)
				if s != nil {
					for i := range s.hints {
						want = append(want, s.hints[(s.next+i)%len(s.hints)])
					}
					s.next = (s.next + 1) % len(s.hints)
				}
				if gok != (s != nil) || !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d %s: %+v %v, want %+v", seed, step, what, got, gok, want)
				}
			case 4:
				what = "purge " + name
				_, want := m.sets[name]
				m.drop(name)
				if got := c.Purge(name); got != want {
					t.Fatalf("seed %d step %d %s: %v, want %v", seed, step, what, got, want)
				}
			case 5:
				what = "purgefrom " + name + " " + addr
				want := m.purgeFrom(name, addr)
				if got := c.PurgeFrom(name, addr); got != want {
					t.Fatalf("seed %d step %d %s: %v, want %v", seed, step, what, got, want)
				}
			case 6:
				what = "purgeholder " + addr
				want := 0
				for n := range m.sets {
					if m.purgeFrom(n, addr) {
						want++
					}
				}
				if got := c.PurgeHolder(addr); got != want {
					t.Fatalf("seed %d step %d %s: %d names, want %d", seed, step, what, got, want)
				}
			default:
				what = "tick"
				now = now.Add(time.Duration(rng.IntN(3)) * time.Second)
			}
			if c.Len() != len(m.sets) {
				t.Fatalf("seed %d step %d %s: len %d, want %d", seed, step, what, c.Len(), len(m.sets))
			}
			for n, s := range m.sets {
				e, ok := c.entries.Peek(n)
				if !ok || !slices.Equal(e.hints, s.hints) || e.next != s.next || !e.expires.Equal(s.expires) {
					t.Fatalf("seed %d step %d %s: set %s is %+v (present %v), want %+v", seed, step, what, n, e, ok, *s)
				}
			}
		}
	}
}
