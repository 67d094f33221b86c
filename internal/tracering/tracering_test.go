package tracering

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"lesslog/internal/msg"
)

func TestSamplerRate(t *testing.T) {
	s := NewSampler(8)
	hits := 0
	for i := 0; i < 800; i++ {
		if s.Sample() {
			hits++
		}
	}
	if hits != 100 {
		t.Fatalf("1-in-8 sampler hit %d of 800", hits)
	}
}

func TestSamplerEveryOne(t *testing.T) {
	s := NewSampler(1)
	for i := 0; i < 10; i++ {
		if !s.Sample() {
			t.Fatal("every=1 sampler skipped a request")
		}
	}
}

func TestNilSamplerAndRing(t *testing.T) {
	var s *Sampler
	if s.Sample() {
		t.Fatal("nil sampler sampled")
	}
	var r *Ring
	r.Record(Trace{ID: 1}) // must not panic
	if snap := r.Snapshot(); snap.Recorded != 0 || len(snap.Recent) != 0 {
		t.Fatalf("nil ring snapshot = %+v", snap)
	}
}

func TestRingBoundedFIFO(t *testing.T) {
	r := NewRing(4, time.Second)
	for i := 0; i < 10; i++ {
		r.Record(Trace{ID: uint64(i)})
	}
	snap := r.Snapshot()
	if snap.Recorded != 10 || snap.Noted != 0 {
		t.Fatalf("recorded=%d noted=%d", snap.Recorded, snap.Noted)
	}
	if len(snap.Recent) != 4 {
		t.Fatalf("recent len = %d", len(snap.Recent))
	}
	for i, tr := range snap.Recent {
		if tr.ID != uint64(6+i) { // oldest first: 6,7,8,9
			t.Fatalf("recent[%d].ID = %d", i, tr.ID)
		}
	}
}

func TestNotableRetention(t *testing.T) {
	// One slow trace early, then a flood of healthy ones: the recent ring
	// forgets it, the notable ring must not.
	r := NewRing(8, 10*time.Millisecond)
	r.Record(Trace{ID: 42, Dur: 50 * time.Millisecond})
	r.Record(Trace{ID: 43, Err: "boom"})
	for i := 0; i < 100; i++ {
		r.Record(Trace{ID: uint64(1000 + i), Dur: time.Millisecond})
	}
	snap := r.Snapshot()
	if snap.Noted != 2 {
		t.Fatalf("noted = %d", snap.Noted)
	}
	ids := map[uint64]bool{}
	for _, tr := range snap.Notable {
		ids[tr.ID] = true
	}
	if !ids[42] || !ids[43] {
		t.Fatalf("notable lost the tail: %v", ids)
	}
	for _, tr := range snap.Recent {
		if tr.ID == 42 {
			t.Fatal("recent ring kept a 100-trace-old entry; bound broken")
		}
	}
}

func TestNotableEvictsAmongItself(t *testing.T) {
	r := NewRing(4, time.Millisecond) // notable capacity 2
	for i := 0; i < 5; i++ {
		r.Record(Trace{ID: uint64(i), Err: "e"})
	}
	snap := r.Snapshot()
	if len(snap.Notable) != 2 || snap.Notable[0].ID != 3 || snap.Notable[1].ID != 4 {
		t.Fatalf("notable = %+v", snap.Notable)
	}
}

func TestSnapshotJSONCarriesHops(t *testing.T) {
	r := NewRing(4, time.Second)
	r.Record(Trace{
		ID: 7, Kind: "update", Name: "f",
		Hops: []msg.Hop{
			{PID: 3, Parent: msg.NoParent, Action: msg.HopFanout, Dur: 10},
			{PID: 4, Parent: 3, Action: msg.HopDeliver, Dur: 5},
		},
	})
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Recent) != 1 || len(back.Recent[0].Hops) != 2 || back.Recent[0].Hops[1].Parent != 3 {
		t.Fatalf("round trip = %s", b)
	}
}

func TestRingConcurrent(t *testing.T) {
	r := NewRing(16, time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Record(Trace{ID: uint64(g*1000 + i), Err: fmt.Sprint(i % 2)})
				if i%50 == 0 {
					r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.Recorded(); got != 1600 {
		t.Fatalf("recorded = %d", got)
	}
}

// TestIDSeq: IDs are non-zero and distinct, a seed moves the sequence, and
// the same seed repeats it.
func TestIDSeq(t *testing.T) {
	var a, b, c IDSeq
	b.Seed(12345)
	c.Seed(12345)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		x, y := a.Next(), b.Next()
		if x == 0 || y == 0 || x == y || seen[x] || seen[y] {
			t.Fatalf("draw %d: IDs %d and %d are zero or repeat", i, x, y)
		}
		seen[x], seen[y] = true, true
		if z := c.Next(); z != y {
			t.Fatalf("draw %d: equally seeded sequences gave %d and %d", i, y, z)
		}
	}
}
