package store

import (
	"reflect"
	"testing"
)

func file(name, data string, v uint64) File {
	return File{Name: name, Data: []byte(data), Version: v}
}

func TestPutGet(t *testing.T) {
	s := New()
	s.Put(file("a", "alpha", 1), Inserted)
	f, ok := s.Get("a")
	if !ok || string(f.Data) != "alpha" || f.Version != 1 {
		t.Fatalf("Get = %+v, %v", f, ok)
	}
	if _, ok := s.Get("missing"); ok {
		t.Fatal("Get on missing name succeeded")
	}
	if !s.Has("a") || s.Has("b") {
		t.Fatal("Has wrong")
	}
}

func TestKindTracking(t *testing.T) {
	s := New()
	s.Put(file("a", "x", 1), Inserted)
	s.Put(file("b", "y", 1), Replica)
	if k, _ := s.KindOf("a"); k != Inserted {
		t.Fatal("a should be inserted")
	}
	if k, _ := s.KindOf("b"); k != Replica {
		t.Fatal("b should be replica")
	}
	if _, ok := s.KindOf("zzz"); ok {
		t.Fatal("KindOf missing name succeeded")
	}
	if got := s.Names(Inserted); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("Names(Inserted) = %v", got)
	}
	if got := s.Names(Replica); !reflect.DeepEqual(got, []string{"b"}) {
		t.Fatalf("Names(Replica) = %v", got)
	}
	if got := s.AllNames(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("AllNames = %v", got)
	}
}

func TestReplicaNeverDemotesInserted(t *testing.T) {
	s := New()
	s.Put(file("a", "x", 1), Inserted)
	s.Put(file("a", "x2", 2), Replica)
	if k, _ := s.KindOf("a"); k != Inserted {
		t.Fatal("replica Put demoted an inserted copy")
	}
	if f, _ := s.Peek("a"); string(f.Data) != "x2" {
		t.Fatal("data not replaced")
	}
}

func TestUpdateVersioning(t *testing.T) {
	s := New()
	s.Put(file("a", "v1", 1), Replica)
	if !s.Update("a", []byte("v2"), 2) {
		t.Fatal("newer update rejected")
	}
	if s.Update("a", []byte("v1-again"), 2) {
		t.Fatal("same-version update applied")
	}
	if s.Update("a", []byte("old"), 1) {
		t.Fatal("stale update applied")
	}
	if s.Update("nope", []byte("x"), 9) {
		t.Fatal("update on missing file applied")
	}
	f, _ := s.Peek("a")
	if string(f.Data) != "v2" || f.Version != 2 {
		t.Fatalf("after updates: %+v", f)
	}
	if k, _ := s.KindOf("a"); k != Replica {
		t.Fatal("update changed the kind")
	}
}

func TestDeleteAndPromote(t *testing.T) {
	s := New()
	s.Put(file("a", "x", 1), Replica)
	s.Promote("a")
	if k, _ := s.KindOf("a"); k != Inserted {
		t.Fatal("Promote failed")
	}
	if !s.Delete("a") || s.Delete("a") {
		t.Fatal("Delete semantics wrong")
	}
	s.Promote("ghost") // must not panic
}

func TestHitCountingAndEndWindow(t *testing.T) {
	s := New()
	s.Put(file("hot", "x", 1), Replica)
	s.Put(file("cold", "y", 1), Replica)
	s.Put(file("primary", "z", 1), Inserted)
	for i := 0; i < 5; i++ {
		s.Get("hot")
	}
	s.Get("cold")
	if s.Hits("hot") != 5 || s.Hits("cold") != 1 || s.Hits("ghost") != 0 {
		t.Fatalf("hits: hot=%d cold=%d", s.Hits("hot"), s.Hits("cold"))
	}
	// Peek must not count.
	s.Peek("cold")
	if s.Hits("cold") != 1 {
		t.Fatal("Peek counted an access")
	}
	hot, ok, evicted := s.EndWindow(4, 3)
	if !ok || hot.Name != "hot" || evicted != 1 {
		t.Fatalf("EndWindow(4, 3) = %q, %v, %d; want hot, true, 1", hot.Name, ok, evicted)
	}
	if got := s.AllNames(); !reflect.DeepEqual(got, []string{"hot", "primary"}) {
		t.Fatalf("after EndWindow(4, 3): %v", got)
	}
	if s.Hits("hot") != 0 {
		t.Fatal("EndWindow did not reset the counters")
	}
	// Inserted copies are never eviction candidates even when cold, and a
	// window where nothing served more than threshold picks nothing.
	if hot, ok, evicted := s.EndWindow(0, 100); ok || evicted != 1 {
		t.Fatalf("EndWindow(0, 100) = %q, %v, %d; want no pick, 1 evicted", hot.Name, ok, evicted)
	}
	if got := s.AllNames(); !reflect.DeepEqual(got, []string{"primary"}) {
		t.Fatalf("after EndWindow(0, 100): %v", got)
	}
}

// TestEndWindowPicksHottestSurvivor pins the pick on both store shapes:
// the most hits among copies that survive eviction, ties toward the
// smallest name, and only above the threshold.
func TestEndWindowPicksHottestSurvivor(t *testing.T) {
	type endWindower interface {
		Put(File, Kind)
		Get(string) (File, bool)
		EndWindow(threshold, evictBelow uint64) (File, bool, int)
	}
	for name, s := range map[string]endWindower{"store": New(), "sharded": NewSharded(4)} {
		t.Run(name, func(t *testing.T) {
			hits := map[string]int{"a": 3, "b": 7, "c": 7, "d": 9}
			for n, h := range hits {
				kind := Replica
				if n == "c" {
					kind = Inserted
				}
				s.Put(file(n, n, 1), kind)
				for i := 0; i < h; i++ {
					s.Get(n)
				}
			}
			// Evicting below 10 drops every replica ("d" included): the
			// hottest survivor is the inserted "c" at 7.
			if hot, ok, evicted := s.EndWindow(6, 10); !ok || hot.Name != "c" || evicted != 3 {
				t.Fatalf("evict-then-pick = %q, %v, %d; want c, true, 3", hot.Name, ok, evicted)
			}
			s.Put(file("b", "b", 2), Replica)
			for _, n := range []string{"b", "c"} {
				for i := 0; i < 4; i++ {
					s.Get(n)
				}
			}
			if hot, ok, _ := s.EndWindow(3, 0); !ok || hot.Name != "b" || string(hot.Data) != "b" || hot.Version != 2 {
				t.Fatalf("tie = %+v, %v; want b at v2", hot, ok)
			}
			// Counters were zeroed: the next window has nothing over 0.
			if hot, ok, evicted := s.EndWindow(0, 0); ok || evicted != 0 {
				t.Fatalf("empty window = %q, %v, %d", hot.Name, ok, evicted)
			}
		})
	}
}

func TestLenAndString(t *testing.T) {
	s := New()
	if s.Len() != 0 {
		t.Fatal("fresh store not empty")
	}
	s.Put(file("a", "x", 1), Inserted)
	s.Put(file("b", "x", 1), Replica)
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if got := s.String(); got != "store{inserted=1 replicas=1}" {
		t.Fatalf("String = %q", got)
	}
	if Inserted.String() != "inserted" || Replica.String() != "replica" {
		t.Fatal("Kind.String wrong")
	}
}
