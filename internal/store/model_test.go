package store

// Model-based property test: the store must behave exactly like a naive
// reference model (a plain map with the same rules) under arbitrary
// operation sequences.

import (
	"fmt"
	"testing"

	"lesslog/internal/xrand"
)

type modelEntry struct {
	data    string
	version uint64
	kind    Kind
	hits    uint64
}

func TestStoreMatchesModel(t *testing.T) {
	rng := xrand.New(31)
	names := []string{"a", "b", "c", "d", "e"}
	for trial := 0; trial < 50; trial++ {
		s := New()
		model := map[string]*modelEntry{}
		for step := 0; step < 400; step++ {
			name := names[rng.Intn(len(names))]
			switch rng.Intn(7) {
			case 0: // Put inserted
				data := fmt.Sprintf("d%d", step)
				v := uint64(rng.Intn(10))
				s.Put(File{Name: name, Data: []byte(data), Version: v}, Inserted)
				model[name] = &modelEntry{data: data, version: v, kind: Inserted}
			case 1: // Put replica (never demotes an inserted copy)
				data := fmt.Sprintf("r%d", step)
				v := uint64(rng.Intn(10))
				kind := Replica
				if old, ok := model[name]; ok && old.kind == Inserted {
					kind = Inserted
				}
				s.Put(File{Name: name, Data: []byte(data), Version: v}, Replica)
				model[name] = &modelEntry{data: data, version: v, kind: kind}
			case 2: // Get (counts a hit)
				f, ok := s.Get(name)
				m, mok := model[name]
				if ok != mok {
					t.Fatalf("step %d: Get(%s) ok=%v model=%v", step, name, ok, mok)
				}
				if ok {
					m.hits++
					if string(f.Data) != m.data || f.Version != m.version {
						t.Fatalf("step %d: Get(%s) = %q v%d, model %q v%d",
							step, name, f.Data, f.Version, m.data, m.version)
					}
				}
			case 3: // Update
				data := fmt.Sprintf("u%d", step)
				v := uint64(rng.Intn(12))
				applied := s.Update(name, []byte(data), v)
				m, ok := model[name]
				wantApplied := ok && v > m.version
				if applied != wantApplied {
					t.Fatalf("step %d: Update(%s,v%d) = %v, want %v", step, name, v, applied, wantApplied)
				}
				if wantApplied {
					m.data, m.version = data, v
				}
			case 4: // Delete
				deleted := s.Delete(name)
				_, ok := model[name]
				if deleted != ok {
					t.Fatalf("step %d: Delete(%s) = %v, model had=%v", step, name, deleted, ok)
				}
				delete(model, name)
			case 5: // Promote
				s.Promote(name)
				if m, ok := model[name]; ok {
					m.kind = Inserted
				}
			case 6: // EndWindow (occasionally)
				if rng.Bool(0.2) {
					threshold, evictBelow := uint64(rng.Intn(4)), uint64(rng.Intn(3))
					hot, ok, evicted := s.EndWindow(threshold, evictBelow)
					// The rule in its plainest form: in name order, evict
					// cold replicas, keep the first survivor with the most
					// hits, zero every counter.
					wantHot, wantHits, wantEvicted := "", uint64(0), 0
					for _, n := range names {
						m, ok := model[n]
						if !ok {
							continue
						}
						if m.kind == Replica && m.hits < evictBelow {
							delete(model, n)
							wantEvicted++
							continue
						}
						if m.hits > wantHits {
							wantHot, wantHits = n, m.hits
						}
						m.hits = 0
					}
					wantOK := wantHits > threshold
					if ok != wantOK || evicted != wantEvicted || ok && hot.Name != wantHot {
						t.Fatalf("step %d: EndWindow(%d, %d) = %q, %v, %d; model %q, %v, %d",
							step, threshold, evictBelow, hot.Name, ok, evicted, wantHot, wantOK, wantEvicted)
					}
				}
			}
			// Cross-check complete state every few steps.
			if step%13 == 0 {
				if s.Len() != len(model) {
					t.Fatalf("step %d: Len=%d model=%d", step, s.Len(), len(model))
				}
				for n, m := range model {
					if k, ok := s.KindOf(n); !ok || k != m.kind {
						t.Fatalf("step %d: KindOf(%s)=%v,%v model=%v", step, n, k, ok, m.kind)
					}
					if s.Hits(n) != m.hits {
						t.Fatalf("step %d: Hits(%s)=%d model=%d", step, n, s.Hits(n), m.hits)
					}
				}
			}
		}
	}
}
