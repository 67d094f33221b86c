package store

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// TestEndWindowNeverEvictsPromoted races window closes against the
// handoff path, where a held replica is promoted to the name's only
// authoritative copy. EndWindow checks the kind and deletes under one
// shard lock, so once a worker has seen its copy promoted no window may
// take it away. Listing cold replicas and deleting them in a later call
// would: at B=0 that deletes the only copy. Run with -race.
func TestEndWindowNeverEvictsPromoted(t *testing.T) {
	s := NewSharded(4)
	const workers, rounds = 8, 2000
	stop := make(chan struct{})
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		for {
			select {
			case <-stop:
				return
			default:
				s.EndWindow(0, 1)
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				s.Put(File{Name: name, Data: []byte(name), Version: uint64(i)}, Replica)
				s.Promote(name)
				if k, ok := s.KindOf(name); !ok || k != Inserted {
					continue // evicted while still a replica: allowed
				}
				for j := 0; j < 3; j++ {
					runtime.Gosched()
					if _, ok := s.Get(name); !ok {
						t.Errorf("round %d: promoted copy of %s evicted", i, name)
						return
					}
				}
				s.Delete(name)
			}
		}(fmt.Sprintf("f%d", w))
	}
	wg.Wait()
	close(stop)
	<-closed
}
