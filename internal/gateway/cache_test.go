package gateway

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

func TestCacheTTLAndLRU(t *testing.T) {
	vc := newVersionCache(3, 50*time.Millisecond)
	if !vc.put("a", []byte("a"), 1, 0, 0) {
		t.Fatal("fill refused with no floor")
	}
	e, fresh, ok := vc.get("a")
	if !ok || !fresh || !bytes.Equal(e.data, []byte("a")) {
		t.Fatalf("get after put: fresh=%v ok=%v", fresh, ok)
	}
	// Capacity: filling past 3 entries evicts the least recently used.
	vc.put("b", []byte("b"), 1, 0, 0)
	vc.put("c", []byte("c"), 1, 0, 0)
	vc.get("a") // touch a so b is LRU
	vc.put("d", []byte("d"), 1, 0, 0)
	if _, _, ok := vc.get("b"); ok {
		t.Fatal("LRU entry b survived past capacity")
	}
	if _, _, ok := vc.get("a"); !ok {
		t.Fatal("recently-used entry a was evicted")
	}
	if vc.c.evictions.Value() != 1 {
		t.Fatalf("evictions = %d, want 1", vc.c.evictions.Value())
	}
	// TTL: entries stop being fresh but remain as floor fallbacks.
	time.Sleep(60 * time.Millisecond)
	if _, fresh, ok := vc.get("a"); !ok || fresh {
		t.Fatalf("expired entry: fresh=%v ok=%v, want stale-but-ok", fresh, ok)
	}
}

func TestCacheFloorRefusesStaleFills(t *testing.T) {
	vc := newVersionCache(8, time.Minute)
	vc.ackUpdate("f", []byte("v5"), nil, 5)
	if vc.put("f", []byte("v3"), 3, 0, 0) {
		t.Fatal("fill below the floor was accepted")
	}
	if vc.c.staleRejected.Value() != 1 {
		t.Fatalf("staleRejected = %d, want 1", vc.c.staleRejected.Value())
	}
	e, _, ok := vc.get("f")
	if !ok || e.version != 5 || !bytes.Equal(e.data, []byte("v5")) {
		t.Fatalf("write-through entry lost: %+v ok=%v", e, ok)
	}
	// At or above the floor, fills flow again.
	if !vc.put("f", []byte("v6"), 6, 0, 0) {
		t.Fatal("fill above the floor refused")
	}
}

func TestCacheAckUpdateIsMonotonic(t *testing.T) {
	vc := newVersionCache(8, time.Minute)
	vc.ackUpdate("f", []byte("v7"), nil, 7)
	vc.ackUpdate("f", []byte("v4"), nil, 4) // late-arriving older ack
	if got := vc.floor("f"); got != 7 {
		t.Fatalf("floor = %d, want 7 (racing acks settle on the newest)", got)
	}
	e, _, ok := vc.get("f")
	if !ok || e.version != 7 {
		t.Fatalf("entry regressed to %d, want 7", e.version)
	}
}

func TestCacheAckInsertResetsGeneration(t *testing.T) {
	vc := newVersionCache(8, time.Minute)
	vc.ackUpdate("f", []byte("v9"), nil, 9)
	vc.ackDelete("f", 0)
	if _, _, ok := vc.get("f"); ok {
		t.Fatal("deleted entry still served")
	}
	if got := vc.floor("f"); got != 10 {
		t.Fatalf("post-delete floor = %d, want 10 (past the deleted version)", got)
	}
	// Re-insert starts a new generation with a lower fabric version.
	vc.ackInsert("f", []byte("new"), nil, 2)
	if got := vc.floor("f"); got != 2 {
		t.Fatalf("post-insert floor = %d, want 2 (reset, not ratcheted)", got)
	}
	e, fresh, ok := vc.get("f")
	if !ok || !fresh || e.version != 2 {
		t.Fatalf("re-inserted entry: %+v fresh=%v ok=%v", e, fresh, ok)
	}
}

func TestCacheDeleteWithoutEntryStillBlocksRefill(t *testing.T) {
	vc := newVersionCache(8, time.Minute)
	vc.ackUpdate("f", nil, nil, 5)
	// Entry evicted before the delete lands.
	vc.mu.Lock()
	vc.entries.Remove("f")
	vc.mu.Unlock()
	vc.ackDelete("f", 0)
	if vc.put("f", []byte("zombie"), 5, 0, 0) {
		t.Fatal("pre-delete data refilled the cache after an acknowledged delete")
	}
}

// TestCacheDeleteFencesTombstonedVersions: a delete's floor covers every
// version its tombstone deleted, not only the ones this gateway saw — a
// fill that raced the delete with an older body is refused.
func TestCacheDeleteFencesTombstonedVersions(t *testing.T) {
	t.Run("never written here", func(t *testing.T) {
		vc := newVersionCache(8, time.Minute)
		vc.ackDelete("f", 6) // v5 deleted elsewhere, tombstone v6
		if vc.put("f", []byte("v5"), 5, 0, 0) {
			t.Fatal("fill of the deleted v5 accepted after the delete")
		}
		if got := vc.floor("f"); got != 7 {
			t.Fatalf("floor = %d, want 7 (past the tombstone)", got)
		}
	})
	t.Run("updated elsewhere", func(t *testing.T) {
		vc := newVersionCache(8, time.Minute)
		if !vc.put("f", []byte("v3"), 3, 0, 0) {
			t.Fatal("fill refused with no floor")
		}
		vc.ackDelete("f", 9) // v8 written through another gateway, tombstone v9
		if vc.put("f", []byte("v8"), 8, 0, 0) {
			t.Fatal("fill of the deleted v8 accepted after the delete")
		}
		if !vc.put("f", []byte("v10"), 10, 0, 0) {
			t.Fatal("fill past the tombstone refused")
		}
	})
}

func TestCacheDisabledStillEnforcesFloors(t *testing.T) {
	vc := newVersionCache(-1, time.Minute)
	vc.ackUpdate("f", []byte("v5"), nil, 5)
	if vc.put("f", []byte("v3"), 3, 0, 0) {
		t.Fatal("cacheless floor let a stale fill through")
	}
	if !vc.put("f", []byte("v6"), 6, 0, 0) {
		t.Fatal("cacheless put above floor refused")
	}
	if _, _, ok := vc.get("f"); ok {
		t.Fatal("disabled cache retained an entry")
	}
	if vc.len() != 0 {
		t.Fatalf("disabled cache len = %d", vc.len())
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	vc := newVersionCache(64, time.Minute)
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				name := fmt.Sprintf("k/%d", i%32)
				vc.put(name, []byte("x"), uint64(i), 0, 0)
				vc.get(name)
				if i%17 == 0 {
					vc.ackUpdate(name, []byte("y"), nil, uint64(i+1))
				}
				if i%61 == 0 {
					vc.ackDelete(name, 0)
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
}
