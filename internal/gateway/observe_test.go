package gateway

import (
	"reflect"
	"testing"

	"lesslog/internal/metrics"
)

// TestSnapshotLoadsEveryLiveCounter pins the by-name copy behind
// countersSnapshot: every live counter — the edge's own and the shared
// ladder's — must come back out of the snapshot field of the same name, or
// of the name the edge has always published it under.
func TestSnapshotLoadsEveryLiveCounter(t *testing.T) {
	g := newGateway(t, Config{Peers: startFabric(t, 2, 1)})
	published := map[string]string{"ChunkedGets": "ChunkedFills", "OversizeRejects": "OversizeRejected"}

	want := map[string]uint64{}
	var set func(live reflect.Value)
	set = func(live reflect.Value) {
		for i := 0; i < live.NumField(); i++ {
			name := live.Type().Field(i).Name
			if c, ok := live.Field(i).Addr().Interface().(*metrics.AtomicCounter); ok {
				want[name] = uint64(1000 + len(want))
				c.Store(want[name])
			} else {
				set(live.Field(i).Elem()) // the embedded *netnode.LocateStats
			}
		}
	}
	set(reflect.ValueOf(&g.counters).Elem())

	snap := reflect.ValueOf(g.StatSnapshot().Counters)
	for name, v := range want {
		if as, renamed := published[name]; renamed {
			name = as
		}
		if f := snap.FieldByName(name); !f.IsValid() {
			t.Errorf("live counter %s has no CountersSnapshot field", name)
		} else if f.Uint() != v {
			t.Errorf("CountersSnapshot.%s = %d, want the live counter's %d", name, f.Uint(), v)
		}
	}
}
