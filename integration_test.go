package lesslog_test

// Full-stack integration: one scenario that exercises the whole public
// API surface in sequence — content management, load shedding, eviction,
// fault-tolerant churn, anti-entropy and deletion — with invariants
// checked between phases.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"lesslog"
	"lesslog/internal/xrand"
)

func TestEndToEndScenario(t *testing.T) {
	sys, err := lesslog.New(lesslog.Options{M: 8, B: 1, InitialNodes: 220, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(99)

	// Phase 1: content. 80 files inserted from arbitrary origins, each
	// with 2^B = 2 authoritative copies.
	names := make([]string, 80)
	for i := range names {
		names[i] = fmt.Sprintf("content/%03d.bin", i)
		if _, err := sys.Insert(lesslog.PID(rng.Intn(220)), names[i], []byte(names[i])); err != nil {
			t.Fatalf("insert %s: %v", names[i], err)
		}
		if d := sys.FaultToleranceDegree(names[i]); d != 2 {
			t.Fatalf("%s degree = %d", names[i], d)
		}
	}
	mustInvariants(t, sys, "after inserts")

	// Phase 2: a flash crowd on one file; windows replicate until no
	// holder exceeds the cap.
	hot := names[7]
	const cap = 50
	var maxServe uint64
	for round := 0; round < 10; round++ {
		live := sys.Live().LivePIDs()
		for _, p := range live {
			if _, err := sys.Get(p, hot); err != nil {
				t.Fatalf("hot get: %v", err)
			}
		}
		maxServe = 0
		for _, h := range sys.HoldersOf(hot) {
			if c := sys.ServeCount(h, hot); c > maxServe {
				maxServe = c
			}
		}
		if placed, _ := sys.Maintain(cap, 0); len(placed) == 0 {
			break
		}
	}
	if maxServe > cap {
		t.Fatalf("hot file not balanced: max serve %d", maxServe)
	}
	holdersAtPeak := len(sys.HoldersOf(hot))
	if holdersAtPeak < 4 {
		t.Fatalf("expected a replica population, got %d", holdersAtPeak)
	}
	mustInvariants(t, sys, "after load balancing")

	// Phase 3: an update while replicated must reach every copy.
	if _, err := sys.Update(3, hot, []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	for _, h := range sys.HoldersOf(hot) {
		res, err := sys.Get(h, hot)
		if err != nil || !bytes.Equal(res.File.Data, []byte("fresh")) {
			t.Fatalf("stale read at P(%d): %v %q", h, err, res.File.Data)
		}
	}

	// Phase 4: churn. 40 events of join/leave/fail with recovery; every
	// file keeps serving throughout.
	for ev := 0; ev < 40; ev++ {
		live := sys.Live().LivePIDs()
		switch rng.Intn(3) {
		case 0:
			for {
				p := lesslog.PID(rng.Intn(256))
				if !sys.Live().IsLive(p) {
					if err := sys.Join(p); err != nil {
						t.Fatalf("join: %v", err)
					}
					break
				}
			}
		case 1:
			if err := sys.Leave(live[rng.Intn(len(live))]); err != nil {
				t.Fatalf("leave: %v", err)
			}
		default:
			if err := sys.Fail(live[rng.Intn(len(live))]); err != nil {
				t.Fatalf("fail: %v", err)
			}
		}
		mustInvariants(t, sys, fmt.Sprintf("churn event %d", ev))
	}
	livePIDs := sys.Live().LivePIDs()
	for _, name := range names {
		if _, err := sys.Get(livePIDs[rng.Intn(len(livePIDs))], name); err != nil {
			t.Fatalf("%s lost in churn: %v", name, err)
		}
	}

	// Phase 5: the crowd is gone; eviction plus repair converge the
	// system, then deletion removes a file everywhere.
	sys.Maintain(math.MaxUint64, 0)
	sys.Maintain(math.MaxUint64, 1) // a quiet window: every replica is cold
	sys.RepairAll()
	mustInvariants(t, sys, "after eviction and repair")
	victim := names[13]
	if _, err := sys.Delete(livePIDs[0], victim); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Get(livePIDs[1], victim); !errors.Is(err, lesslog.ErrNotFound) {
		t.Fatalf("deleted file still served: %v", err)
	}
	for _, name := range names {
		if name == victim {
			continue
		}
		if _, err := sys.Get(livePIDs[rng.Intn(len(livePIDs))], name); err != nil {
			t.Fatalf("%s lost at the end: %v", name, err)
		}
	}
	st := sys.Stats()
	if st.Faults > 1 { // only the post-delete probe may fault
		t.Fatalf("unexpected faults: %+v", st)
	}
	t.Logf("scenario complete: %d nodes, stats %+v", sys.NodeCount(), st)
}

func mustInvariants(t *testing.T, sys *lesslog.System, phase string) {
	t.Helper()
	if err := sys.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", phase, err)
	}
}
