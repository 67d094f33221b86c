package loadsim

import (
	"math"
	"reflect"
	"testing"

	"lesslog/internal/bitops"
	"lesslog/internal/liveness"
	"lesslog/internal/replication"
	"lesslog/internal/workload"
	"lesslog/internal/xrand"
)

func evenSim(m int, target bitops.PID, total, cap float64) *Sim {
	live := liveness.NewAllLive(m, bitops.Slots(m))
	return New(Config{
		M: m, B: 0, Target: target, Cap: cap,
		Live:  live,
		Rates: workload.Even(total, live),
		Seed:  1,
	})
}

func TestInitialLoadAllAtTarget(t *testing.T) {
	s := evenSim(4, 4, 1600, 100)
	loads := s.Loads()
	if len(loads) != 1 || math.Abs(loads[4]-1600) > 1e-6 {
		t.Fatalf("initial loads = %v, want all 1600 at P(4)", loads)
	}
	if p := s.Primaries(); len(p) != 1 || p[0] != 4 {
		t.Fatalf("primaries = %v", p)
	}
}

// splitSim builds k even-rate files sharing one m=10 system of cap 100.
func splitSim(k int, total float64) []*Sim {
	live := liveness.NewAllLive(10, 1024)
	return EvenSplit(Config{M: 10, Cap: 100, Live: live, Seed: 1}, k, total)
}

// assertConserved places replicas one at a time and checks after each
// that the load summed over every file's holders stays at total: placing
// a replica moves load between holders, never creates or loses it.
func assertConserved(t *testing.T, files []*Sim, total float64) {
	t.Helper()
	for i := 0; i < 10; i++ {
		sum := 0.0
		for _, l := range nodeLoads(files) {
			sum += l
		}
		if math.Abs(sum-total) > 1e-6 {
			t.Fatalf("step %d: total load %v, want %v", i, sum, total)
		}
		if _, err := Balance(replication.LessLog{}, 1, files...); err != ErrBudget {
			break
		}
	}
}

func TestLoadConservation(t *testing.T) {
	assertConserved(t, []*Sim{evenSim(6, 13, 6400, 100)}, 6400)
}

func TestAggregateLoadConservation(t *testing.T) {
	files := splitSim(4, 8000)
	if h := summarize(files, nodeLoads(files), 100).Holders; h < len(files) {
		t.Fatalf("%d holders for %d files", h, len(files))
	}
	assertConserved(t, files, 8000)
}

func TestReplicationHalvesLoad(t *testing.T) {
	// §2.2's guarantee: with evenly distributed requests, replicating to
	// the first node of the children list halves the root's load (up to
	// the one request-source granularity).
	s := evenSim(10, 4, 20000, 100)
	before := s.LoadOf(4)
	p, ok := replication.LessLog{}.Place(s, 4)
	if !ok {
		t.Fatal("no placement")
	}
	s.AddReplica(p)
	after := s.LoadOf(4)
	perNode := 20000.0 / 1024
	if math.Abs(after-before/2) > perNode+1e-9 {
		t.Fatalf("load after one replication = %v, want ~%v", after, before/2)
	}
	// The replica carries the other half.
	if math.Abs(s.LoadOf(p)-before/2) > perNode+1e-9 {
		t.Fatalf("replica load = %v, want ~%v", s.LoadOf(p), before/2)
	}
}

// balanceSplit balances total req/s split evenly over k hot files with
// spread targets, and checks that the result is balanced under the cap
// and that the per-file replica counts add up to the total.
func balanceSplit(t *testing.T, k int, total float64) Result {
	t.Helper()
	files := splitSim(k, total)
	res, err := Balance(replication.LessLog{}, 0, files...)
	if err != nil {
		t.Fatalf("k=%d: %v", k, err)
	}
	if !res.Balanced || res.Summary.Overloaded != 0 {
		t.Fatalf("k=%d not balanced: %+v", k, res)
	}
	if res.Summary.MaxLoad > 100 {
		t.Fatalf("k=%d: max load %v above cap", k, res.Summary.MaxLoad)
	}
	perFile := 0
	for _, f := range files {
		perFile += len(f.Holders()) - len(f.Primaries())
	}
	if perFile != res.ReplicasCreated {
		t.Fatalf("k=%d: per-file replicas %d != total %d", k, perFile, res.ReplicasCreated)
	}
	return res
}

func TestBalanceLessLogEven(t *testing.T) {
	res := balanceSplit(t, 1, 20000)
	// 20000 req/s at <=100 per holder needs at least 200 holders; the
	// binomial splitting should not need more than ~2.5x the lower bound.
	if res.ReplicasCreated < 199 || res.ReplicasCreated > 520 {
		t.Fatalf("lesslog replicas = %d, outside sane band", res.ReplicasCreated)
	}
}

func TestBalanceMultipleFiles(t *testing.T) {
	res := balanceSplit(t, 8, 16000)
	// 16000 req/s at <=100 per holder needs at least 160 holders, 8 of
	// which are the files' own primaries.
	if res.ReplicasCreated < 152 {
		t.Fatalf("8 files: %d replicas, below the lower bound", res.ReplicasCreated)
	}
	t.Logf("8 files, 16000 req/s: %d replicas", res.ReplicasCreated)
}

func TestSpreadingFilesNeedsFewerReplicasPerFile(t *testing.T) {
	// Fixed total rate: more hot files spread the load across more
	// targets, so the total replica count must not exceed one file's,
	// which needs the deepest splitting.
	one := balanceSplit(t, 1, 20000).ReplicasCreated
	for _, k := range []int{8, 16} {
		if n := balanceSplit(t, k, 20000).ReplicasCreated; n > one {
			t.Fatalf("%d files (%d replicas) needed more than 1 file (%d)", k, n, one)
		}
	}
}

func TestOverlappingTargets(t *testing.T) {
	// Two hot files anchored at the *same* target stack their load; the
	// node sheds them file by file, hottest first.
	live := liveness.NewAllLive(8, 256)
	files := []*Sim{
		New(Config{M: 8, Target: 4, Cap: 100, Live: live, Rates: workload.Even(2000, live), Seed: 1}),
		New(Config{M: 8, Target: 4, Cap: 100, Live: live, Rates: workload.Even(2000, live), Seed: 2}),
	}
	if got := nodeLoads(files)[4]; math.Abs(got-4000) > 1e-6 {
		t.Fatalf("stacked load = %v", got)
	}
	res, err := Balance(replication.LessLog{}, 0, files...)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Balanced {
		t.Fatal("not balanced")
	}
	for i, f := range files {
		if len(f.Holders()) == len(f.Primaries()) {
			t.Fatalf("file %d never shed", i)
		}
	}
}

func TestEvenSplitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("k=0 accepted")
		}
	}()
	EvenSplit(Config{M: 4, Cap: 100, Live: liveness.NewAllLive(4, 16)}, 0, 100)
}

func TestStrategyOrderingMatchesPaper(t *testing.T) {
	// Figure 5's qualitative result at one sweep point: random needs far
	// more replicas than LessLog; log-based needs no more than LessLog
	// (up to a small slack since our log-based is an oracle).
	run := func(strat replication.Strategy, seed uint64) int {
		live := liveness.NewAllLive(10, 1024)
		s := New(Config{
			M: 10, Target: 4, Cap: 100,
			Live:  live,
			Rates: workload.Even(10000, live),
			Seed:  seed,
		})
		res, err := Balance(strat, 0, s)
		if err != nil {
			t.Fatalf("%s: %v", strat.Name(), err)
		}
		return res.ReplicasCreated
	}
	ll := run(replication.LessLog{}, 1)
	rnd := run(replication.Random{}, 1)
	lb := run(replication.LogBased{}, 1)
	if !(rnd > ll) {
		t.Fatalf("random (%d) should need more replicas than lesslog (%d)", rnd, ll)
	}
	if lb > ll {
		t.Fatalf("oracle log-based (%d) should need at most lesslog's replicas (%d)", lb, ll)
	}
	t.Logf("replicas: log-based=%d lesslog=%d random=%d", lb, ll, rnd)
}

func TestDeadRootFallback(t *testing.T) {
	// §3 worked example: P(4), P(5) dead, target 4. Every request lands
	// on the primary P(6).
	live := liveness.NewAllLive(4, 16)
	live.SetDead(4)
	live.SetDead(5)
	s := New(Config{
		M: 4, Target: 4, Cap: 100,
		Live:  live,
		Rates: workload.Even(1400, live),
		Seed:  1,
	})
	loads := s.Loads()
	if len(loads) != 1 || math.Abs(loads[6]-1400) > 1e-6 {
		t.Fatalf("loads = %v, want 1400 at P(6)", loads)
	}
}

func TestBalanceWithDeadNodes(t *testing.T) {
	for _, frac := range []float64{0.1, 0.2, 0.3} {
		live := liveness.NewAllLive(10, 1024)
		workload.KillRandom(live, frac, bitops.PID(^uint32(0)), xrand.New(7))
		s := New(Config{
			M: 10, Target: 4, Cap: 100,
			Live:  live,
			Rates: workload.Even(15000, live),
			Seed:  2,
		})
		res, err := Balance(replication.LessLog{}, 0, s)
		if err != nil {
			t.Fatalf("frac=%v: %v", frac, err)
		}
		if !res.Balanced {
			t.Fatalf("frac=%v not balanced", frac)
		}
		// Replicas only on live nodes.
		for _, h := range s.Holders() {
			if !live.IsLive(h) {
				t.Fatalf("holder P(%d) is dead", h)
			}
		}
	}
}

// TestHoldersSortedAndStable pins Holders to ascending PID order, so the
// lesslog-sim -verbose listing is the same on every run.
func TestHoldersSortedAndStable(t *testing.T) {
	live := liveness.NewAllLive(10, 1024)
	s := New(Config{M: 10, Target: 4, Cap: 100, Live: live,
		Rates: workload.Even(20000, live), Seed: 9})
	if _, err := Balance(replication.LessLog{}, 0, s); err != nil {
		t.Fatal(err)
	}
	a, b := s.Holders(), s.Holders()
	if len(a) < 2 || !reflect.DeepEqual(a, b) {
		t.Fatalf("Holders() = %v then %v", a, b)
	}
	for i := 1; i < len(a); i++ {
		if a[i-1] >= a[i] {
			t.Fatalf("Holders() not ascending at %d: %v", i, a)
		}
	}
}

func TestLocalityBalance(t *testing.T) {
	live := liveness.NewAllLive(10, 1024)
	rates := workload.Locality(20000, 0.8, 0.2, live, xrand.New(3))
	s := New(Config{M: 10, Target: 4, Cap: 100, Live: live, Rates: rates, Seed: 3})
	res, err := Balance(replication.LessLog{}, 0, s)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Balanced {
		t.Fatal("locality workload not balanced")
	}
}

func TestFaultTolerantSubtreeRouting(t *testing.T) {
	// b=2: four independent subtrees, each with its own primary. Loads
	// must stay inside the origin's subtree.
	live := liveness.NewAllLive(6, 64)
	s := New(Config{
		M: 6, B: 2, Target: 9, Cap: 1000,
		Live:  live,
		Rates: workload.Even(6400, live),
		Seed:  1,
	})
	prims := s.Primaries()
	if len(prims) != 4 {
		t.Fatalf("primaries = %v, want 4", prims)
	}
	loads := s.Loads()
	if len(loads) != 4 {
		t.Fatalf("loads on %d holders, want 4", len(loads))
	}
	for _, l := range loads {
		if math.Abs(l-1600) > 1e-6 {
			t.Fatalf("subtree load %v, want 1600", l)
		}
	}
}

func TestFaultTolerantBalance(t *testing.T) {
	live := liveness.NewAllLive(8, 256)
	s := New(Config{
		M: 8, B: 2, Target: 77, Cap: 50,
		Live:  live,
		Rates: workload.Even(2560, live),
		Seed:  5,
	})
	res, err := Balance(replication.LessLog{}, 0, s)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Balanced {
		t.Fatal("b=2 system not balanced")
	}
}

func TestEvictCold(t *testing.T) {
	// Balance at a high rate, then drop the rate tenfold: most replicas
	// go cold and the counter-based mechanism removes them without
	// re-overloading anyone.
	live := liveness.NewAllLive(10, 1024)
	s := New(Config{M: 10, Target: 4, Cap: 100, Live: live,
		Rates: workload.Even(20000, live), Seed: 9})
	if _, err := Balance(replication.LessLog{}, 0, s); err != nil {
		t.Fatal(err)
	}
	holdersBefore := len(s.Holders())
	// Rate collapse.
	s.SetRates(workload.Even(2000, live))
	removed := s.EvictCold(20)
	if removed == 0 {
		t.Fatal("no cold replicas removed")
	}
	if s.Summary().Overloaded != 0 {
		t.Fatal("eviction overloaded the system")
	}
	if len(s.Holders()) != holdersBefore-removed {
		t.Fatalf("holder bookkeeping wrong: %d -> %d after %d removals",
			holdersBefore, len(s.Holders()), removed)
	}
	t.Logf("evicted %d of %d holders after rate collapse", removed, holdersBefore)
}

func TestMeanHops(t *testing.T) {
	// Complete m=4 tree, single primary at the root: the mean path is
	// the mean VID depth, which is m/2 = 2 (half the 4 bits of a uniform
	// random VID are zeros).
	s := evenSim(4, 4, 1600, 1e9)
	if got := s.MeanHops(); math.Abs(got-2.0) > 1e-9 {
		t.Fatalf("MeanHops = %v, want 2.0", got)
	}
	// A replica at the root's first child (subtree of 8) saves one hop
	// for its 8 members... except itself saves its full depth. Easier
	// invariant: adding any replica never lengthens the mean path.
	before := s.MeanHops()
	p, _ := (replication.LessLog{}).Place(s, 4)
	s.AddReplica(p)
	if after := s.MeanHops(); after > before {
		t.Fatalf("mean hops rose from %v to %v after replication", before, after)
	}
}

func TestRemoveReplicaRefusesPrimary(t *testing.T) {
	s := evenSim(4, 4, 100, 1000)
	if s.RemoveReplica(4) {
		t.Fatal("primary copy removed")
	}
	if s.RemoveReplica(7) {
		t.Fatal("removed a copy that does not exist")
	}
	s.AddReplica(7)
	if !s.RemoveReplica(7) {
		t.Fatal("failed to remove a replica")
	}
}

func TestAddReplicaPanicsOnDead(t *testing.T) {
	live := liveness.NewAllLive(4, 16)
	live.SetDead(9)
	s := New(Config{M: 4, Target: 4, Cap: 100, Live: live,
		Rates: workload.Even(100, live), Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("AddReplica on dead node did not panic")
		}
	}()
	s.AddReplica(9)
}

// assertBudget checks that balancing files with a budget of 3 replicas
// stops with ErrBudget after exactly 3.
func assertBudget(t *testing.T, files ...*Sim) {
	t.Helper()
	res, err := Balance(replication.LessLog{}, 3, files...)
	if err != ErrBudget || res.ReplicasCreated != 3 {
		t.Fatalf("err = %v after %d replicas, want ErrBudget after 3", err, res.ReplicasCreated)
	}
}

func TestBudgetExhaustion(t *testing.T) {
	assertBudget(t, evenSim(10, 4, 20000, 100))
}

func TestBudgetError(t *testing.T) {
	assertBudget(t, splitSim(2, 20000)...)
}

func TestStuckWhenOwnRateExceedsCap(t *testing.T) {
	// A single origin with rate above the cap can never be balanced: its
	// requests chase the copy all the way back to the origin, which then
	// serves its own load. The simulator must report ErrStuck, not loop.
	live := liveness.NewAllLive(3, 8)
	s := New(Config{M: 3, Target: 0, Cap: 10, Live: live,
		Rates: workload.Point(500, 5, live), Seed: 1})
	if _, err := Balance(replication.LessLog{}, 0, s); err != ErrStuck {
		t.Fatalf("err = %v, want ErrStuck", err)
	}
}

func TestStuckAggregate(t *testing.T) {
	// The stuck case beside a second, mild file on the same target.
	live := liveness.NewAllLive(4, 16)
	files := []*Sim{
		New(Config{M: 4, Target: 4, Cap: 100, Live: live, Rates: workload.Point(160, 9, live), Seed: 1}),
		New(Config{M: 4, Target: 4, Cap: 100, Live: live, Rates: workload.Point(10, 2, live), Seed: 1 + 0x9e37}),
	}
	if _, err := Balance(replication.LessLog{}, 0, files...); err != ErrStuck {
		t.Fatalf("two files: err = %v, want ErrStuck", err)
	}
	// Replication pushed the hot copy to the origin itself, which now
	// serves its own 160 req/s; nothing can shed further.
	if l := nodeLoads(files)[9]; math.Abs(l-160) > 1e-6 {
		t.Fatalf("stuck node load = %v", l)
	}
}

func TestSummaryAndForwarded(t *testing.T) {
	s := evenSim(4, 4, 1600, 100)
	sum := s.Summary()
	if sum.Holders != 1 || sum.Overloaded != 1 || math.Abs(sum.TotalLoad-1600) > 1e-6 {
		t.Fatalf("summary = %+v", sum)
	}
	// The root's heaviest forwarder is its first child P(5) (subtree of
	// 8 positions including itself).
	f5 := s.ForwardedLoad(4, 5)
	if math.Abs(f5-800) > 1e-6 {
		t.Fatalf("forwarded via P(5) = %v, want 800", f5)
	}
	f6 := s.ForwardedLoad(4, 6)
	if math.Abs(f6-400) > 1e-6 {
		t.Fatalf("forwarded via P(6) = %v, want 400", f6)
	}
}
