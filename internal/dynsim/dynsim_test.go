package dynsim

import (
	"math"
	"reflect"
	"testing"
)

func TestRunDefaultScenario(t *testing.T) {
	sc := DefaultScenario()
	sc.Duration = 30
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests < 1000 {
		t.Fatalf("too few requests simulated: %+v", res)
	}
	// B=1 with modest churn keeps availability high.
	if res.Availability < 0.95 {
		t.Fatalf("availability %.4f below 0.95: %s", res.Availability, res)
	}
	if res.MeanHops <= 0 || res.MeanHops > float64(sc.M) {
		t.Fatalf("mean hops %v outside (0, m]", res.MeanHops)
	}
	t.Logf("%s", res)
}

func TestDeterministicBySeed(t *testing.T) {
	sc := DefaultScenario()
	sc.Duration = 10
	a, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
	sc.Seed = 999
	c, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical results")
	}
	// The time series covers the run at the maintenance cadence.
	wantWindows := int(sc.Duration / sc.MaintenanceEvery)
	if len(a.Windows) < wantWindows-1 || len(a.Windows) > wantWindows+1 {
		t.Fatalf("windows = %d, want ~%d", len(a.Windows), wantWindows)
	}
	for i, w := range a.Windows {
		if w.Availability < 0 || w.Availability > 1 || w.Nodes < 1 {
			t.Fatalf("window %d invalid: %+v", i, w)
		}
		if i > 0 && w.At <= a.Windows[i-1].At {
			t.Fatalf("window times not increasing")
		}
	}
}

func TestFaultToleranceImprovesAvailability(t *testing.T) {
	// Under failure-heavy churn, B=1 must beat B=0: the headline value
	// of the §4 model in the dynamic setting.
	base := DefaultScenario()
	base.Duration = 60
	base.ChurnRate = 3
	base.JoinFrac, base.LeaveFrac, base.FailFrac = 1, 0, 2
	run := func(b int) float64 {
		sc := base
		sc.B = b
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("B=%d: %s", b, res)
		return res.Availability
	}
	a0 := run(0)
	a1 := run(1)
	if a1 < a0 {
		t.Fatalf("B=1 availability %.4f below B=0 %.4f", a1, a0)
	}
	if a1 < 0.99 {
		t.Fatalf("B=1 availability %.4f unexpectedly low", a1)
	}
}

func TestNoChurnPerfectAvailability(t *testing.T) {
	sc := DefaultScenario()
	sc.ChurnRate = 0
	sc.Duration = 20
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults != 0 || res.Availability != 1 {
		t.Fatalf("static system faulted: %s", res)
	}
	if res.Joins+res.Leaves+res.Fails != 0 {
		t.Fatal("churn events without a churn process")
	}
}

func TestReplicaOutlivesItsOwnWindow(t *testing.T) {
	// One hot file, no churn, no fault-tolerance copies: every window the
	// overloaded holder places a replica. A replica is born with zero hits,
	// so a window that evicted after replicating would drop each one in the
	// same step, and evictions would equal creations.
	sc := DefaultScenario()
	sc.B, sc.Files, sc.ChurnRate = 0, 1, 0
	sc.Duration = 30
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.ReplicasCreated == 0 || st.ReplicasEvicted >= st.ReplicasCreated {
		t.Fatalf("created %d replicas, evicted %d: none outlived its window",
			st.ReplicasCreated, st.ReplicasEvicted)
	}
}

func TestScenarioValidation(t *testing.T) {
	sc := DefaultScenario()
	sc.RequestRate = 0
	if _, err := Run(sc); err == nil {
		t.Fatal("zero request rate accepted")
	}
	sc = DefaultScenario()
	sc.JoinFrac, sc.LeaveFrac, sc.FailFrac = 0, 0, 0
	if _, err := Run(sc); err == nil {
		t.Fatal("all-zero churn mix accepted")
	}
}

func TestZipfCDF(t *testing.T) {
	cdf := zipfCDF(5, 1)
	if math.Abs(cdf[4]-1) > 1e-12 {
		t.Fatalf("cdf tail = %v", cdf[4])
	}
	for i := 1; i < 5; i++ {
		if cdf[i] <= cdf[i-1] {
			t.Fatalf("cdf not increasing: %v", cdf)
		}
	}
	// Rank 1 must dominate under s=1: H(5) ≈ 2.283, so p1 ≈ 0.438.
	if cdf[0] < 0.4 || cdf[0] > 0.48 {
		t.Fatalf("p(rank1) = %v", cdf[0])
	}
	// Uniform at s=0.
	u := zipfCDF(4, 0)
	for i, want := range []float64{0.25, 0.5, 0.75, 1} {
		if math.Abs(u[i]-want) > 1e-12 {
			t.Fatalf("uniform cdf = %v", u)
		}
	}
}

func TestPickCDF(t *testing.T) {
	cdf := []float64{0.5, 0.8, 1}
	cases := []struct {
		u    float64
		want int
	}{{0, 0}, {0.49, 0}, {0.5, 0}, {0.51, 1}, {0.8, 1}, {0.99, 2}, {1, 2}}
	for _, c := range cases {
		if got := pickCDF(cdf, c.u); got != c.want {
			t.Fatalf("pickCDF(%v) = %d, want %d", c.u, got, c.want)
		}
	}
}
