package loadsim

import (
	"testing"

	"lesslog/internal/bitops"
	"lesslog/internal/liveness"
	"lesslog/internal/replication"
	"lesslog/internal/workload"
)

// queueSim is m=8, 256 nodes, target 4, total req/s spread evenly.
func queueSim(total, cap float64) *Sim {
	live := liveness.NewAllLive(8, 256)
	return New(Config{M: 8, Target: 4, Cap: cap, Live: live,
		Rates: workload.Even(total, live), Seed: 1})
}

// queue is 10 ms service (100 req/s capacity per holder), 1 ms per hop.
var queue = QueueConfig{HopLatency: 0.001, ServiceTime: 0.010, Duration: 30, WarmUp: 5, Seed: 1}

func TestQueueStableSingleHolder(t *testing.T) {
	// 50 req/s against a 100 req/s server: utilization 0.5, latencies a
	// few service times.
	res, err := queueSim(50, 100).Queue(queue)
	if err != nil {
		t.Fatal(err)
	}
	if res.Served < 500 {
		t.Fatalf("served = %d", res.Served)
	}
	// Mean response must be at least the service time and far below a
	// second in the stable regime.
	if res.Mean < 0.010 || res.Mean > 0.2 {
		t.Fatalf("mean latency %v outside the stable band", res.Mean)
	}
	t.Logf("stable: %s", res)
}

func TestQueueOverloadedHolderCollapses(t *testing.T) {
	// 300 req/s against one 100 req/s server: utilization 3; the queue
	// grows through the whole run and tail latencies explode.
	over, err := queueSim(300, 100).Queue(queue)
	if err != nil {
		t.Fatal(err)
	}
	if over.P99 < 1.0 {
		t.Fatalf("overloaded p99 = %vs, expected queueing collapse", over.P99)
	}
	if over.MaxBacklog < 100 {
		t.Fatalf("max backlog = %d, expected a long queue", over.MaxBacklog)
	}
	t.Logf("overloaded: %s", over)
}

func TestQueueBalancedPlacementRestoresLatency(t *testing.T) {
	// Balance the same 300 req/s, then queue on the placement: every
	// holder is back under its service rate and tails return to
	// milliseconds.
	s := queueSim(300, 50)
	over, _ := s.Queue(queue)
	if _, err := Balance(replication.LessLog{}, 0, s); err != nil {
		t.Fatal(err)
	}
	balanced, err := s.Queue(queue)
	if err != nil {
		t.Fatal(err)
	}
	if balanced.P99 > 0.2 {
		t.Fatalf("balanced p99 = %vs, still queueing", balanced.P99)
	}
	if balanced.P99*5 > over.P99 {
		t.Fatalf("balancing did not clearly help: %v vs %v", balanced.P99, over.P99)
	}
	t.Logf("balanced: %s", balanced)
}

func TestQueueDeterministicBySeed(t *testing.T) {
	live := liveness.NewAllLive(6, 64)
	s := New(Config{M: 6, Target: 4, Cap: 100, Live: live, Rates: workload.Even(20, live)})
	cfg := QueueConfig{HopLatency: 0.001, ServiceTime: 0.01, Duration: 10, Seed: 7}
	a, err := s.Queue(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Queue(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
}

func TestQueueHopLatencyFloor(t *testing.T) {
	// With a tiny load, response time ≈ 2×hops×hopLatency + service.
	live := liveness.NewAllLive(4, 16)
	s := New(Config{M: 4, Target: 4, Cap: 100, Live: live,
		Rates: workload.Point(1, 8, live)}) // P(8): 2 hops to P(4)
	res, err := s.Queue(QueueConfig{HopLatency: 0.010, ServiceTime: 0.001, Duration: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := 2*2*0.010 + 0.001
	if res.P50 < want-1e-9 || res.P50 > want+0.005 {
		t.Fatalf("p50 = %v, want ~%v", res.P50, want)
	}
}

func TestQueueConfigValidation(t *testing.T) {
	s := queueSim(1, 100)
	if _, err := s.Queue(QueueConfig{Duration: 0, ServiceTime: 1}); err == nil {
		t.Fatal("zero duration accepted")
	}
	if _, err := s.Queue(QueueConfig{Duration: 1, ServiceTime: 0}); err == nil {
		t.Fatal("zero service time accepted")
	}
	// No live node, so no holder and no request.
	dead := liveness.NewAllLive(4, 16)
	for p := 0; p < 16; p++ {
		dead.SetDead(bitops.PID(p))
	}
	empty := New(Config{M: 4, Target: 4, Cap: 100, Live: dead, Rates: workload.Even(1, dead)})
	if _, err := empty.Queue(QueueConfig{Duration: 1, ServiceTime: 0.01}); err == nil {
		t.Fatal("a system with no holders accepted")
	}
}
