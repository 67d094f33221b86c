package experiments

import (
	"reflect"
	"strings"
	"testing"

	"lesslog/internal/accesslog"
	"lesslog/internal/bitops"
	"lesslog/internal/liveness"
	"lesslog/internal/loadsim"
	"lesslog/internal/ptree"
	"lesslog/internal/workload"
)

func TestHopComparison(t *testing.T) {
	stats := HopComparison(8, 500, 1)
	if len(stats) != 4 {
		t.Fatalf("schemes = %d", len(stats))
	}
	byName := map[string]HopStats{}
	for _, s := range stats {
		if s.Lookups != 500 {
			t.Fatalf("%s ran %d lookups", s.Scheme, s.Lookups)
		}
		byName[s.Scheme] = s
	}
	// LessLog and Chord are logarithmic; CAN (d=2) is polynomial and
	// must be clearly worse at N=256.
	if byName["lesslog"].Mean > 8 || byName["lesslog"].Max > 8 {
		t.Fatalf("lesslog hops exceed m: %+v", byName["lesslog"])
	}
	if byName["chord"].Mean > 8 {
		t.Fatalf("chord hops unreasonable: %+v", byName["chord"])
	}
	if byName["can-d2"].Mean < byName["lesslog"].Mean {
		t.Fatalf("CAN (%.2f) beat lesslog (%.2f) at N=256, implausible",
			byName["can-d2"].Mean, byName["lesslog"].Mean)
	}
	// Histograms account for every lookup.
	for _, s := range stats {
		total := 0
		for _, c := range s.Hist {
			total += c
		}
		if total != s.Lookups {
			t.Fatalf("%s histogram covers %d of %d", s.Scheme, total, s.Lookups)
		}
	}
	out := HopTable(stats, 8)
	if !strings.Contains(out, "lesslog") || !strings.Contains(out, "can-d2") {
		t.Fatalf("table:\n%s", out)
	}
}

func TestChurnTable(t *testing.T) {
	rows, err := ChurnTable([]int{0, 1}, []float64{2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	var a0, a1 float64
	for _, r := range rows {
		switch r.B {
		case 0:
			a0 = r.Availability
		case 1:
			a1 = r.Availability
		}
	}
	if a1 < a0 {
		t.Fatalf("b=1 availability %.4f below b=0 %.4f", a1, a0)
	}
	out := ChurnTableString(rows)
	if !strings.Contains(out, "availability") {
		t.Fatalf("table:\n%s", out)
	}
}

func TestLatency(t *testing.T) {
	p := PaperParams()
	rows, err := Latency(p, []float64{300}, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %+v", rows)
	}
	r := rows[0]
	// Past the service rate, the single-copy p99 must be orders of
	// magnitude above the balanced p99.
	if r.SingleP99 < 10*r.BalancedP99 {
		t.Fatalf("queueing collapse not visible: %+v", r)
	}
	if r.BalancedP99 > 0.5 {
		t.Fatalf("balanced p99 = %vs, too slow", r.BalancedP99)
	}
	out := LatencyTable(rows)
	if !strings.Contains(out, "balanced p99") {
		t.Fatalf("table:\n%s", out)
	}
}

func TestFTCost(t *testing.T) {
	p := PaperParams()
	rows, err := FTCost(p, 12000, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].Copies != 1 || rows[1].Copies != 4 {
		t.Fatalf("copies = %+v", rows)
	}
	// Total holders (copies+replicas) is workload-determined, so extra
	// authoritative copies displace replicas one for one or better.
	if rows[1].Replicas > rows[0].Replicas {
		t.Fatalf("b=2 needed more replicas than b=0: %+v", rows)
	}
	out := FTCostTable(rows, 12000)
	if !strings.Contains(out, "mean hops") {
		t.Fatalf("table:\n%s", out)
	}
}

func TestFlashCrowd(t *testing.T) {
	p := PaperParams()
	rows, err := FlashCrowd(p, 6, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The hottest holder's serve count halves every crowd window until
	// it is at or below the threshold, in ceil(log2(1024/100)) = 4 steps.
	if rows[0].MaxServe != 1024 || rows[0].Holders != 1 {
		t.Fatalf("first window = %+v", rows[0])
	}
	for i := 1; i < 4; i++ {
		if rows[i].MaxServe != rows[i-1].MaxServe/2 {
			t.Fatalf("window %d did not halve: %+v -> %+v", i, rows[i-1], rows[i])
		}
	}
	balancedAt := -1
	for i, r := range rows[:6] {
		if r.MaxServe <= 100 {
			balancedAt = i
			break
		}
	}
	if balancedAt != 4 {
		t.Fatalf("balanced at window %d, want 4", balancedAt)
	}
	// The quiet phase evicts replicas.
	totalEvicted := 0
	for _, r := range rows[6:] {
		totalEvicted += r.Evicted
	}
	if totalEvicted == 0 {
		t.Fatal("no eviction after the crowd left")
	}
	out := FlashCrowdTable(rows, 100)
	if !strings.Contains(out, "max serve") {
		t.Fatalf("table:\n%s", out)
	}
}

func TestUpdateCost(t *testing.T) {
	p := PaperParams()
	rows, err := UpdateCost(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].Holders != 1 {
		t.Fatalf("first row = %+v", rows[0])
	}
	for i, r := range rows {
		if r.Updated != r.Holders {
			t.Fatalf("row %d: stale copies: %+v", i, r)
		}
		// The broadcast visits each holder plus its direct children: far
		// below system size for small replica sets.
		if r.Messages >= bitops.Slots(p.M) {
			t.Fatalf("row %d: broadcast touched the whole system: %+v", i, r)
		}
		if i > 0 && r.Holders < rows[i-1].Holders {
			t.Fatalf("holders shrank: %+v", rows)
		}
	}
	out := UpdateCostTable(rows)
	if !strings.Contains(out, "messages") {
		t.Fatalf("table:\n%s", out)
	}
}

func TestLogOverhead(t *testing.T) {
	p := PaperParams()
	rows, err := LogOverhead(p, []int{1024, 4096}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	// With an uncapped log every request is retained; LessLog keeps
	// nothing.
	if rows[0].Entries != 1024 || rows[1].Entries != 4096 {
		t.Fatalf("entries = %+v", rows)
	}
	if rows[0].Bytes == 0 || rows[0].LessLogBytes != 0 {
		t.Fatalf("bytes = %+v", rows[0])
	}
	out := LogOverheadTable(rows)
	if !strings.Contains(out, "lesslog bytes") {
		t.Fatalf("table:\n%s", out)
	}
}

func TestLogAnalysisMatchesOracle(t *testing.T) {
	// The LogBased strategy's oracle ForwardedLoad must agree with what
	// genuine log analysis computes: replay one request per node, then
	// compare the log's hottest forwarder at the target against the
	// oracle's pick.
	p := PaperParams()
	live := liveness.NewAllLive(p.M, bitops.Slots(p.M))
	v := ptree.NewView(p.Target, live, 0)
	rec := accesslog.NewRecorder(1 << 20)
	for i := 0; i < bitops.Slots(p.M); i++ {
		origin := bitops.PID(i)
		server, forwarder, _ := rootWalk(v, origin)
		rec.Record(server, "hot", accesslog.Entry{Origin: origin, Forwarder: forwarder})
	}
	hot, ok := rec.Log(p.Target, "hot").HottestForwarder()
	if !ok {
		t.Fatal("no log at the target")
	}
	// The oracle: the analytic simulator's heaviest forwarding child.
	sim := loadsim.New(loadsim.Config{
		M: p.M, Target: p.Target, Cap: p.Cap, Live: live,
		Rates: workload.Even(float64(bitops.Slots(p.M)), live), Seed: 1,
	})
	var want bitops.PID
	best := -1.0
	for _, c := range v.ExpandedChildrenList(p.Target) {
		if l := sim.ForwardedLoad(p.Target, c); l > best {
			want, best = c, l
		}
	}
	if hot != want {
		t.Fatalf("log analysis picked P(%d), oracle picked P(%d)", hot, want)
	}
}

func TestMultiFile(t *testing.T) {
	p := PaperParams()
	rows, err := MultiFile(p, 12000, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Files != 1 || rows[1].Files != 4 {
		t.Fatalf("rows = %+v", rows)
	}
	for _, r := range rows {
		if r.Replicas <= 0 || r.Holders <= r.Files {
			t.Fatalf("row %+v implausible", r)
		}
	}
	out := MultiFileTable(rows, 12000)
	if !strings.Contains(out, "files") {
		t.Fatalf("table:\n%s", out)
	}
}

func TestHopsVsReplicas(t *testing.T) {
	p := PaperParams()
	pts, err := HopsVsReplicas(p, 20000, 32)
	if err != nil {
		t.Fatal(err)
	}
	// Holders of equal load act lowest PID first, so a second run is the
	// same run.
	again, err := HopsVsReplicas(p, 20000, 32)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pts, again) {
		t.Fatalf("two runs differ:\n%+v\n%+v", pts, again)
	}
	if len(pts) < 3 {
		t.Fatalf("points = %+v", pts)
	}
	// With no replicas, the mean path is the mean depth of the binomial
	// tree: m/2 = 5 hops at m=10.
	if pts[0].Replicas != 0 || pts[0].MeanHops < 4.9 || pts[0].MeanHops > 5.1 {
		t.Fatalf("initial point = %+v", pts[0])
	}
	// Mean hops must be non-increasing as replicas spread, and the
	// balanced end state must be clearly shorter.
	for i := 1; i < len(pts); i++ {
		if pts[i].MeanHops > pts[i-1].MeanHops+1e-9 {
			t.Fatalf("mean hops increased: %+v -> %+v", pts[i-1], pts[i])
		}
	}
	last := pts[len(pts)-1]
	if last.MeanHops > 3.5 || last.MaxLoad > p.Cap {
		t.Fatalf("final point = %+v", last)
	}
	out := HopsVsReplicasTable(pts)
	if !strings.Contains(out, "mean hops") {
		t.Fatalf("table:\n%s", out)
	}
}

func TestSensitivityM(t *testing.T) {
	rows, err := SensitivityM([]int{6, 8, 10}, 10, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %+v", rows)
	}
	// Constant per-node rate: replicas must grow with system size.
	for i := 1; i < len(rows); i++ {
		if rows[i].Replicas <= rows[i-1].Replicas {
			t.Fatalf("replicas not growing with m: %+v", rows)
		}
	}
	out := SensitivityTable(rows, 10, 100)
	if !strings.Contains(out, "1024") {
		t.Fatalf("table:\n%s", out)
	}
}
