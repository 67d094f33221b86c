package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the harness must agree with.
type benchmarkJSON struct {
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatches holds BENCHMARK.json and the harness's own tables
// to each other, so a metric or workload cannot be added to one alone.
func TestBenchmarkJSONMatches(t *testing.T) {
	bm := readBenchmarkJSON(t)
	if len(bm.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(bm.Workloads), len(specs))
	}
	for i, w := range bm.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	if len(bm.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(bm.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range bm.EndToEnd {
		if d := endToEndMetrics[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the harness %+v", i, m, d)
		}
	}
	if len(bm.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(bm.PerLayer), len(perLayerMetrics))
	}
	for i, m := range bm.PerLayer {
		if d := perLayerMetrics[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the harness %+v", i, m, d)
		}
	}
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkJSON
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	return bm
}

// TestSmoke runs every workload with its traced pass for a second on a
// fabric of at most 64 names, and checks what the driver will: every metric
// of BENCHMARK.json present, finite and with its unit, no failed op, and a
// span file whose every span has its parent.
func TestSmoke(t *testing.T) {
	bm := readBenchmarkJSON(t)
	for _, sp := range specs {
		sp.names, sp.pool = min(sp.names, 64), min(sp.pool, 64)
		t.Run(sp.name, func(t *testing.T) {
			opt := options{seed: 7, seconds: 1, trace: true, dataDir: t.TempDir(), outDir: t.TempDir()}
			res, err := runWorkload(sp, opt)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Fatalf("attempted %d, failed %d, first failure: %v", res.attempted, res.failed, res.firstErr)
			}
			layers := newRecord(sp, opt, res, 0).Metrics
			for _, m := range bm.PerLayer {
				got, ok := layers[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("per-layer metric %s: got %+v (present %v), want a finite value in %s", m.Name, got, ok, m.Unit)
				}
			}
			opt.trace = false
			ends := newRecord(sp, opt, res, 0).Metrics
			for _, m := range bm.EndToEnd {
				got, ok := ends[m.Name]
				if !ok || got.Unit != m.Unit || math.IsInf(got.Value, 0) || !(got.Value > 0) {
					t.Errorf("end-to-end metric %s: got %+v (present %v), want a positive value in %s", m.Name, got, ok, m.Unit)
				}
			}
			checkSpans(t, filepath.Join(opt.outDir, "trace_"+sp.name+".json"))
		})
	}
}

func checkSpans(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file traceFile
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(file.Depths) < 3 {
		t.Fatalf("%s: %d depths, want the client, netnode and holder depths at least", path, len(file.Depths))
	}
	for _, d := range file.Depths {
		ids := map[int]bool{}
		for _, s := range d.Spans {
			ids[s.ID] = true
		}
		if len(d.Spans) == 0 {
			t.Errorf("%s: depth %s recorded no span", path, d.Depth)
		}
		for _, s := range d.Spans {
			if s.Parent != 0 && !ids[s.Parent] {
				t.Errorf("%s: depth %s span %d (%s) has no parent %d", path, d.Depth, s.ID, s.Name, s.Parent)
			}
			if s.End < s.Start {
				t.Errorf("%s: depth %s span %d (%s) ends before it starts", path, d.Depth, s.ID, s.Name)
			}
		}
	}
}

// TestJudge holds -compare's verdicts to ISSUE 13's definitions, setup_s
// like any other metric: a spread wider than the bound is unresolved even
// when the medians agree.
func TestJudge(t *testing.T) {
	steady := []float64{1.00, 1.01, 0.99, 1.02, 0.98}
	worse := []float64{1.30, 1.31, 1.29, 1.32, 1.28}
	wide := []float64{0.70, 1.00, 1.35, 0.65, 1.40}
	for _, tc := range []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"same", metricDef{"setup_s", "s", "lower", 0.25}, steady, steady, "ok"},
		{"lower is better, B higher", metricDef{"setup_s", "s", "lower", 0.25}, steady, worse, "regressed"},
		{"lower is better, B lower", metricDef{"setup_s", "s", "lower", 0.25}, worse, steady, "ok"},
		{"higher is better, B lower", metricDef{"x", "1/s", "higher", 0.10}, worse, steady, "regressed"},
		{"setup_s spread over its bound", metricDef{"setup_s", "s", "lower", 0.25}, steady, wide, "unresolved"},
		{"no bound", metricDef{Name: "client.ops_per_s", Better: "higher"}, steady, worse, "-"},
	} {
		if _, _, _, _, got := judge(tc.def, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
	// Python's statistics.quantiles([1..10], n=4) is [2.75, 5.5, 8.25].
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
