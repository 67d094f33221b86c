package experiments

// Golden regression pins: exact replica counts at fixed seeds for one
// sweep point per strategy. These guard the reproduced figures against
// silent algorithmic drift — any change to placement order, routing or
// the balance loop that alters the evaluation shows up here first, with
// a much faster signal than the full-figure shape tests.

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"lesslog/internal/replication"
)

// update rewrites every golden file from the current code:
//
//	go test ./internal/experiments -run Golden -update
//
// `make figures` ends with it, so results/, testdata/ and the tables in
// EXPERIMENTS.md are regenerated together.
var update = flag.Bool("update", false, "rewrite the golden files under testdata/ and results/")

func TestGoldenFigurePoints(t *testing.T) {
	p := PaperParams()
	cases := []struct {
		name     string
		strat    replication.Strategy
		rate     float64
		deadFrac float64
		locality bool
		want     int
	}{
		{"lesslog-even-10k", replication.LessLog{}, 10000, 0, false, 127},
		{"logbased-even-10k", replication.LogBased{}, 10000, 0, false, 127},
		{"lesslog-even-20k", replication.LessLog{}, 20000, 0, false, 255},
		{"random-even-10k", replication.Random{}, 10000, 0, false, goldenRandomEven10k},
		{"lesslog-locality-10k", replication.LessLog{}, 10000, 0, true, goldenLessLogLocality10k},
		{"lesslog-even-20pc-dead-10k", replication.LessLog{}, 10000, 0.2, false, goldenLessLogDead10k},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			got, err := RunPoint(p, c.strat, c.rate, c.deadFrac, c.locality, 1)
			if err != nil {
				t.Fatal(err)
			}
			if got != c.want {
				t.Fatalf("replicas = %d, golden value %d (seed 1); if this change is"+
					" intentional, update the golden and re-run EXPERIMENTS.md",
					got, c.want)
			}
		})
	}
}

// Golden values measured at seed 1 on the pinned SplitMix64 stream; the
// deterministic LessLog/log-based points above need no constants because
// the even workload admits closed forms (2^k - 1 plateaus).
const (
	goldenRandomEven10k      = 787
	goldenLessLogLocality10k = 150
	goldenLessLogDead10k     = 149
)

// TestGoldenFigureCSVs pins Figures 5–8 byte-for-byte: the paper
// parameters must reproduce the committed results/figureN.csv exactly.
func TestGoldenFigureCSVs(t *testing.T) {
	p := PaperParams()
	for n := 5; n <= 8; n++ {
		id := fmt.Sprintf("figure%d", n)
		t.Run(id, func(t *testing.T) {
			fig, err := ByID(id, p)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, filepath.Join("..", "..", "results", id+".csv"), CSV(fig))
		})
	}
}

// TestGoldenExtensionTables pins every table `lesslog-bench -<name>`
// prints, byte-for-byte, in testdata/<name>.golden.
func TestGoldenExtensionTables(t *testing.T) {
	p := PaperParams()
	for _, e := range Extensions {
		t.Run(e.Name, func(t *testing.T) {
			got, err := e.Run(p)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, filepath.Join("testdata", e.Name+".golden"), got)
		})
	}
}

// checkGolden compares got with the file at path, or rewrites the file
// under -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("output differs from %s; if the change is intended, run"+
			" `go test ./internal/experiments -run Golden -update` and explain"+
			" the diff\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
