// Command bench is the repository's performance ledger (ISSUE 13): one
// fixed in-process fabric — 8 durable peers and a gateway — driven by one
// closed-loop client through four named workloads, with every payload
// verified, the same end-to-end metrics on every workload and a per-layer probe
// for every module on the request path. See README.md beside this file.
//
//	bash bench/run.sh --workload hot_4k --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload all --seconds 30 --trace 1 --out bench/out/a.jsonl
//	bash bench/run.sh -compare bench/out/a.jsonl bench/out/b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricValue is one metric on the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output: the driver's contract.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one workload run as appended to the -out file: the result plus
// everything needed to tell two runs apart.
type record struct {
	Commit     string                 `json:"commit"`
	GoVersion  string                 `json:"go_version"`
	NProc      int                    `json:"nproc"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	WALDir     string                 `json:"wal_dir"`
	WALFS      string                 `json:"wal_fs"`
	Seed       uint64                 `json:"seed"`
	Seconds    float64                `json:"seconds"`
	Trace      bool                   `json:"trace"`
	Workload   string                 `json:"workload"`
	Params     map[string]any         `json:"params"`
	Samples    map[string]int         `json:"samples"`
	TailQ      float64                `json:"tail_percentile"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Correct    bool                   `json:"correct"`
	Invalid    string                 `json:"invalid,omitempty"`
	WallS      float64                `json:"wall_s"`
	Metrics    map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run: hot_4k, cold_4k, mid_1m, bulk_32m or all")
		seed     = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", 30, "length of the measured window")
		trace    = flag.Int("trace", 0, "1 adds the traced pass and prints the per-layer metrics instead of the end-to-end ones")
		dataDir  = flag.String("data-dir", filepath.Join("bench", "out", "wal"), "parent of the peers' WAL directories")
		out      = flag.String("out", "", "append one run record per workload to this JSON-lines file")
		compare  = flag.Bool("compare", false, "compare two -out files of the same code: bench -compare A B")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two -out files"))
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	}
	run := specs
	if *workload != "all" {
		sp, ok := specByName(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		run = []spec{sp}
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	opt := options{
		seed: *seed, seconds: *seconds, trace: *trace != 0,
		dataDir: *dataDir, outDir: filepath.Join("bench", "out"),
	}
	if err := os.MkdirAll(opt.dataDir, 0o755); err != nil {
		fatal(err)
	}
	exit := 0
	for _, sp := range run {
		start := time.Now()
		res, err := runWorkload(sp, opt)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", sp.name, err))
		}
		rec := newRecord(sp, opt, res, time.Since(start))
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fatal(err)
			}
		}
		report(rec, res)
		if !rec.Correct {
			exit = 1
		}
	}
	os.Exit(exit)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// reported is the list a run prints: per-layer with -trace, else end-to-end.
func reported(trace bool) []metricDef {
	if trace {
		return perLayerMetrics
	}
	return endToEndMetrics
}

// newRecord attaches the run's provenance to its metrics.
func newRecord(sp spec, opt options, res *result, wall time.Duration) *record {
	rec := &record{
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		WALDir:     opt.dataDir,
		WALFS:      dirFS(opt.dataDir),
		Seed:       opt.seed,
		Seconds:    opt.seconds,
		Trace:      opt.trace,
		Workload:   sp.name,
		Params: map[string]any{
			"names": sp.names, "size": sp.size, "pool": sp.pool, "hot_share_of_names": sp.hot,
			"mix_get_update_insert_delete": sp.mix, "gateway_edge": sp.gatewayEdge,
			"clients": 1, "warmup_s": opt.warmup().Seconds(), "setups": res.setups,
			"peers": fabricPeers, "m": fabricM, "b": fabricB,
		},
		Samples:   map[string]int{},
		TailQ:     sp.tailQ,
		Attempted: res.attempted,
		Failed:    res.failed,
		Correct:   res.failed == 0,
		WallS:     wall.Seconds(),
		Metrics:   map[string]metricValue{},
	}
	for k, n := range res.samples {
		rec.Samples[opNames[k]] = n
	}
	// Two closed-loop clients already saturate a 2-core runner; past 0.8 of
	// the cores a 4 KiB latency is the scheduler's timeslice, not the program.
	util, limit := res.metrics["process.cpu_util"], 0.8*float64(runtime.NumCPU())
	if sp.size <= 4<<10 && util > limit {
		rec.Invalid = fmt.Sprintf("process.cpu_util %.2f > %.2f (0.8 x nproc)", util, limit)
	}
	// The record keeps every metric the run computed; the traced pass's are
	// missing from an untraced run.
	for _, d := range append(endToEndMetrics[:len(endToEndMetrics):len(endToEndMetrics)], perLayerMetrics...) {
		if v, ok := res.metrics[d.Name]; ok && !math.IsNaN(v) && !math.IsInf(v, 0) {
			rec.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		}
	}
	return rec
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown" // the driver's checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}

func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// report prints every metric by name with its unit on standard error and
// the contract's result line, last, on standard output.
func report(rec *record, res *result) {
	fmt.Fprintf(os.Stderr, "%s seed=%d window=%.0fs wal=%s: attempted=%d failed=%d tail=p%.0f wall=%.1fs\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.WALFS, rec.Attempted, rec.Failed, rec.TailQ*100, rec.WallS)
	for k, n := range res.samples {
		if n > 0 {
			fmt.Fprintf(os.Stderr, "  samples %-8s %d\n", opNames[k], n)
		}
	}
	for _, d := range reported(rec.Trace) {
		fmt.Fprintf(os.Stderr, "  %-36s %14.4f %s\n", d.Name, rec.Metrics[d.Name].Value, d.Unit)
	}
	if rec.Invalid != "" {
		fmt.Fprintf(os.Stderr, "  INVALID: %s\n", rec.Invalid)
	}
	if res.firstErr != nil {
		fmt.Fprintf(os.Stderr, "  first failure: %v\n", res.firstErr)
	}
	asked := map[string]metricValue{}
	for _, d := range reported(rec.Trace) {
		asked[d.Name] = metricValue{Value: rec.Metrics[d.Name].Value, Unit: d.Unit}
	}
	line, err := json.Marshal(resultLine{
		Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: asked,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}
