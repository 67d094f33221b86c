// Command lesslog-sim runs a single load-balance simulation point with
// every knob exposed: the workload, the replication strategy, the dead
// fraction and the system parameters. It prints the replicas created and
// the final load distribution.
//
//	lesslog-sim -rate 20000 -strategy lesslog
//	lesslog-sim -rate 12000 -strategy random -dead 0.2 -locality
//	lesslog-sim -m 12 -b 2 -cap 50 -rate 5000 -verbose
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"lesslog/internal/bitops"
	"lesslog/internal/dynsim"
	"lesslog/internal/liveness"
	"lesslog/internal/loadsim"
	"lesslog/internal/metrics"
	"lesslog/internal/replication"
	"lesslog/internal/vis"
	"lesslog/internal/workload"
	"lesslog/internal/xrand"
)

func main() {
	var (
		m        = flag.Int("m", 10, "identifier width (2^m slots)")
		b        = flag.Int("b", 0, "fault-tolerance bits")
		target   = flag.Uint("target", 4, "popular file's target PID")
		cap      = flag.Float64("cap", 100, "per-node load cap, requests/second")
		rate     = flag.Float64("rate", 20000, "total incoming request rate")
		dead     = flag.Float64("dead", 0, "fraction of dead nodes")
		locality = flag.Bool("locality", false, "use the 80/20 locality workload")
		hotShare = flag.Float64("hot-share", 0.8, "locality: request share of the hot region")
		hotFrac  = flag.Float64("hot-frac", 0.2, "locality: node fraction of the hot region")
		strategy = flag.String("strategy", "lesslog", "replication strategy: lesslog, random or log-based")
		seed     = flag.Uint64("seed", 1, "random seed")
		verbose  = flag.Bool("verbose", false, "print the per-holder load distribution")

		dyn         = flag.Bool("dyn", false, "run a dynamic discrete-event scenario instead (§8)")
		dynNodes    = flag.Int("dyn-nodes", 256, "dynamic: initial live nodes")
		dynFiles    = flag.Int("dyn-files", 50, "dynamic: files inserted at t=0")
		dynReqRate  = flag.Float64("dyn-req-rate", 200, "dynamic: get arrivals per second")
		dynChurn    = flag.Float64("dyn-churn", 1, "dynamic: membership events per second")
		dynDuration = flag.Float64("dyn-duration", 120, "dynamic: virtual seconds to simulate")
		dynZipf     = flag.Float64("dyn-zipf", 1.0, "dynamic: file popularity skew")
	)
	flag.Parse()

	if *dyn {
		sc := dynsim.DefaultScenario()
		sc.M, sc.B = *m, *b
		sc.InitialNodes = *dynNodes
		sc.Files = *dynFiles
		sc.RequestRate = *dynReqRate
		sc.ChurnRate = *dynChurn
		sc.Duration = *dynDuration
		sc.ZipfS = *dynZipf
		sc.Seed = *seed
		res, err := dynsim.Run(sc)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("dynamic scenario (m=%d b=%d, %g virtual seconds):\n%s\n",
			sc.M, sc.B, sc.Duration, res)
		fmt.Printf("engine stats: %+v\n", res.Stats)
		if len(res.Windows) >= 2 {
			xs := make([]float64, len(res.Windows))
			avail := make([]float64, len(res.Windows))
			nodes := make([]float64, len(res.Windows))
			for i, w := range res.Windows {
				xs[i] = float64(w.At)
				avail[i] = w.Availability * 100
				nodes[i] = float64(w.Nodes)
			}
			fmt.Println(vis.Plot("per-window availability (%) and live nodes over time", xs,
				[]vis.Series{{Label: "availability %", Ys: avail}, {Label: "live nodes", Ys: nodes}},
				64, 12))
		}
		return
	}

	var strat replication.Strategy
	switch *strategy {
	case "lesslog":
		strat = replication.LessLog{}
	case "random":
		strat = replication.Random{}
	case "log-based":
		strat = replication.LogBased{}
	default:
		fatal(fmt.Errorf("unknown strategy %q", *strategy))
	}

	rng := xrand.New(*seed)
	live := liveness.NewAllLive(*m, bitops.Slots(*m))
	if *dead > 0 {
		killed := workload.KillRandom(live, *dead, bitops.PID(^uint32(0)), rng.Fork())
		fmt.Printf("killed %d of %d nodes\n", len(killed), bitops.Slots(*m))
	}
	var rates workload.Rates
	if *locality {
		rates = workload.Locality(*rate, *hotShare, *hotFrac, live, rng.Fork())
	} else {
		rates = workload.Even(*rate, live)
	}

	sim := loadsim.New(loadsim.Config{
		M: *m, B: *b, Target: bitops.PID(*target), Cap: *cap,
		Live: live, Rates: rates, Seed: rng.Uint64(),
	})
	fmt.Printf("initial: %s\n", sim.Summary())
	res, err := loadsim.Balance(strat, 0, sim)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("strategy=%s replicas=%d balanced=%v\n", res.Strategy, res.ReplicasCreated, res.Balanced)
	fmt.Printf("final: %s\n", res.Summary)

	if *verbose {
		loads := sim.Loads()
		holders := sim.Holders()
		sort.Slice(holders, func(i, j int) bool {
			a, b := holders[i], holders[j]
			return loads[a] > loads[b] || loads[a] == loads[b] && a < b
		})
		fmt.Println("\nper-holder serve rates (descending):")
		var samples []float64
		for _, h := range holders {
			fmt.Printf("  P(%4d)  %8.2f req/s\n", h, loads[h])
			samples = append(samples, loads[h])
		}
		q := metrics.Quantiles(samples, 0.5, 0.9, 0.99)
		fmt.Printf("load quantiles: p50=%.1f p90=%.1f p99=%.1f\n", q[0], q[1], q[2])
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lesslog-sim:", err)
	os.Exit(1)
}
