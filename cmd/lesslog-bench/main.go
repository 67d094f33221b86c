// Command lesslog-bench regenerates the paper's evaluation figures
// (Huang, Huang, Chou, "LessLog", IPDPS 2004, §6): the number of replicas
// each replication method creates to reach a load-balanced state.
//
//	lesslog-bench                 # all four figures, text tables
//	lesslog-bench -figure 5       # one figure
//	lesslog-bench -format csv     # machine-readable output
//	lesslog-bench -outdir results # also write figure<N>.csv files
//	lesslog-bench -evict          # the §6 counter-based removal demo
//	lesslog-bench -trials 5       # average more seeds per point
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"lesslog/internal/experiments"
	"lesslog/internal/vis"
)

func main() {
	var (
		figure  = flag.String("figure", "all", "figure to regenerate: 5, 6, 7, 8 or all")
		format  = flag.String("format", "table", "output format: table, csv or markdown")
		outdir  = flag.String("outdir", "", "directory to also write figure<N>.csv files into")
		trials  = flag.Int("trials", 3, "seeds averaged per sweep point")
		seed    = flag.Uint64("seed", 1, "base random seed")
		rateMin = flag.Float64("rate-min", 1000, "sweep start, requests/second")
		rateMax = flag.Float64("rate-max", 20000, "sweep end, requests/second")
		step    = flag.Float64("rate-step", 1000, "sweep step, requests/second")
		plot    = flag.Bool("plot", false, "also draw each figure as an ASCII chart")
	)
	extensions := make([]*bool, len(experiments.Extensions))
	for i, e := range experiments.Extensions {
		extensions[i] = flag.Bool(e.Name, false, e.Usage)
	}
	flag.Parse()

	p := experiments.PaperParams()
	p.Trials = *trials
	p.Seed = *seed
	p.RateMin, p.RateMax, p.RateStep = *rateMin, *rateMax, *step

	for i, e := range experiments.Extensions {
		if !*extensions[i] {
			continue
		}
		out, err := e.Run(p)
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
		return
	}

	ids := []string{"5", "6", "7", "8"}
	if *figure != "all" {
		ids = []string{*figure}
	}
	for _, id := range ids {
		fig, err := experiments.ByID(id, p)
		if err != nil {
			fatal(err)
		}
		switch *format {
		case "table":
			fmt.Println(experiments.Table(fig))
		case "csv":
			fmt.Println(experiments.CSV(fig))
		case "markdown":
			fmt.Println(experiments.Markdown(fig))
		default:
			fatal(fmt.Errorf("unknown format %q", *format))
		}
		if *plot {
			series := make([]vis.Series, len(fig.Series))
			for i, s := range fig.Series {
				series[i] = vis.Series{Label: s.Label, Ys: s.Replicas}
			}
			fmt.Println(vis.Plot(fig.Title+" (replicas vs req/s)", fig.Rates, series, 64, 16))
		}
		if *outdir != "" {
			if err := os.MkdirAll(*outdir, 0o755); err != nil {
				fatal(err)
			}
			path := filepath.Join(*outdir, fig.ID+".csv")
			if err := os.WriteFile(path, []byte(experiments.CSV(fig)), 0o644); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lesslog-bench:", err)
	os.Exit(1)
}
