// Command lesslog-top is the fleet dashboard: it scrapes every peer's
// structured stat snapshot over the wire, merges the raw per-kind latency
// histograms into cluster-wide percentiles (quantiles do not add;
// bucket vectors do — internal/fleet), and reports replica spread,
// repair backlog, trace volume, and the fleet's hottest names by §6
// serve counters; see docs/OBSERVABILITY.md.
//
// Refreshing terminal view (default), one screen per interval:
//
//	lesslog-top -peers 127.0.0.1:7100,127.0.0.1:7101,127.0.0.1:7102
//
// One-shot modes for scripts and benchmarks:
//
//	lesslog-top -peers ... -once            # single rendered screen
//	lesslog-top -peers ... -json            # single merged snapshot as JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"lesslog/internal/fleet"
)

func main() {
	var (
		peers    = flag.String("peers", "", "comma-separated peer wire addresses to scrape (required)")
		interval = flag.Duration("interval", 2*time.Second, "refresh period of the terminal view")
		once     = flag.Bool("once", false, "render one screen and exit")
		jsonOut  = flag.Bool("json", false, "emit one merged snapshot as JSON and exit")
		topK     = flag.Int("top", 10, "hot names to rank")
	)
	flag.Parse()

	var addrs []string
	for _, a := range strings.Split(*peers, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		fatal(fmt.Errorf("-peers is required (comma-separated wire addresses)"))
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(fleet.Aggregate(fleet.Scrape(addrs), *topK)); err != nil {
			fatal(err)
		}
		return
	}
	if *once {
		fleet.Render(os.Stdout, fleet.Aggregate(fleet.Scrape(addrs), *topK))
		return
	}
	for {
		c := fleet.Aggregate(fleet.Scrape(addrs), *topK)
		// Clear screen + home, then one full frame — the classic top loop.
		fmt.Print("\x1b[2J\x1b[H")
		fmt.Printf("lesslog-top  %s  every %s\n\n", time.Now().Format("15:04:05"), *interval)
		fleet.Render(os.Stdout, c)
		time.Sleep(*interval)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lesslog-top:", err)
	os.Exit(1)
}
