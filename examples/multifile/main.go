// Multifile: several files go hot at once. Each node's overload check
// looks only at its own serve counters — no coordination, no logs — yet
// the per-file children-list placements compose into a balanced system.
package main

import (
	"fmt"
	"log"
	"sort"

	"lesslog"
)

func main() {
	sys, err := lesslog.New(lesslog.Options{M: 9, InitialNodes: 512, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	// Four files with very different popularity.
	demand := map[string]int{ // gets per node per window, scaled by file
		"videos/blockbuster.mpg": 2,
		"news/frontpage.html":    1,
		"music/hit-single.mp3":   1,
		"docs/manual.pdf":        0, // cold: only every 8th node asks
	}
	for name := range demand {
		if _, err := sys.Insert(0, name, []byte(name)); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-24s anchored at P(%d)\n", name, sys.Target(name))
	}

	// Observation windows: issue the demand, replicate over threshold.
	const cap = 100
	window := func() {
		for p := lesslog.PID(0); p < 512; p++ {
			for name, times := range demand {
				n := times
				if n == 0 && p%8 == 0 {
					n = 1
				}
				for i := 0; i < n; i++ {
					if _, err := sys.Get(p, name); err != nil {
						log.Fatal(err)
					}
				}
			}
		}
	}
	names := make([]string, 0, len(demand))
	for name := range demand {
		names = append(names, name)
	}
	sort.Strings(names)

	for round := 0; round < 8; round++ {
		window()
		over := 0
		for _, name := range names {
			for _, h := range sys.HoldersOf(name) {
				if sys.ServeCount(h, name) > cap {
					over++
				}
			}
		}
		placed, _ := sys.Maintain(cap, 0)
		fmt.Printf("window %d: placed %d replicas, %d holders still over the cap\n",
			round, len(placed), over)
		if len(placed) == 0 && over == 0 {
			break
		}
	}
	fmt.Println("\nfinal replica populations:")
	for _, name := range names {
		fmt.Printf("%-24s %3d holders\n", name, len(sys.HoldersOf(name)))
	}
}
