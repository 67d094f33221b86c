// Loadbalance: reproduce the paper's core claim live — each logless
// replication halves the overloaded node's serve load under an even
// request distribution (§2.2), and repeated window-based replication
// drives a hot file to a balanced state without any client-access logs.
package main

import (
	"fmt"
	"log"

	"lesslog"
)

func main() {
	// The paper's evaluation scale: m = 10, 1024 nodes (§6).
	sys, err := lesslog.New(lesslog.Options{M: 10, InitialNodes: 1024, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	const name = "flashcrowd/video.mpg"
	ins, err := sys.Insert(0, name, []byte("hot content"))
	if err != nil {
		log.Fatal(err)
	}
	target := ins.Target
	fmt.Printf("popular file anchored at P(%d)\n", target)

	// One observation window = one get from every node (1024 req).
	window := func() {
		for p := lesslog.PID(0); p < 1024; p++ {
			if _, err := sys.Get(p, name); err != nil {
				log.Fatal(err)
			}
		}
	}

	// Watch the halving: the hottest holder's serve count after each
	// replication round, against the paper's 100-requests cap.
	const cap = 100
	window()
	fmt.Printf("%-8s%-10s%-10s\n", "round", "holders", "max-load")
	for round := 0; ; round++ {
		maxLoad, holders := uint64(0), sys.HoldersOf(name)
		for _, h := range holders {
			if c := sys.ServeCount(h, name); c > maxLoad {
				maxLoad = c
			}
		}
		fmt.Printf("%-8d%-10d%-10d\n", round, len(holders), maxLoad)
		// Closing the window: every overloaded holder sheds once, loglessly.
		placed, _ := sys.Maintain(cap, 0)
		if maxLoad <= cap {
			fmt.Println("load balanced: no holder above the cap")
			break
		}
		if len(placed) == 0 {
			log.Fatal("overloaded but nothing replicated")
		}
		window()
	}

	// The flash crowd passes: a quiet window plus the counter-based
	// mechanism removes the now-cold replicas (§6).
	for p := lesslog.PID(0); p < 1024; p += 16 { // 64 requests only
		sys.Get(p, name)
	}
	_, evicted := sys.Maintain(cap, 2)
	fmt.Printf("flash crowd over: evicted %d cold replicas, %d holders remain\n",
		evicted, len(sys.HoldersOf(name)))
}
