package loadsim_test

import (
	"fmt"

	"lesslog/internal/liveness"
	"lesslog/internal/loadsim"
	"lesslog/internal/replication"
	"lesslog/internal/workload"
)

// One point of the paper's Figure 5: 20,000 req/s spread evenly over
// 1024 nodes, balanced under the 100 req/s cap by the logless placement.
func Example() {
	live := liveness.NewAllLive(10, 1024)
	sim := loadsim.New(loadsim.Config{
		M: 10, Target: 4, Cap: 100,
		Live:  live,
		Rates: workload.Even(20000, live),
		Seed:  1,
	})
	res, err := loadsim.Balance(replication.LessLog{}, 0, sim)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("replicas=%d balanced=%v max-load=%.1f\n",
		res.ReplicasCreated, res.Balanced, res.Summary.MaxLoad)
	// Output: replicas=255 balanced=true max-load=78.1
}

// The §2.2 halving guarantee: one replication takes exactly half the
// overloaded root's load.
func ExampleSim_AddReplica() {
	live := liveness.NewAllLive(10, 1024)
	sim := loadsim.New(loadsim.Config{
		M: 10, Target: 4, Cap: 100,
		Live:  live,
		Rates: workload.Even(20000, live),
		Seed:  1,
	})
	before := sim.LoadOf(4)
	target, _ := (replication.LessLog{}).Place(sim, 4)
	sim.AddReplica(target)
	fmt.Printf("%.0f -> %.0f\n", before, sim.LoadOf(4))
	// Output: 20000 -> 10000
}
