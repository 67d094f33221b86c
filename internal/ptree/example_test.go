package ptree_test

import (
	"fmt"

	"lesslog/internal/bitops"
	"lesslog/internal/liveness"
	"lesslog/internal/ptree"
)

// The paper's §2.2 example: the children list of P(4) in a complete
// 16-node system.
func ExampleView_ExpandedChildrenList() {
	live := liveness.NewAllLive(4, 16)
	v := ptree.NewView(4, live, 0)
	fmt.Println(v.ExpandedChildrenList(4))

	// With P(0) and P(5) dead (the paper's Figure 3), dead children are
	// recursively replaced by their own children lists.
	live.SetDead(0)
	live.SetDead(5)
	fmt.Println(v.ExpandedChildrenList(4))
	// Output:
	// [5 6 0 12]
	// [6 7 1 12 13 8]
}

// The §2.1 routing chain: a request at P(8) for a file anchored at P(4)
// forwards P(8) → P(0) → P(4), one Next step per hop, and the walk ends
// at the root of the only subtree.
func ExampleView_Next() {
	live := liveness.NewAllLive(4, 16)
	v := ptree.NewView(4, live, 0)
	cur, st := bitops.PID(8), ptree.Route{Origin: 8}
	for {
		next, nst, act, ok := v.Next(cur, st)
		if !ok {
			break
		}
		fmt.Println(cur, act, next)
		cur, st = next, nst
	}
	// Output:
	// 8 forward 0
	// 0 forward 4
}

// FINDLIVENODE from §3: with the target P(4) and its best stand-in P(5)
// dead, the file's placement falls to P(6), the live node with the most
// offspring in P(4)'s lookup tree.
func ExampleView_FindLiveNode() {
	live := liveness.NewAllLive(4, 16)
	live.SetDead(4)
	live.SetDead(5)
	v := ptree.NewView(4, live, 0)
	p, ok := v.FindLiveNode(4)
	fmt.Println(p, ok)
	// Output: 6 true
}
