package experiments

// An Extension is one table `lesslog-bench` prints instead of the figures,
// selected by the boolean flag of the same name. Run holds the arguments
// the command uses, so the printed table and its golden file under
// testdata/ come from one call.
type Extension struct {
	Name  string // the lesslog-bench flag
	Usage string // the flag's help text
	Run   func(p Params) (string, error)
}

// Extensions lists every extension table in the order lesslog-bench
// checks its flags; the first flag set wins.
var Extensions = []Extension{
	{"evict", "run the counter-based eviction demonstration instead", func(p Params) (string, error) {
		pts, err := Eviction(p, []float64{5000, 10000, 20000}, 2000, 20)
		return EvictionTable(pts, 2000), err
	}},
	{"hops", "run the LessLog/Chord/CAN lookup-hop comparison instead", func(p Params) (string, error) {
		return HopTable(HopComparison(10, 5000, p.Seed), 10), nil
	}},
	{"churn", "run the availability-under-churn extension instead", func(p Params) (string, error) {
		rows, err := ChurnTable([]int{0, 1, 2}, []float64{0.5, 1, 2, 4}, p.Seed)
		return ChurnTableString(rows), err
	}},
	{"sensitivity", "run the system-size sensitivity sweep instead", func(p Params) (string, error) {
		rows, err := SensitivityM([]int{6, 7, 8, 9, 10, 11, 12}, 10, 100, p.Seed)
		return SensitivityTable(rows, 10, 100), err
	}},
	{"pathlen", "run the hops-vs-replicas extension instead", func(p Params) (string, error) {
		pts, err := HopsVsReplicas(p, 20000, 32)
		return HopsVsReplicasTable(pts), err
	}},
	{"multifile", "run the multi-hot-file extension instead", func(p Params) (string, error) {
		rows, err := MultiFile(p, 20000, []int{1, 2, 4, 8, 16, 32})
		return MultiFileTable(rows, 20000), err
	}},
	{"logcost", "run the client-access-log footprint comparison instead", func(p Params) (string, error) {
		rows, err := LogOverhead(p, []int{1000, 5000, 20000, 100000}, 1<<22)
		return LogOverheadTable(rows), err
	}},
	{"updatecost", "run the update-broadcast cost sweep instead", func(p Params) (string, error) {
		rows, err := UpdateCost(p, 8)
		return UpdateCostTable(rows), err
	}},
	{"flash", "run the flash-crowd time-to-balance dynamics instead", func(p Params) (string, error) {
		rows, err := FlashCrowd(p, 12, 4, 100)
		return FlashCrowdTable(rows, 100), err
	}},
	{"ftcost", "run the fault-tolerance-degree cost sweep instead", func(p Params) (string, error) {
		rows, err := FTCost(p, 20000, []int{0, 1, 2, 3, 4})
		return FTCostTable(rows, 20000), err
	}},
	{"latency", "run the queueing-latency comparison instead", func(p Params) (string, error) {
		rows, err := Latency(p, []float64{80, 150, 300, 600}, 0.001)
		return LatencyTable(rows), err
	}},
}
