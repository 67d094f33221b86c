package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"lesslog/internal/transport"
)

// span is one timed interval of the traced pass. The harness records them
// around its own calls into each layer; spans inside the program are a
// later change.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: the span is an op's root
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the depth's replay began
	End    int64  `json:"end_ns"`
}

// spanLog keeps one depth's spans in memory until the run ends.
type spanLog struct {
	t0    time.Time
	ops   int
	spans []span
	names [opKinds]struct{ root, call string }
}

func newSpanLog(depth string, ops int) *spanLog {
	l := &spanLog{t0: time.Now(), spans: make([]span, 0, 4*ops)}
	for k, kind := range opNames {
		l.names[k].root, l.names[k].call = "op."+kind, depth+"."+kind
	}
	return l
}

// op records one op's spans: a root for the whole iteration and, inside it,
// the untimed preparation, the timed call into the depth, and verification.
func (l *spanLog) op(kind int, start, callStart, callEnd, end time.Time) {
	l.ops++
	root := len(l.spans) + 1
	add := func(parent int, name string, a, b time.Time) {
		l.spans = append(l.spans, span{
			ID: len(l.spans) + 1, Parent: parent, Op: l.ops, Name: name,
			Start: int64(a.Sub(l.t0)), End: int64(b.Sub(l.t0)),
		})
	}
	add(0, l.names[kind].root, start, end)
	add(root, "prepare", start, callStart)
	add(root, l.names[kind].call, callStart, callEnd)
	add(root, "verify", callEnd, end)
}

// depthResult is one entry depth's replay in the span file.
type depthResult struct {
	Depth    string             `json:"depth"`
	Ops      int                `json:"ops"`
	Failed   int                `json:"failed"`
	MedianUS map[string]float64 `json:"median_us"`
	// LocateShare and CachedShare are the shares of the depth's ops that paid
	// a locate walk and that a cache answered; Child is the depth the median
	// op passes through next (none when a cache answers it, the holder when
	// warm hints spare it the walk). A depth's self time is its median minus
	// its child's, and OnPath marks the chain that starts at the client.
	LocateShare map[string]float64 `json:"locate_share"`
	CachedShare map[string]float64 `json:"cached_share"`
	Child       map[string]string  `json:"child"`
	OnPath      map[string]bool    `json:"on_median_path"`
	SelfUS      map[string]float64 `json:"self_us"`
	Spans       []span             `json:"spans"`
}

type traceFile struct {
	Workload string        `json:"workload"`
	Seed     uint64        `json:"seed"`
	Depths   []depthResult `json:"depths"`
	// SelfSumRatio is the on-path self times' sum over the client depth's
	// median, per op kind: 1 when the split accounts for the whole latency.
	SelfSumRatio map[string]float64 `json:"self_sum_ratio"`
}

// depthBudget caps one depth's replay as a share of -seconds. The traced
// run measures an untraced window of half that length first, so it takes
// about as long as an untraced run; at -seconds 60 every workload replays
// its full traceOps.
const depthBudget = 0.1

// tracedPass replays the workload's generator once per entry depth on the
// live fabric, then runs the isolated layer probes, and writes the spans.
func tracedPass(res *result, st *state, f *fabric, c *client, opt options) error {
	sp := st.spec
	tr := transport.New(transport.Config{}, nil)
	defer tr.Close()
	entries := f.peerAddrs()
	if !sp.gatewayEdge {
		entries = entries[:1]
	}
	// Order matters: the depths below the gateway write past its cache, so
	// nothing may read through the gateway after them.
	type depth struct {
		name string
		edge edge
	}
	depths := []depth{{"client", c.edge}}
	if sp.gatewayEdge {
		depths = append(depths, depth{"gateway", gatewayEdge{f.gw}})
	}
	depths = append(depths,
		depth{"netnode", newNetnodeEdge(entries, tr)},
		depth{"holder", newHolderEdge(entries[0], tr)})

	budget := time.Duration(opt.seconds * depthBudget * float64(time.Second))
	file := traceFile{Workload: sp.name, Seed: opt.seed, SelfSumRatio: map[string]float64{}}
	for i, d := range depths {
		// Each depth continues the generator instead of repeating the last
		// depth's names, which would find the caches above it freshly filled.
		ops := st.genOps(phaseTrace+uint64(i), sp.traceOps+sp.traceOps/10)
		// A tenth more ops go first, unrecorded: a new edge dials its
		// connections and the runtime parks its goroutines on them.
		runLoop(st, d.edge, ops[sp.traceOps:], budget/10, newWindow(sp, 0), nil)
		ops = ops[:sp.traceOps]
		log := newSpanLog(d.name, len(ops))
		w := newWindow(sp, len(ops))
		runLoop(st, d.edge, ops, budget, w, log)
		res.attempted += w.attempted
		res.failed += w.failed
		if res.firstErr == nil && w.firstErr != nil {
			res.firstErr = fmt.Errorf("%s depth: %w", d.name, w.firstErr)
		}
		dr := depthResult{
			Depth: d.name, Ops: w.attempted, Failed: w.failed, Spans: log.spans,
			MedianUS: map[string]float64{}, LocateShare: map[string]float64{}, CachedShare: map[string]float64{},
			Child: map[string]string{}, OnPath: map[string]bool{}, SelfUS: map[string]float64{},
		}
		_, routes := d.edge.(router)
		for k, lat := range w.lat {
			if len(lat) == 0 {
				continue
			}
			kind := opNames[k]
			dr.MedianUS[kind] = quantileMS(lat, 0.5) * 1e3
			dr.LocateShare[kind] = ratio(float64(w.located[k]), float64(len(lat)))
			dr.CachedShare[kind] = ratio(float64(w.cached[k]), float64(len(lat)))
			switch {
			case d.name == "holder" || dr.CachedShare[kind] > 0.5:
			case d.name == "netnode" || routes && dr.LocateShare[kind] <= 0.5:
				dr.Child[kind] = "holder"
			case routes:
				dr.Child[kind] = "netnode"
			default:
				dr.Child[kind] = depths[i+1].name
			}
		}
		file.Depths = append(file.Depths, dr)
		if d.name == "client" {
			traced := float64(w.ok()) / w.elapsed().Seconds()
			res.metrics["process.trace_overhead_pct"] = 100 * (1 - ratio(traced, res.metrics["client.ops_per_s"]))
		}
	}
	for _, kind := range []string{"get", "update"} {
		file.SelfSumRatio[kind] = splitSelf(file.Depths, kind)
	}
	for _, kind := range []string{"get", "update"} {
		res.metrics["gateway."+kind+"_self_us"] = 0 // no gateway depth on a locate workload
	}
	for _, dr := range file.Depths {
		for _, kind := range []string{"get", "update"} {
			if dr.Depth != "holder" {
				res.metrics[dr.Depth+"."+kind+"_self_us"] = dr.SelfUS[kind]
			}
		}
		if dr.Depth == "holder" {
			res.metrics["stream.fetch_ms"] = dr.MedianUS["get"] / 1e3
			res.metrics["holder.update_ms"] = dr.MedianUS["update"] / 1e3
		}
	}
	if err := probeLayers(res.metrics, st, f, tr, opt); err != nil {
		return err
	}
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(file)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(opt.outDir, "trace_"+sp.name+".json"), data, 0o644)
}

// splitSelf fills each depth's self time for one op kind — its median minus
// its child's, not below zero — and returns the sum of the self times along
// the client depth's median path over that depth's median: 1 when the split
// accounts for the whole latency, more when a depth is slower than the one
// that contains it (two ladders doing one job at different speeds).
func splitSelf(depths []depthResult, kind string) float64 {
	byName := map[string]*depthResult{}
	for i := range depths {
		byName[depths[i].Depth] = &depths[i]
	}
	for i := range depths {
		d := &depths[i]
		med, ok := d.MedianUS[kind]
		if !ok {
			continue
		}
		if child := byName[d.Child[kind]]; child != nil {
			med = max(0, med-child.MedianUS[kind])
		}
		d.SelfUS[kind] = med
	}
	var sum float64
	for d := &depths[0]; d != nil; d = byName[d.Child[kind]] {
		d.OnPath[kind] = true
		sum += d.SelfUS[kind]
	}
	return ratio(sum, depths[0].MedianUS[kind])
}
