// Package loadsim is the analytic load-balance simulator behind the
// paper's evaluation (§6). It models the steady state of a LessLog system
// serving one popular file: every live node originates get requests at a
// fixed rate, each request walks the file's lookup tree toward the target
// along live ancestors and is served by the first node holding a copy
// (falling back to the FINDLIVENODE primary when the walk ends at a dead
// root, §3), and a node serving more than the load cap is overloaded.
//
// Balance repeatedly lets the most-overloaded holder place one replica via
// a replication.Strategy until no holder exceeds the cap, counting the
// replicas created — exactly the quantity Figures 5–8 plot. Several hot
// files are several Sims over one liveness set: a node's load is the sum
// over files, and Balance sheds the overloaded node's hottest file first.
//
// Queue turns a placement into response times: Poisson arrivals at every
// origin, served FIFO by the holder the same routing picks (see queue.go).
package loadsim

import (
	"errors"
	"fmt"
	"sort"

	"lesslog/internal/bitops"
	"lesslog/internal/liveness"
	"lesslog/internal/metrics"
	"lesslog/internal/msg"
	"lesslog/internal/ptree"
	"lesslog/internal/replication"
	"lesslog/internal/workload"
	"lesslog/internal/xrand"
)

// Config parameterizes one simulation.
type Config struct {
	M      int            // identifier width; 2^M slots
	B      int            // fault-tolerance bits (0 in the paper's figures)
	Target bitops.PID     // ψ(f), the popular file's target node
	Cap    float64        // overload threshold in req/s (paper: 100)
	Live   *liveness.Set  // node liveness; not modified
	Rates  workload.Rates // per-origin request rates
	Seed   uint64         // randomness for strategies
}

// Sim is the mutable simulation state. It implements replication.Context.
// Every per-node table is a slice indexed by PID.
type Sim struct {
	cfg  Config
	view ptree.View
	rng  *xrand.Rand

	copies    []bool
	primaries []bitops.PID // one per subtree that has any live node

	loads []float64 // serve rate; zero off the holders
	// forwarded is the rate each node passes to its server as the last
	// live hop: the server is the node's first live ancestor, so one entry
	// per node is the whole (holder, child) table.
	forwarded []float64
	hopRate   float64 // sum over origins of rate × hops to the server
	dirty     bool
}

// New builds a simulation with the primary copies already inserted by
// ADVANCEDINSERTFILE: in each of the 2^B subtrees, the live node
// FINDLIVENODE selects. Subtrees with no live node hold no copy.
func New(cfg Config) *Sim {
	bitops.CheckSplit(cfg.M, cfg.B)
	if cfg.Live.M() != cfg.M {
		panic("loadsim: liveness width mismatch")
	}
	if len(cfg.Rates) != bitops.Slots(cfg.M) {
		panic("loadsim: rates length mismatch")
	}
	n := bitops.Slots(cfg.M)
	s := &Sim{
		cfg:       cfg,
		view:      ptree.NewView(cfg.Target, cfg.Live, cfg.B),
		rng:       xrand.New(cfg.Seed),
		copies:    make([]bool, n),
		loads:     make([]float64, n),
		forwarded: make([]float64, n),
		dirty:     true,
	}
	s.primaries = s.view.AppendPrimaries(nil)
	for _, p := range s.primaries {
		s.copies[p] = true
	}
	return s
}

// View implements replication.Context.
func (s *Sim) View() ptree.View { return s.view }

// HasCopy implements replication.Context.
func (s *Sim) HasCopy(p bitops.PID) bool { return s.copies[p] }

// Rand implements replication.Context.
func (s *Sim) Rand() *xrand.Rand { return s.rng }

// ForwardedLoad implements replication.Context: the request rate entering
// holder through child as the last live hop before holder.
func (s *Sim) ForwardedLoad(holder, child bitops.PID) float64 {
	s.recompute()
	if anc, ok := s.view.AliveAncestor(child); !ok || anc != holder {
		return 0
	}
	return s.forwarded[child]
}

// Primaries returns the nodes holding the initially inserted copies.
func (s *Sim) Primaries() []bitops.PID { return append([]bitops.PID(nil), s.primaries...) }

// Holders returns the current copy holders (primaries plus replicas) in
// ascending PID order.
func (s *Sim) Holders() []bitops.PID {
	var out []bitops.PID
	for p, ok := range s.copies {
		if ok {
			out = append(out, bitops.PID(p))
		}
	}
	return out
}

// AddReplica places a copy at p. It panics if p is dead — replicas only
// ever land on live nodes.
func (s *Sim) AddReplica(p bitops.PID) {
	if !s.cfg.Live.IsLive(p) {
		panic(fmt.Sprintf("loadsim: replica on dead node P(%d)", p))
	}
	s.copies[p] = true
	s.dirty = true
}

// RemoveReplica drops the copy at p unless p holds a primary. It reports
// whether a copy was removed.
func (s *Sim) RemoveReplica(p bitops.PID) bool {
	if s.isPrimary(p) || !s.copies[p] {
		return false
	}
	s.copies[p] = false
	s.dirty = true
	return true
}

// SetRates swaps the per-origin request rates, modeling a workload shift
// (the eviction experiment's rate collapse). The slice length must match
// the identifier space.
func (s *Sim) SetRates(r workload.Rates) {
	if len(r) != bitops.Slots(s.cfg.M) {
		panic("loadsim: rates length mismatch")
	}
	s.cfg.Rates = r
	s.dirty = true
}

// Loads returns the per-holder serve rates, one entry per holder.
func (s *Sim) Loads() map[bitops.PID]float64 {
	s.recompute()
	out := make(map[bitops.PID]float64)
	for p, ok := range s.copies {
		if ok {
			out[bitops.PID(p)] = s.loads[p]
		}
	}
	return out
}

// LoadOf returns one holder's serve rate.
func (s *Sim) LoadOf(p bitops.PID) float64 {
	s.recompute()
	return s.loads[p]
}

// Summary returns the current load summary.
func (s *Sim) Summary() metrics.LoadSummary {
	s.recompute()
	return summarize([]*Sim{s}, s.loads, s.cfg.Cap)
}

// summarize summarizes loads over every node holding a copy of some file.
func summarize(files []*Sim, loads []float64, cap float64) metrics.LoadSummary {
	l := make(map[uint32]float64)
	for p, v := range loads {
		for _, f := range files {
			if f.copies[p] {
				l[uint32(p)] = v
				break
			}
		}
	}
	return metrics.SummarizeLoads(l, cap)
}

// recompute routes every origin's rate to its serving holder, rebuilding
// the load and forwarded-rate tables. Cost O(live · depth).
func (s *Sim) recompute() {
	if !s.dirty {
		return
	}
	clear(s.loads)
	clear(s.forwarded)
	s.hopRate = 0
	s.cfg.Live.ForEachLive(func(origin bitops.PID) {
		rate := s.cfg.Rates[origin]
		if rate == 0 {
			return
		}
		server, prev, hops := s.route(origin)
		s.loads[server] += rate
		s.hopRate += rate * float64(hops)
		if prev != server {
			s.forwarded[prev] += rate
		}
	})
	s.dirty = false
}

// route returns the holder serving a request from origin, the last live
// node visited before it (== server when the origin itself is served
// directly or the request arrived by a FINDLIVENODE or §4 jump rather than
// a live-ancestor hop), and the number of forwarding hops taken: the loop
// of ptree.View.Next until a stop holds a copy.
func (s *Sim) route(origin bitops.PID) (server, prev bitops.PID, hops int) {
	server, prev = origin, origin
	for st := (ptree.Route{Origin: origin}); !s.copies[server]; hops++ {
		next, nst, act, ok := s.view.Next(server, st)
		if !ok {
			// Every live subtree holds its primary copy; unreachable for
			// origins, which are live by construction.
			panic("loadsim: no copy reachable from the origin")
		}
		prev, server, st = server, next, nst
		if act != msg.HopForward {
			prev = server
		}
	}
	return server, prev, hops
}

// MeanHops returns the rate-weighted mean number of forwarding hops a
// request takes to reach its serving holder under the current replica
// placement. Replication shortens paths as a side effect of shedding
// load; the HopsVsReplicas extension experiment plots this.
func (s *Sim) MeanHops() float64 {
	s.recompute()
	total := s.cfg.Rates.Total()
	if total == 0 {
		return 0
	}
	return s.hopRate / total
}

// Result reports the outcome of Balance. Summary is over each node's load
// summed across the balanced files.
type Result struct {
	Strategy        string
	ReplicasCreated int
	Balanced        bool
	Summary         metrics.LoadSummary
}

// ErrStuck is returned when the strategy cannot place a replica while a
// holder is still overloaded.
var ErrStuck = errors.New("loadsim: strategy has no candidate but system is overloaded")

// ErrBudget is returned when maxReplicas placements did not balance the
// system.
var ErrBudget = errors.New("loadsim: replica budget exhausted before balance")

// Balance drives one or more files' simulators, which share the per-node
// cap, to a load-balanced state: while some node serves more than the cap
// in total, the most-overloaded node (ties toward the lowest PID) places
// one replica of its hottest file there (ties toward the earlier file),
// chosen by the strategy on that file's simulator. It returns the number
// of replicas created. maxReplicas <= 0 means one per identifier slot per
// file, the natural ceiling.
//
// A node whose strategy has no candidate left for any of its files (its
// children lists are saturated) is set aside and the next overloaded node
// acts, exactly as the paper's REPLICATEFILE stops "until P(r) is not
// overloaded" runs out of list entries. When every overloaded node is
// saturated — possible only when some node's own request origination
// exceeds the cap — Balance returns the replicas created so far together
// with ErrStuck and Balanced=false: the system is as balanced as
// replication can make it.
func Balance(strategy replication.Strategy, maxReplicas int, files ...*Sim) (Result, error) {
	cfg := files[0].cfg // every file shares the first one's M and Cap
	if maxReplicas <= 0 {
		maxReplicas = bitops.Slots(cfg.M) * len(files)
	}
	res := Result{Strategy: strategy.Name()}
	saturated := make([]bool, bitops.Slots(cfg.M))
	for {
		loads := nodeLoads(files)
		over, ok := mostOverloaded(loads, cfg.Cap, saturated)
		if !ok {
			res.Summary = summarize(files, loads, cfg.Cap)
			if _, stillOver := mostOverloaded(loads, cfg.Cap, nil); stillOver {
				return res, ErrStuck
			}
			res.Balanced = true
			return res, nil
		}
		if res.ReplicasCreated >= maxReplicas {
			res.Summary = summarize(files, loads, cfg.Cap)
			return res, ErrBudget
		}
		f, target, ok := place(strategy, files, over)
		if !ok {
			saturated[over] = true
			continue
		}
		if f.copies[target] {
			res.Summary = summarize(files, loads, cfg.Cap)
			return res, fmt.Errorf("loadsim: %s placed a duplicate copy at P(%d)", strategy.Name(), target)
		}
		f.AddReplica(target)
		res.ReplicasCreated++
		// A new copy can relieve a saturated node's load; re-examine.
		clear(saturated)
	}
}

// place asks the strategy for a replica of each file over holds, hottest
// file first, and returns the first file with a candidate.
func place(strategy replication.Strategy, files []*Sim, over bitops.PID) (*Sim, bitops.PID, bool) {
	held := make([]*Sim, 0, len(files))
	for _, f := range files {
		if f.copies[over] && f.LoadOf(over) > 0 {
			held = append(held, f)
		}
	}
	sort.SliceStable(held, func(i, j int) bool { return held[i].LoadOf(over) > held[j].LoadOf(over) })
	for _, f := range held {
		if target, ok := strategy.Place(f, over); ok {
			return f, target, true
		}
	}
	return nil, 0, false
}

// nodeLoads returns each node's serve rate summed over the files, file by
// file. With one file it is that file's own table, shared.
func nodeLoads(files []*Sim) []float64 {
	for _, f := range files {
		f.recompute()
	}
	if len(files) == 1 {
		return files[0].loads
	}
	sum := make([]float64, len(files[0].loads))
	for _, f := range files {
		for p, l := range f.loads {
			sum[p] += l
		}
	}
	return sum
}

// mostOverloaded returns the node with the highest load above the cap
// that is not in skip (nil skips none), ties broken toward the lowest PID.
func mostOverloaded(loads []float64, cap float64, skip []bool) (bitops.PID, bool) {
	var best bitops.PID
	bestLoad := cap
	found := false
	for p, l := range loads {
		if l > bestLoad && (skip == nil || !skip[p]) {
			best, bestLoad, found = bitops.PID(p), l, true
		}
	}
	return best, found
}

// EvenSplit builds k simulators sharing total evenly — the standard
// multi-file workload. File i is base with target (4 + i·stride) mod 2^M,
// stride = max(1, 2^M/k), and seed base.Seed + i·0x9e37.
func EvenSplit(base Config, k int, total float64) []*Sim {
	if k < 1 {
		panic("loadsim: need at least one file")
	}
	slots := bitops.Slots(base.M)
	stride := max(slots/k, 1)
	files := make([]*Sim, k)
	for i := range files {
		cfg := base
		cfg.Target = bitops.PID((i*stride + 4) % slots)
		cfg.Rates = workload.Even(total/float64(k), base.Live)
		cfg.Seed = base.Seed + uint64(i)*0x9e37
		files[i] = New(cfg)
	}
	return files
}

// EvictCold implements the §6 counter-based removal mechanism at the rate
// level: replicas serving strictly less than minRate are removed, coldest
// first, as long as removing them keeps every holder at or below the cap.
// It returns the number of replicas removed.
func (s *Sim) EvictCold(minRate float64) int {
	removed := 0
	for {
		s.recompute()
		// Candidates this pass: non-primary holders below the rate
		// threshold, coldest first (ties toward lower PID).
		var cands []bitops.PID
		for p, l := range s.loads {
			if s.copies[p] && !s.isPrimary(bitops.PID(p)) && l < minRate {
				cands = append(cands, bitops.PID(p))
			}
		}
		sort.Slice(cands, func(i, j int) bool {
			li, lj := s.loads[cands[i]], s.loads[cands[j]]
			if li != lj {
				return li < lj
			}
			return cands[i] < cands[j]
		})
		progressed := false
		for _, p := range cands {
			if s.LoadOf(p) >= minRate { // may have warmed up after removals
				continue
			}
			s.RemoveReplica(p)
			s.recompute()
			if _, over := mostOverloaded(s.loads, s.cfg.Cap, nil); over {
				s.AddReplica(p) // roll back: removal would overload
				continue
			}
			removed++
			progressed = true
		}
		if !progressed {
			return removed
		}
	}
}

func (s *Sim) isPrimary(p bitops.PID) bool {
	for _, pr := range s.primaries {
		if pr == p {
			return true
		}
	}
	return false
}
