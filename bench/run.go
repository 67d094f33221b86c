package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"lesslog/internal/netnode"
	"lesslog/internal/routehint"
	"lesslog/internal/transport"
)

// Phases of a run; each draws its op stream from its own generator.
const (
	phaseWarm = iota + 1
	phaseWindow
	phaseTrace
)

type options struct {
	seed    uint64
	seconds float64
	trace   bool
	dataDir string
	outDir  string
}

// warmup is the discarded lead-in: a quarter of the window, 5 s at most.
func (o options) warmup() time.Duration {
	return min(5*time.Second, o.window()/4)
}

// window is the measured window: -seconds, or half of it when the traced
// pass takes the other half.
func (o options) window() time.Duration {
	d := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		d /= 2
	}
	return d
}

// client is the workload's own edge and what the layer probes read off it.
type client struct {
	edge  edge
	tr    *transport.Transport // locate workloads: the client's transport
	nn    *netnode.Client      // locate workloads
	hints *routehint.Cache     // locate workloads
	conn  *netnode.Conn        // gateway workloads
}

func dialClient(sp spec, f *fabric) (*client, error) {
	if sp.gatewayEdge {
		conn, err := netnode.DialConn(f.srv.Addr())
		if err != nil {
			return nil, fmt.Errorf("dial gateway: %w", err)
		}
		return &client{edge: &connEdge{c: conn}, conn: conn}, nil
	}
	c := &client{tr: transport.New(transport.Config{}, nil), hints: routehint.New(0, 0)}
	c.nn = netnode.NewLocateClientWith(f.peers[0].Addr(), c.tr, netnode.LocateOptions{Hints: c.hints})
	c.edge = clientEdge{c.nn}
	return c, nil
}

func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
	}
	if c.tr != nil {
		c.tr.Close()
	}
}

// setUp starts the fabric and inserts every name, one worker per payload
// variant (at most eight at once). It is what setup_s times.
func setUp(st *state, dataDir string) (*fabric, error) {
	f, err := startFabric(dataDir)
	if err != nil {
		return nil, err
	}
	clear(st.seq)
	workers := len(st.variants)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := dialClient(st.spec, f)
			if err != nil {
				errs[w] = err
				return
			}
			defer c.close()
			for i := w; i < len(st.names); i += workers {
				if err := c.edge.write(opInsert, st.names[i], st.payload(i, w)); err != nil {
					errs[w] = fmt.Errorf("insert %s: %w", st.names[i], err)
					return
				}
				st.seq[i]++
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// result is one workload's run: the counts the contract asks for and every
// metric by name.
type result struct {
	attempted int
	failed    int
	firstErr  error
	samples   [opKinds]int
	setups    int // how many times set-up ran
	metrics   map[string]float64
}

func runWorkload(sp spec, opt options) (*result, error) {
	st := newState(sp, opt.seed)
	dataDir := filepath.Join(opt.dataDir, fmt.Sprintf("%s-%d", sp.name, os.Getpid()))
	var f *fabric
	// setup_s is the median of sp.setups set-ups, each on a fresh fabric; the
	// traced run does not report it and sets up once.
	n := sp.setups
	if opt.trace {
		n = 1
	}
	setups := make([]float64, 0, n)
	for len(setups) < n {
		if f != nil {
			if err := f.close(); err != nil {
				return nil, fmt.Errorf("close fabric: %w", err)
			}
		}
		t0 := time.Now()
		var err error
		if f, err = setUp(st, dataDir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer f.close()
	c, err := dialClient(sp, f)
	if err != nil {
		return nil, err
	}
	defer c.close()

	res := &result{setups: len(setups), metrics: map[string]float64{"setup_s": median(setups)}}
	warm := newWindow(sp, 0)
	warmOps := st.genOps(phaseWarm, int(opt.warmup().Seconds()*float64(sp.maxRate))+1)
	runLoop(st, c.edge, warmOps, opt.warmup(), warm, nil)
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d ops failed, first: %w", warm.failed, warm.attempted, warm.firstErr)
	}

	maxOps := int(opt.window().Seconds()*float64(sp.maxRate)) + 1
	ops := st.genOps(phaseWindow, maxOps)
	w := newWindow(sp, maxOps)
	w.wholeBlocks = true
	runtime.GC()
	// Set-up and warm-up leave write-back debt on the WAL's disk; start the
	// window without it.
	syscall.Sync()
	before := takeLayers(f, c)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if runLoop(st, c.edge, ops, opt.window(), w, nil) {
		fmt.Fprintf(os.Stderr, "bench: %s: op stream ended %.1fs into a %.1fs window; raise the workload's maxRate\n",
			sp.name, w.elapsed().Seconds(), opt.window().Seconds())
	}
	runtime.ReadMemStats(&m1)
	after := takeLayers(f, c)

	res.attempted, res.failed, res.firstErr = w.attempted, w.failed, w.firstErr
	for k := range w.lat {
		res.samples[k] = len(w.lat[k])
	}
	endToEnd(res.metrics, w)
	layerMetrics(res.metrics, st, w, before, after, &m0, &m1)
	if opt.trace && w.failed == 0 {
		if err := tracedPass(res, st, f, c, opt); err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
	}
	return res, nil
}

// endToEnd fills the metrics the driver gates beside setup_s.
func endToEnd(m map[string]float64, w *window) {
	// The median slice, not the whole window: the peers compact their logs
	// in a wave every thousand or so 1 MiB updates, a window holds none, one
	// or two of them, and each allocates a tenth of what the window's ops do.
	// Every slice holds the workload's mix exactly, so the slices outside a
	// wave agree to the fourth digit (CALIBRATION.md).
	m["alloc_kib_per_op"] = w.perSlice(func(a, b mark) float64 {
		return ratio(float64(b.alloc-a.alloc)/1024, float64(b.ops-a.ops))
	})
}
