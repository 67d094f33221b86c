package netnode

// The admin endpoint: a small stdlib-only HTTP server a peer can expose
// beside its wire port (`lesslogd -admin addr`). It serves the operator
// surface of the observability layer:
//
//	/metrics        Prometheus text format (counters + latency histograms)
//	/healthz        JSON liveness view: status word + failure-detector state
//	/trees          the physical lookup tree of this (or ?root=N) node,
//	                dead positions marked — Figures 2/3 for the live system
//	/traces         the sampled trace ring as JSON (docs/OBSERVABILITY.md)
//	/checkpoint     POST: compact the durable log to its live state
//	                (docs/STORAGE.md; 409 without -data-dir)
//	/leave          POST: the §5.2 voluntary leave — hand the inserted
//	                copies off, then report how many the peer still
//	                holds (docs/STORAGE.md "The retire barrier")
//	/debug/pprof/*  the standard Go profiler endpoints
//
// Everything read here is lock-free or briefly locked; scraping cannot
// stall the request path (checkpoint compaction runs off it too).

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"lesslog/internal/bitops"
	"lesslog/internal/msg"
	"lesslog/internal/trace"
)

// Admin is a running admin HTTP server bound to one peer.
type Admin struct {
	p   *Peer
	srv *http.Server
	ln  net.Listener
}

// ServeAdmin starts the peer's admin HTTP server on addr ("127.0.0.1:0"
// picks a free port; Addr reports it). Close the returned Admin when done;
// closing the peer does not close it.
func (p *Peer) ServeAdmin(addr string) (*Admin, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netnode: admin listen %s: %w", addr, err)
	}
	a := &Admin{p: p, ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", a.metrics)
	mux.HandleFunc("/healthz", a.healthz)
	mux.HandleFunc("/trees", a.trees)
	mux.HandleFunc("/traces", a.traces)
	mux.HandleFunc("/checkpoint", a.checkpoint)
	mux.HandleFunc("/leave", a.leave)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	a.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go a.srv.Serve(ln)
	p.log.Info("admin endpoint listening", "addr", ln.Addr().String())
	return a, nil
}

// Addr returns the admin server's bound address.
func (a *Admin) Addr() string { return a.ln.Addr().String() }

// Close shuts the admin server down immediately.
func (a *Admin) Close() error { return a.srv.Close() }

func (a *Admin) metrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	a.p.WritePrometheus(w)
}

// traces serves the peer's sampled trace ring: recent traces oldest
// first, plus the notable (slow/errored) retention tier. Empty when the
// trace plane is disabled.
func (a *Admin) traces(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(a.p.TraceSnapshot())
}

// checkpoint compacts the durable log down to live state on demand —
// the operator's "shrink the data dir now" button. POST only (it
// rewrites disk); peers without a data directory answer 409.
func (a *Admin) checkpoint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	if err := a.p.Checkpoint(); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	sealed, active := a.p.eng.Segments()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"checkpointed": true, "sealed_segments": sealed, "active_bytes": active,
	})
}

// leave runs the §5.2 voluntary leave — a signal only closes the peer.
// POST only (it moves copies and may retire the log). kept counts the
// copies the peer still holds: 0 means every copy was placed and the log
// is retired; above 0 the data directory must be kept. Stop the process
// afterwards.
func (a *Admin) leave(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	if err := a.p.Leave(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"left": true, "kept": a.p.store.Len()})
}

// adminHealth is the /healthz body.
type adminHealth struct {
	Status       string   `json:"status"`
	PID          uint32   `json:"pid"`
	Addr         string   `json:"addr"`
	M            int      `json:"m"`
	B            int      `json:"b"`
	LivePeers    int      `json:"live_peers"`
	KnownPeers   int      `json:"known_peers"`
	DetectorDown []uint32 `json:"detector_down"`
	// Epoch is the wire protocol epoch this peer speaks; EpochRefused counts
	// connections refused for theirs, dialed and accepted (docs/TRANSPORT.md
	// "Connection hello").
	Epoch        uint32 `json:"epoch"`
	EpochRefused uint64 `json:"epoch_refused"`
}

func (a *Admin) healthz(w http.ResponseWriter, _ *http.Request) {
	p := a.p
	rt := p.rt()
	live := rt.live.LiveCount()
	known := len(rt.addrs)
	h := adminHealth{
		Status: "ok", PID: uint32(p.cfg.PID), Addr: p.Addr(),
		M: p.cfg.M, B: p.cfg.B, LivePeers: live, KnownPeers: known,
		DetectorDown: p.det.DownIDs(),
		Epoch:        msg.Epoch, EpochRefused: p.tr.Counters().EpochRefused.Value(),
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(h)
}

// trees renders the physical lookup tree (Figures 2/3) for this peer's
// PID, or for ?root=N, against the live status word — dead positions are
// marked exactly as the offline internal/trace tooling marks them.
func (a *Admin) trees(w http.ResponseWriter, r *http.Request) {
	p := a.p
	root := p.cfg.PID
	if q := r.URL.Query().Get("root"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 || n >= bitops.Slots(p.cfg.M) {
			http.Error(w, fmt.Sprintf("bad root %q (want 0..%d)", q, bitops.Slots(p.cfg.M)-1),
				http.StatusBadRequest)
			return
		}
		root = bitops.PID(n)
	}
	live := p.rt().live // immutable snapshot; safe to read unlocked
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "physical lookup tree of P(%d) (m=%d b=%d, %d live)\n\n",
		root, p.cfg.M, p.cfg.B, live.LiveCount())
	fmt.Fprint(w, trace.Physical(root, p.cfg.M, live))
}
