package netnode

// End-to-end tests of the observability layer: wire-level route tracing
// checked against the ptree prediction, the structured stat snapshot, the
// admin HTTP endpoint, and a pair of benchmarks that time an untraced and
// a traced wire-level get.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"lesslog/internal/bitops"
	"lesslog/internal/hashring"
	"lesslog/internal/liveness"
	"lesslog/internal/msg"
	"lesslog/internal/ptree"
	"lesslog/internal/store"
)

// hopPIDs projects the observed hop records onto their PID sequence.
func hopPIDs(hops []msg.Hop) []bitops.PID {
	out := make([]bitops.PID, len(hops))
	for i, h := range hops {
		out[i] = bitops.PID(h.PID)
	}
	return out
}

func pidsEqual(a, b []bitops.PID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestTracedGetMatchesPrediction boots the paper's 16-node system, runs a
// traced get and checks the observed wire-level route is exactly the route
// internal/ptree predicts for the same liveness state — the paper path
// P(8) → P(0) → P(4).
func TestTracedGetMatchesPrediction(t *testing.T) {
	peers := startSystem(t, 4, 0, allPIDs(16), hashring.Fixed(4))
	if err := NewClient(peers[9].Addr()).Insert("f", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	res, err := NewClient(peers[8].Addr()).GetTraced("f")
	if err != nil {
		t.Fatal(err)
	}
	want := hopPIDs(predictRoute(ptree.NewView(4, liveness.NewAllLive(4, 16), 0), 8, holds(4)))
	if got := hopPIDs(res.Path); !pidsEqual(got, want) {
		t.Fatalf("traced route %v, ptree predicts %v", got, want)
	}
	last := res.Path[len(res.Path)-1]
	if last.Action != msg.HopServe || last.PID != res.ServedBy {
		t.Fatalf("last hop = %+v, want HopServe at P(%d)", last, res.ServedBy)
	}
	for _, h := range res.Path[:len(res.Path)-1] {
		if h.Action != msg.HopForward {
			t.Fatalf("mid-route hop = %+v, want HopForward", h)
		}
	}
	if len(res.Path) != res.Hops+1 {
		t.Fatalf("%d hop records for a %d-hop get", len(res.Path), res.Hops)
	}
	// An untraced get of the same file carries no route.
	plain, err := NewClient(peers[8].Addr()).Get("f")
	if err != nil || plain.Path != nil {
		t.Fatalf("untraced get path = %v, err = %v", plain.Path, err)
	}
}

// TestTracedGetFallbackRoute reruns the §3 dead-target example traced: with
// P(4) and P(5) dead the route must end in a FINDLIVENODE hop, and its
// stops must be the ptree.View.Next loop's for the same liveness state.
func TestTracedGetFallbackRoute(t *testing.T) {
	var pids []bitops.PID
	for i := 0; i < 16; i++ {
		if i == 4 || i == 5 {
			continue
		}
		pids = append(pids, bitops.PID(i))
	}
	peers := startSystem(t, 4, 0, pids, hashring.Fixed(4))
	if err := NewClient(peers[0].Addr()).Insert("f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	res, err := NewClient(peers[8].Addr()).GetTraced("f")
	if err != nil {
		t.Fatal(err)
	}
	if res.ServedBy != 6 {
		t.Fatalf("served by P(%d), want the fallback holder P(6)", res.ServedBy)
	}
	live := liveness.NewAllLive(4, 16)
	live.SetDead(4)
	live.SetDead(5)
	want := hopPIDs(predictRoute(ptree.NewView(4, live, 0), 8, holds(6)))
	if walked := hopPIDs(res.Path); !pidsEqual(walked, want) {
		t.Fatalf("traced walk %v, predicted stops %v", walked, want)
	}
	var sawFallback bool
	for _, h := range res.Path {
		if h.Action == msg.HopFallback {
			sawFallback = true
		}
	}
	if !sawFallback {
		t.Fatalf("no FINDLIVENODE hop in traced route %v", res.Path)
	}
	if last := res.Path[len(res.Path)-1]; last.Action != msg.HopServe || last.PID != 6 {
		t.Fatalf("last hop = %+v, want HopServe at P(6)", last)
	}
}

// TestStatSnapshotOverWire exercises the structured replacement for the
// free-text stat: the JSON snapshot must carry the same facts the one-line
// form prints, plus the latency distributions.
func TestStatSnapshotOverWire(t *testing.T) {
	peers := startSystem(t, 4, 0, allPIDs(16), hashring.Fixed(4))
	cl := NewClient(peers[9].Addr())
	if err := cl.Insert("f", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := NewClient(peers[8].Addr()).Get("f"); err != nil {
		t.Fatal(err)
	}
	snap, err := NewClient(peers[8].Addr()).StatSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.PID != 8 || snap.M != 4 || snap.LivePeers != 16 {
		t.Fatalf("snapshot identity = %+v", snap)
	}
	if snap.Requests == 0 || snap.Forwards == 0 {
		t.Fatalf("snapshot counters = %+v", snap)
	}
	if d, ok := snap.RPCLatencyMS["get"]; !ok || d.Count == 0 || d.P95 <= 0 {
		t.Fatalf("rpc get latency = %+v", snap.RPCLatencyMS)
	}
	if d, ok := snap.HandlerLatencyMS["get"]; !ok || d.Count == 0 {
		t.Fatalf("handler get latency = %+v", snap.HandlerLatencyMS)
	}
	if snap.ForwardLatencyMS.Count == 0 {
		t.Fatalf("forward latency = %+v", snap.ForwardLatencyMS)
	}
	// The serving peer records serve latency instead.
	srv, err := NewClient(peers[4].Addr()).StatSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if srv.ServeLatencyMS.Count == 0 || srv.Served == 0 {
		t.Fatalf("serving peer snapshot = %+v", srv)
	}
	// The legacy one-line form still works alongside.
	line, err := NewClient(peers[8].Addr()).Stat()
	if err != nil || !strings.Contains(line, "pid=8") {
		t.Fatalf("one-line stat = %q, %v", line, err)
	}
}

// TestAdminEndpoint drives every route of the admin HTTP server against a
// live system that has served a traced get.
func TestAdminEndpoint(t *testing.T) {
	peers := startSystem(t, 4, 0, allPIDs(16), hashring.Fixed(4))
	if err := NewClient(peers[9].Addr()).Insert("f", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := NewClient(peers[8].Addr()).GetTraced("f"); err != nil {
		t.Fatal(err)
	}
	adm, err := peers[8].ServeAdmin("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer adm.Close()
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + adm.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"# TYPE lesslog_rpc_latency_seconds histogram",
		`lesslog_rpc_latency_seconds_count{pid="8",kind="get"}`,
		`lesslog_requests_total{pid="8"}`,
		`lesslog_live_peers{pid="8"} 16`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}
	if strings.Contains(body, `lesslog_rpc_latency_seconds_count{pid="8",kind="get"} 0`) {
		t.Fatal("/metrics reports a zero-count get histogram after a get")
	}

	code, body = get("/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz = %d", code)
	}
	var h adminHealth
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("/healthz body %q: %v", body, err)
	}
	if h.Status != "ok" || h.PID != 8 || h.LivePeers != 16 || h.KnownPeers != 16 {
		t.Fatalf("/healthz = %+v", h)
	}

	code, body = get("/trees")
	if code != http.StatusOK || !strings.Contains(body, "P(8)") {
		t.Fatalf("/trees = %d, %q", code, body)
	}
	code, body = get("/trees?root=4")
	if code != http.StatusOK || !strings.Contains(body, "lookup tree of P(4)") {
		t.Fatalf("/trees?root=4 = %d, %q", code, body)
	}
	if code, _ = get("/trees?root=99"); code != http.StatusBadRequest {
		t.Fatalf("/trees?root=99 = %d, want 400", code)
	}
	if code, _ = get("/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ = %d", code)
	}

	// /checkpoint is POST-only and 409s on a peer without a data dir (the
	// durable-peer happy path lives in durable_test.go).
	if code, _ = get("/checkpoint"); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /checkpoint = %d, want 405", code)
	}
	resp, err := http.Post("http://"+adm.Addr()+"/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("POST /checkpoint without data dir = %d, want 409", resp.StatusCode)
	}
}

// benchSystem boots a 16-node system holding one file at P(4) for the
// traced-vs-untraced overhead comparison.
func benchSystem(b *testing.B) *Client {
	peers := startSystem(b, 4, 0, allPIDs(16), hashring.Fixed(4))
	if err := NewClient(peers[9].Addr()).Insert("bench", []byte("payload")); err != nil {
		b.Fatal(err)
	}
	return NewClient(peers[8].Addr())
}

func BenchmarkGetOverTCP(b *testing.B) {
	cl := benchSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Get("bench"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetTracedOverTCP(b *testing.B) {
	cl := benchSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.GetTraced("bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSnapshotLoadsEveryLiveCounter pins the by-name copy that replaced the
// hand-written one: every atomic in Stats must come back out of the
// snapshot field of the same name, so a counter added to Stats without a
// snapshot field (or misspelled in one) fails here instead of reading 0.
func TestSnapshotLoadsEveryLiveCounter(t *testing.T) {
	p := startSystem(t, 2, 0, allPIDs(1), hashring.Fixed(0))[0]
	live := reflect.ValueOf(&p.stats).Elem()
	for i := 0; i < live.NumField(); i++ {
		switch a := live.Field(i).Addr().Interface().(type) {
		case *atomic.Uint64:
			a.Store(uint64(1000 + i))
		case *atomic.Int64:
			a.Store(int64(1000 + i))
		default:
			t.Fatalf("Stats.%s is a %T: metrics.Load copies atomic.Uint64 and atomic.Int64", live.Type().Field(i).Name, a)
		}
	}
	snap := reflect.ValueOf(p.StatSnapshot())
	for i := 0; i < live.NumField(); i++ {
		name := live.Type().Field(i).Name
		f := snap.FieldByName(name)
		if !f.IsValid() {
			t.Errorf("Stats.%s has no StatSnapshot field of that name", name)
		} else if got := fmt.Sprint(f.Interface()); got != fmt.Sprint(1000+i) {
			t.Errorf("StatSnapshot.%s = %s, want the live counter's %d", name, got, 1000+i)
		}
	}
}

// TestMetricsScrapeDoesNotWalkTheInventory checks the promise in admin.go
// that scraping cannot stall the request path: a /metrics page costs the
// same allocations over 10 000 stored names as over 1 000 — it counts the
// store, where it used to build and sort every name under the shard locks.
// AllocsPerRun counts the whole process's allocations, so a goroutine of
// another test can inflate one sample, and under -race sync.Pool drops a
// quarter of its Puts at random, so fmt's printer pool adds a few to some
// runs: each size takes the least of five 100-run averages.
func TestMetricsScrapeDoesNotWalkTheInventory(t *testing.T) {
	p := startSystem(t, 2, 0, allPIDs(1), hashring.Fixed(0))[0]
	scrape := func(names int) float64 {
		for i := p.store.Len(); i < names; i++ {
			p.store.Put(store.File{Name: fmt.Sprintf("n/%06d", i), Version: 1}, store.Inserted)
		}
		least := math.Inf(1)
		for range 5 {
			least = min(least, testing.AllocsPerRun(100, func() { p.WritePrometheus(io.Discard) }))
		}
		return least
	}
	small, large := scrape(1000), scrape(10000)
	if large > small+8 {
		t.Fatalf("a scrape allocates %.0f objects over 1 000 names and %.0f over 10 000: it grows with the inventory", small, large)
	}
	var page strings.Builder
	p.WritePrometheus(&page)
	if want := `lesslog_store_files{pid="0",kind="inserted"} 10000`; !strings.Contains(page.String(), want) {
		t.Fatalf("/metrics lacks %q", want)
	}
}
