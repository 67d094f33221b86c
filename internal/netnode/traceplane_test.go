package netnode

import (
	"encoding/json"
	"errors"
	"net/http"
	"testing"
	"time"

	"lesslog/internal/bitops"
	"lesslog/internal/hashring"
	"lesslog/internal/msg"
	"lesslog/internal/repair"
	"lesslog/internal/tracering"
)

// startTracedSystem is startSystem with the trace-plane knobs pinned, so
// tests control exactly which requests the head sampler picks.
func startTracedSystem(t testing.TB, m, b int, pids []bitops.PID, hasher hashring.Hasher, every int) map[bitops.PID]*Peer {
	t.Helper()
	return startSystemWith(t, pids, Config{M: m, B: b, Hasher: hasher, TraceSampleEvery: every})
}

// hopSet collects the PIDs appearing in hops with the given action.
func hopSet(hops []msg.Hop, action msg.HopAction) map[uint32]bool {
	out := map[uint32]bool{}
	for _, h := range hops {
		if h.Action == action {
			out[h.PID] = true
		}
	}
	return out
}

// assertTree fails unless every hop's parent is NoParent (a root) or a
// PID that itself appears in the trace — the connectivity a fan-out trace
// must keep however its branches interleave.
func assertTree(t *testing.T, hops []msg.Hop) {
	t.Helper()
	pids := map[uint32]bool{}
	for _, h := range hops {
		pids[h.PID] = true
	}
	for _, h := range hops {
		if h.Parent != msg.NoParent && !pids[h.Parent] {
			t.Fatalf("hop %+v parents onto P(%d), absent from the trace %v", h, h.Parent, hops)
		}
	}
}

// TestTracedUpdateBroadcastTree drives a traced update through a fan-out
// over hand-placed holders and checks the assembled trace is the
// broadcast tree: one HopFanout root at the entry peer, one HopDeliver
// per live holder, every hop parented inside the trace.
func TestTracedUpdateBroadcastTree(t *testing.T) {
	peers := startSystem(t, 4, 0, allPIDs(16), hashring.Fixed(4))
	if err := NewClient(peers[2].Addr()).Insert("f", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// Replicas at P(5) (root's first child) and P(7) (child of P(5)) —
	// the canonical copy from the insert sits at P(4).
	NewClient(peers[5].Addr()).Store("f", []byte("v1"), 1, true)
	NewClient(peers[7].Addr()).Store("f", []byte("v1"), 1, true)

	n, path, err := NewClient(peers[3].Addr()).UpdateTraced("f", []byte("v2"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("updated %d copies, want 3", n)
	}
	if len(path) == 0 || path[0].Action != msg.HopFanout || path[0].PID != 3 || path[0].Parent != msg.NoParent {
		t.Fatalf("trace root = %+v, want HopFanout at P(3)", path)
	}
	delivered := hopSet(path, msg.HopDeliver)
	if len(delivered) != 3 || !delivered[4] || !delivered[5] || !delivered[7] {
		t.Fatalf("HopDeliver set = %v, want {4, 5, 7} — the live holder set", delivered)
	}
	assertTree(t, path)

	// The same shape for a traced delete: one deliver hop per erased copy.
	n, path, err = NewClient(peers[3].Addr()).DeleteTraced("f")
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("deleted %d copies, want 3", n)
	}
	if len(path) == 0 || path[0].Action != msg.HopFanout {
		t.Fatalf("delete trace root = %+v", path)
	}
	if erased := hopSet(path, msg.HopDeliver); len(erased) != 3 || !erased[4] || !erased[5] || !erased[7] {
		t.Fatalf("delete HopDeliver set = %v, want {4, 5, 7}", erased)
	}
	assertTree(t, path)

	// An untraced update of the same system carries no route.
	if err := NewClient(peers[2].Addr()).Insert("f", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	resp, err := NewClient(peers[3].Addr()).Do(&msg.Request{Kind: msg.KindUpdate, Name: "f", Data: []byte("v3")}, false)
	if err != nil || !resp.OK {
		t.Fatalf("untraced update: %+v, %v", resp, err)
	}
	if resp.Path != nil {
		t.Fatalf("untraced update carried a route: %v", resp.Path)
	}
}

// TestRepairRoundTraceStar samples one anti-entropy round and checks its
// trace is the star the repair plane produces: a HopRepair root at the
// repairing peer, every responder hop parented directly onto it, and the
// responder set drawn from the name's sibling holders.
func TestRepairRoundTraceStar(t *testing.T) {
	peers := startTracedSystem(t, 4, 1, allPIDs(16), hashring.FNV{}, 1)
	if err := NewClient(peers[0].Addr()).Insert("f", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	holders := holdersOf(peers, "f")
	if len(holders) != 2 {
		t.Fatalf("holders = %v, want 2", holders)
	}
	lost, intact := holders[0], holders[1]
	peers[lost].store.Delete("f")

	var sampler repair.Sampler
	if n := peers[intact].RepairOnce(&sampler, nil, -1); n != 1 {
		t.Fatalf("RepairOnce repaired %d copies, want 1", n)
	}
	snap := peers[intact].TraceSnapshot()
	var star *tracering.Trace
	for i := range snap.Recent {
		if snap.Recent[i].Kind == "repair" {
			star = &snap.Recent[i]
		}
	}
	if star == nil {
		t.Fatalf("no repair trace in ring: %+v", snap.Recent)
	}
	root := star.Hops[0]
	if root.Action != msg.HopRepair || root.PID != uint32(intact) || root.Parent != msg.NoParent {
		t.Fatalf("repair trace root = %+v, want HopRepair at P(%d)", root, intact)
	}
	if len(star.Hops) < 2 {
		t.Fatal("repair star has no responder hops")
	}
	for _, h := range star.Hops[1:] {
		if h.Parent != uint32(intact) || h.Action != msg.HopServe {
			t.Fatalf("responder hop %+v, want HopServe parented on P(%d)", h, intact)
		}
		if h.PID != uint32(lost) {
			t.Fatalf("responder P(%d) outside the sibling holder set {%d}", h.PID, lost)
		}
	}

	// A second, clean round closes the divergence episode: the TTFR gauge
	// reports how long the fleet ran under-replicated.
	if n := peers[intact].RepairOnce(&sampler, nil, -1); n != 0 {
		t.Fatal("steady-state round still repaired")
	}
	if ttfr := peers[intact].StatSnapshot().RepairTTFRMS; ttfr <= 0 {
		t.Fatalf("RepairTTFRMS = %v after a completed episode, want > 0", ttfr)
	}
}

// TestTraceSamplingAndTailRetention pins the head sampler to 1-in-1000:
// the first request is the sampler's pick (and must stay invisible to the
// untraced client), later errored requests are tail-retained anyway, and
// healthy unsampled ones are not kept — locate-sets as well as gets.
func TestTraceSamplingAndTailRetention(t *testing.T) {
	peers := startTracedSystem(t, 3, 0, allPIDs(8), hashring.Fixed(4), 1000)
	NewClient(peers[0].Addr()).Store("s/f", []byte("x"), 1, true)

	// Request 1: head-sampled (promoted). The client asked for no trace,
	// so no route may leak onto its response.
	res, err := NewClient(peers[0].Addr()).Get("s/f")
	if err != nil {
		t.Fatal(err)
	}
	if res.Path != nil {
		t.Fatalf("promoted get leaked its route to the client: %v", res.Path)
	}
	// Request 2: unsampled but errored — tail-retained.
	if _, err := NewClient(peers[0].Addr()).Get("s/missing"); err == nil {
		t.Fatal("get of missing name succeeded")
	}
	// Request 3: unsampled, healthy, fast — dropped.
	if _, err := NewClient(peers[0].Addr()).Get("s/f"); err != nil {
		t.Fatal(err)
	}

	snap, err := NewClient(peers[0].Addr()).Traces()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Recorded != 2 || snap.Noted != 1 {
		t.Fatalf("ring totals = %d recorded / %d noted, want 2/1", snap.Recorded, snap.Noted)
	}
	if len(snap.Recent) != 2 || len(snap.Notable) != 1 {
		t.Fatalf("ring tiers = %d recent / %d notable, want 2/1", len(snap.Recent), len(snap.Notable))
	}
	// The promoted trace kept its route in the ring even though the
	// client never saw it.
	if got := snap.Recent[0]; got.ID == 0 || len(got.Hops) == 0 {
		t.Fatalf("promoted trace in ring = %+v, want a trace ID and hops", got)
	}
	if got := snap.Notable[0]; got.Err == "" {
		t.Fatalf("notable trace = %+v, want the errored get", got)
	}

	// A client-traced request is always recorded: under the ID it brought,
	// or under a fresh one when it brought none — never under 0.
	for _, id := range []uint64{0, 77} {
		resp, err := NewClient(peers[0].Addr()).Do(&msg.Request{Kind: msg.KindGet, Name: "s/f", Flags: msg.FlagTrace, TraceID: id}, false)
		if err != nil || !resp.OK || len(resp.Path) == 0 {
			t.Fatalf("client-traced get (id %d): %+v, %v", id, resp, err)
		}
	}
	if snap, err = NewClient(peers[0].Addr()).Traces(); err != nil || len(snap.Recent) != 4 {
		t.Fatalf("ring after two client-traced gets: %d recent, %v", len(snap.Recent), err)
	}
	if fresh, kept := snap.Recent[2].ID, snap.Recent[3].ID; fresh == 0 || fresh == 77 || kept != 77 {
		t.Fatalf("client-traced gets recorded under IDs %d and %d, want a fresh non-zero one and 77", fresh, kept)
	}

	// A locate-set — the read ladder's cold rung — is an entry request like
	// a get: unsampled and faulted, it is tail-retained with its error;
	// client-traced, it is recorded with its walk, ending at the holder.
	if _, err := NewClient(peers[0].Addr()).Locate("s/missing"); !errors.Is(err, ErrFault) {
		t.Fatalf("locate of a missing name: %v", err)
	}
	if _, err := NewClient(peers[0].Addr()).LocateTraced("s/f"); err != nil {
		t.Fatal(err)
	}
	if snap, err = NewClient(peers[0].Addr()).Traces(); err != nil || len(snap.Recent) != 6 || len(snap.Notable) != 2 {
		t.Fatalf("ring after two locate-sets: %d recent / %d notable, %v; want 6/2", len(snap.Recent), len(snap.Notable), err)
	}
	if got := snap.Notable[1]; got.Kind != "locate-set" || got.Name != "s/missing" || got.Err == "" {
		t.Fatalf("notable trace = %+v, want the faulted locate-set with its error", got)
	}
	got := snap.Recent[5]
	if got.Kind != "locate-set" || len(got.Hops) == 0 {
		t.Fatalf("client-traced locate-set in ring = %+v, want its walk", got)
	}
	if last := got.Hops[len(got.Hops)-1]; last.Action != msg.HopLocate || last.PID != 0 {
		t.Fatalf("traced locate-set ends in %+v, want HopLocate at the holder P(0)", last)
	}
}

// TestTracesAdminEndpoint scrapes /traces over HTTP and expects the same
// snapshot the wire kind serves.
func TestTracesAdminEndpoint(t *testing.T) {
	peers := startTracedSystem(t, 3, 0, allPIDs(8), hashring.Fixed(4), 1)
	NewClient(peers[0].Addr()).Store("a/f", []byte("x"), 1, true)
	if _, err := NewClient(peers[0].Addr()).Get("a/f"); err != nil {
		t.Fatal(err)
	}
	adm, err := peers[0].ServeAdmin("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer adm.Close()
	resp, err := http.Get("http://" + adm.Addr() + "/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap tracering.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Recorded == 0 || len(snap.Recent) == 0 {
		t.Fatalf("/traces snapshot = %+v, want the sampled get", snap)
	}
	if snap.SlowNS != int64(tracering.DefaultSlow) {
		t.Fatalf("slow threshold = %s, want the default", time.Duration(snap.SlowNS))
	}
}
