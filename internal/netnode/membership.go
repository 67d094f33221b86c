package netnode

// Dynamic membership over the wire: the §5 self-organized mechanism
// distributed across real peers. A joining peer bootstraps the address
// table (the networked status word) from any member and registers itself;
// every member that held a file on the joiner's behalf detects the new
// placement locally — pure bit arithmetic, true to the paper — and hands
// the inserted copy over. Departures broadcast a dead registration; a
// graceful leaver first pushes its inserted copies to their new primaries,
// while after a failure the holders in sibling subtrees (B > 0) detect the
// lost copy and restore it.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"lesslog/internal/bitops"
	"lesslog/internal/hashring"
	"lesslog/internal/liveness"
	"lesslog/internal/msg"
	"lesslog/internal/store"
)

// Join bootstraps this peer into an existing system: it fetches the
// address table from the peer at bootstrapAddr, installs it (plus
// itself), and broadcasts a live registration through the bootstrap peer,
// which triggers the §5.1 file handoff at every holder. Both exchanges go
// through the peer's own transport — the table fetch gets the deadline,
// retry and pooling treatment of any other idempotent RPC, instead of the
// bare package-default path a joining node used to bootstrap over.
func (p *Peer) Join(bootstrapAddr string) error {
	resp, err := p.tr.Do(bootstrapAddr, &msg.Request{Kind: msg.KindTable})
	if err != nil {
		return fmt.Errorf("netnode: join: fetch table: %w", err)
	}
	if !resp.OK {
		return fmt.Errorf("netnode: join: %s", resp.Err)
	}
	table, err := parseTable(resp.Data)
	if err != nil {
		return fmt.Errorf("netnode: join: %w", err)
	}
	// A peer of another shape would compute placements no member agrees
	// with; refuse before anyone hears of it.
	if table.m != p.cfg.M || table.b != p.cfg.B {
		return fmt.Errorf("netnode: join: fabric has M=%d B=%d, this peer M=%d B=%d",
			table.m, table.b, p.cfg.M, p.cfg.B)
	}
	table.addrs[p.cfg.PID] = p.Addr()
	p.SetAddrs(table.addrs)
	reg := &msg.Request{
		Kind:   msg.KindRegister,
		Origin: uint32(p.cfg.PID),
		Data:   []byte(p.Addr()),
	}
	rresp, err := p.tr.Do(bootstrapAddr, reg)
	if err != nil {
		return fmt.Errorf("netnode: join: register: %w", err)
	}
	if !rresp.OK {
		return fmt.Errorf("netnode: join: register: %s", rresp.Err)
	}
	p.log.Info("joined system", "bootstrap", bootstrapAddr, "peers", len(table.addrs))
	// Restart warming: a peer rejoining with recovered state (or live
	// tombstones) re-announces it through the repair plane instead of
	// waiting for the steady-state loop to stumble across each name —
	// pushes restore lost placements, tombstones propagate deletions the
	// crash interrupted. Background, so Join returns at the same point it
	// always did; tests needing determinism call AnnounceInventory directly.
	if p.store.Len() > 0 || p.store.TombstoneCount() > 0 {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.AnnounceInventory()
		}()
	}
	return nil
}

// Leave retires this peer gracefully (§5.2): its inserted copies are
// pushed to the primaries that take over once it is gone, its replicas
// are discarded with it, and a dead registration is broadcast. The caller
// should Close the peer afterwards.
//
// Leave holds propMu's write side across the whole handoff, so an
// update/delete broadcast mid-fan-out at this peer finishes (or starts)
// atomically with respect to the copies moving out — without it, a copy
// handed to its new primary could miss the rewrite the in-flight
// broadcast was still applying locally.
//
// A handoff target that fails mid-leave does not abort the departure:
// the call is retried against a freshly computed primary (the failure
// feeds the detector, so a dead successor's liveness bit flips and the
// next attempt picks the §3 FINDLIVENODE fallback holder instead), and a
// copy that still cannot be placed is skipped — the B > 0 sibling
// subtrees keep serving it, and the repair loop re-establishes the
// missing placement. The old behavior (abort the leave) left the peer
// half-departed: marked dead locally, never broadcast, copies stranded.
// A copy whose subtree has no live peer left (the last leaver of a
// subtree) is not placed either, so that peer keeps its store and log.
//
// Two peers leaving at once can still lose a copy: applyStore takes no
// propMu, so a handoff can land at a peer in the middle of its own Leave,
// after it listed its inserted copies.
func (p *Peer) Leave() error {
	p.propMu.Lock()
	defer p.propMu.Unlock()
	// Compute the post-departure placements against a view in which this
	// peer is already dead (snapshot swap, as in applyRegister).
	p.mutateRouting(func(addrs map[bitops.PID]string, live *liveness.Set) {
		live.SetDead(p.cfg.PID)
	})
	inserted := p.store.Names(store.Inserted)
	files := make([]store.File, 0, len(inserted))
	for _, name := range inserted {
		f, _ := p.store.Peek(name)
		files = append(files, f)
	}
	attempts := p.tr.Config().FailThreshold + 1
	skipped := 0
	for _, f := range files {
		target := p.hasher.Target(f.Name, p.cfg.M)
		var err error
		tried := false
		for attempt := 0; attempt < attempts; attempt++ {
			// Fresh view each attempt: a failed call feeds the detector,
			// so once the dead successor's bit flips, PrimaryOf picks the
			// next live holder in the subtree (§3 over the wire).
			h, ok := p.view(target).PrimaryOf(p.cfg.PID)
			if !ok {
				break // subtree dies with us; nobody takes the copy
			}
			tried = true
			if _, err = p.place(h, f, 0, &p.stats.PlacedHandoff, nil); err == nil {
				break
			}
		}
		if !tried || err != nil {
			skipped++
			p.log.Warn("leave: handoff skipped, no successor took the copy", "name", f.Name, "err", err)
		}
		f.Release()
	}
	p.broadcastRegister(p.cfg.PID, nil, true)
	// Local state retires with the peer: replicas are discarded (§5.2) and
	// every handed-off inserted copy now lives at its new primary. The
	// discard is in-memory plus one durable barrier record — not one delete
	// record per name, which is pure write amplification on a WAL-backed
	// peer — so a later restart replays to empty instead of re-announcing
	// copies the fabric already re-homed. A skipped copy keeps the whole
	// store (and log) intact instead: any B > 0 siblings still serve it
	// live, and a warm restart re-announces the stranded placement rather
	// than losing the only authoritative record of it.
	if skipped == 0 {
		dropped := p.store.DiscardAll()
		if p.eng != nil {
			if err := p.eng.Retire(); err != nil {
				p.log.Warn("leave: retire barrier not logged", "err", err)
			}
		}
		p.log.Info("left system gracefully",
			"handed_off", len(files), "retired", dropped)
	} else {
		p.log.Info("left system gracefully",
			"handed_off", len(files)-skipped, "skipped", skipped)
	}
	return nil
}

// ReportFailure lets any surviving peer announce that pid crashed. The
// broadcast marks it dead everywhere and, with B > 0, holders in sibling
// subtrees restore the lost copies (§5.3).
func (p *Peer) ReportFailure(pid bitops.PID) {
	p.broadcastRegister(pid, nil, true)
}

// broadcastRegister delivers a registration to every known peer
// (including this one) as already-propagated messages.
func (p *Peer) broadcastRegister(pid bitops.PID, addr []byte, dead bool) {
	req := &msg.Request{
		Kind:   msg.KindRegister,
		Flags:  msg.FlagPropagate,
		Origin: uint32(pid),
		Data:   addr,
	}
	if dead {
		req.Flags |= msg.FlagDead
	}
	addrs := p.rt().addrs
	targets := make([]bitops.PID, 0, len(addrs))
	for q := range addrs {
		if q != pid {
			targets = append(targets, q)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
	for _, q := range targets {
		if q == p.cfg.PID {
			p.applyRegister(req)
			continue
		}
		// Best effort: a missed peer keeps its old view for good, because a
		// peer fetches the table (KindTable) only once, in Join. ROADMAP.md's
		// "Membership that converges" item is the resync.
		p.call(q, req)
	}
}

// handleRegister processes a membership announcement; a non-propagated
// one (from the joining node itself) is relayed to every other peer.
func (p *Peer) handleRegister(req *msg.Request) *msg.Response {
	p.applyRegister(req)
	if req.Flags&msg.FlagPropagate == 0 {
		relay := *req
		relay.Flags |= msg.FlagPropagate
		addrs := p.rt().addrs
		targets := make([]bitops.PID, 0, len(addrs))
		for q := range addrs {
			if q != p.cfg.PID && q != bitops.PID(req.Origin) {
				targets = append(targets, q)
			}
		}
		sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
		for _, q := range targets {
			p.call(q, &relay)
		}
	}
	return &msg.Response{OK: true, ServedBy: uint32(p.cfg.PID)}
}

// applyRegister updates the local table and runs the file-migration side
// of the §5 mechanism.
func (p *Peer) applyRegister(req *msg.Request) {
	pid := bitops.PID(req.Origin)
	// A registration supersedes the failure detector's observed history:
	// a rejoining peer starts with a clean slate, a registered death needs
	// no further counting.
	p.det.Reset(uint32(pid))
	p.log.Info("membership registration",
		"peer", uint32(pid), "dead", req.Flags&msg.FlagDead != 0)
	if req.Flags&msg.FlagDead != 0 {
		var addr string
		// Snapshot swap: views captured by in-flight requests keep an
		// immutable snapshot of the status word and address table.
		p.mutateRouting(func(addrs map[bitops.PID]string, live *liveness.Set) {
			addr = addrs[pid]
			delete(addrs, pid)
			live.SetDead(pid)
		})
		if addr != "" {
			p.tr.DropIdle(addr)
		}
		p.restoreAfterDeath(pid)
		return
	}
	newAddr := string(req.Data)
	p.mutateRouting(func(addrs map[bitops.PID]string, live *liveness.Set) {
		addrs[pid] = newAddr
		live.SetLive(pid)
	})
	p.handOffTo(pid)
}

// handOffTo implements the joining side of §5.1 at this holder: any
// inserted copy whose subtree placement now selects the joiner moves to
// it.
//
// Each name's Peek → place → Delete runs under propMu's write side, as
// Leave's handoff does. A peer that has not yet heard of the joiner still
// delivers updates here; such an update either lands before the Peek and
// moves with the copy, or finds no copy once the lock is released and is
// not acknowledged. Without the lock it could land between the Peek and
// the Delete, be acknowledged, and be deleted with the copy.
func (p *Peer) handOffTo(k bitops.PID) {
	if k == p.cfg.PID {
		return
	}
	inserted := p.store.Names(store.Inserted)
	for _, name := range inserted {
		if p.view(p.hasher.Target(name, p.cfg.M)).JoinTakes(k, p.cfg.PID) {
			p.handOff(k, name)
		}
	}
}

// handOff moves this peer's copy of name to the joiner k.
func (p *Peer) handOff(k bitops.PID, name string) {
	p.propMu.Lock()
	defer p.propMu.Unlock()
	f, have := p.store.Peek(name)
	if !have {
		return
	}
	defer f.Release()
	if _, err := p.place(k, f, 0, &p.stats.PlacedHandoff, nil); err != nil {
		p.log.Warn("join: handoff failed, copy kept here", "name", name, "to", uint32(k), "err", err)
		return
	}
	p.store.Delete(name)
}

// restoreAfterDeath implements the §5.3 recovery at this holder: with
// B > 0, if the dead node was the primary of its subtree for one of our
// files and we hold a sibling-subtree copy, push a fresh copy to the
// subtree's new primary.
func (p *Peer) restoreAfterDeath(k bitops.PID) {
	if p.cfg.B == 0 {
		return
	}
	inserted := p.store.Names(store.Inserted)
	for _, name := range inserted {
		h, ok := p.view(p.hasher.Target(name, p.cfg.M)).RestoreTarget(k, p.cfg.PID)
		if !ok {
			continue // k held no copy this peer must restore
		}
		f, have := p.store.Peek(name)
		if !have {
			continue
		}
		// Idempotent: several siblings may place the same copy.
		if _, err := p.place(h, f, 0, &p.stats.PlacedRestore, nil); err != nil {
			p.log.Warn("restore after death failed", "name", name, "on", uint32(h), "err", err)
		}
		f.Release()
	}
}

// peerTable is the KindTable answer: the fabric's shape, whether the
// answering peer hashes names with hashring.Default, and its PID→address
// table, with the peers its failure detector currently holds dead marked
// down.
type peerTable struct {
	m, b        int
	defaultHash bool
	addrs       map[bitops.PID]string
	down        map[bitops.PID]bool
}

// handleTable answers KindTable with this peer's table. The answer has two
// consumers: Join, which refuses a fabric of another shape and installs
// the addresses (every one live, as a fresh status word), and a
// locate-mode Client, which keeps the live ones as its placement snapshot
// and names each insert's primaries from it (Client.insertEntry).
func (p *Peer) handleTable() *msg.Response {
	rt := p.rt()
	t := peerTable{
		m: p.cfg.M, b: p.cfg.B, defaultHash: p.hasher == hashring.Default,
		addrs: rt.addrs, down: map[bitops.PID]bool{},
	}
	for q := range rt.addrs {
		if !rt.live.IsLive(q) {
			t.down[q] = true
		}
	}
	return &msg.Response{OK: true, ServedBy: uint32(p.cfg.PID), Data: t.encode()}
}

// encode writes the table as text: a "table m b hash" header, hash being
// "default" or "other", then one "pid addr" line per peer in PID order,
// "pid addr down" for a peer held dead.
func (t peerTable) encode() []byte {
	pids := make([]bitops.PID, 0, len(t.addrs))
	for q := range t.addrs {
		pids = append(pids, q)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	hash := "other"
	if t.defaultHash {
		hash = "default"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "table %d %d %s\n", t.m, t.b, hash)
	for _, q := range pids {
		fmt.Fprintf(&b, "%d %s", q, t.addrs[q])
		if t.down[q] {
			b.WriteString(" down")
		}
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// parseTable decodes peerTable.encode's format, refusing a shape no peer
// could run (the bitops.CheckSplit range) and PIDs outside it.
func parseTable(data []byte) (peerTable, error) {
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var t peerTable
	var hash string
	if n, err := fmt.Sscanf(lines[0], "table %d %d %s", &t.m, &t.b, &hash); err != nil || n != 3 ||
		t.m < 1 || t.m > bitops.MaxWidth || t.b < 0 || t.b >= t.m ||
		(hash != "default" && hash != "other") {
		return peerTable{}, fmt.Errorf("netnode: malformed table header %q", lines[0])
	}
	t.defaultHash = hash == "default"
	t.addrs = map[bitops.PID]string{}
	t.down = map[bitops.PID]bool{}
	for _, line := range lines[1:] {
		f := strings.Fields(line)
		if len(f) < 2 || len(f) > 3 || (len(f) == 3 && f[2] != "down") {
			return peerTable{}, fmt.Errorf("netnode: malformed table line %q", line)
		}
		id, err := strconv.Atoi(f[0])
		if err != nil || id < 0 || id >= bitops.Slots(t.m) {
			return peerTable{}, fmt.Errorf("netnode: malformed table PID %q", f[0])
		}
		t.addrs[bitops.PID(id)] = f[1]
		if len(f) == 3 {
			t.down[bitops.PID(id)] = true
		}
	}
	return t, nil
}
