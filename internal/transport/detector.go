package transport

// Detector is the failure-detector half of the paper's §5 fault tolerance:
// the status word only helps if something turns socket errors into dead
// bits. A Detector counts consecutive RPC failures per peer; crossing the
// threshold fires OnDown exactly once, and any later success fires OnUp —
// so a netnode peer flips its liveness bit and the expanded-children-list
// fallback (§3) starts routing around the dead peer over the wire, then
// heals when the peer answers again (typically after it rejoins and
// re-registers).

import (
	"errors"
	"sort"
	"sync"
)

// Detector tracks consecutive RPC failures per peer ID. Safe for
// concurrent use; callbacks run without the detector lock held, so they
// may take the caller's own locks freely.
type Detector struct {
	threshold int
	onDown    func(id uint32)
	onUp      func(id uint32)

	mu    sync.Mutex
	fails map[uint32]int
	down  map[uint32]bool
}

// NewDetector returns a detector declaring a peer down after threshold
// consecutive failures (minimum 1). Either callback may be nil.
func NewDetector(threshold int, onDown, onUp func(id uint32)) *Detector {
	if threshold < 1 {
		threshold = 1
	}
	return &Detector{
		threshold: threshold,
		onDown:    onDown,
		onUp:      onUp,
		fails:     map[uint32]int{},
		down:      map[uint32]bool{},
	}
}

// Ok records a successful exchange with id: the failure streak resets, and
// a peer previously declared down is brought back up.
func (d *Detector) Ok(id uint32) {
	d.mu.Lock()
	delete(d.fails, id)
	wasDown := d.down[id]
	delete(d.down, id)
	d.mu.Unlock()
	if wasDown && d.onUp != nil {
		d.onUp(id)
	}
}

// Fail records a failed exchange with id; crossing the threshold declares
// the peer down (once per down episode).
func (d *Detector) Fail(id uint32) {
	d.mu.Lock()
	d.fails[id]++
	goesDown := d.fails[id] >= d.threshold && !d.down[id]
	if goesDown {
		d.down[id] = true
	}
	d.mu.Unlock()
	if goesDown && d.onDown != nil {
		d.onDown(id)
	}
}

// Observe records one exchange's outcome with id: Ok on success, Fail on a
// failure — except a refusal for the epoch (ErrEpoch), which is neither. A
// peer of another epoch is up, not crashed, and §5's fallback must not
// route around it as if it had failed: what reaches its slot fails, naming
// both epochs.
func (d *Detector) Observe(id uint32, err error) {
	switch {
	case err == nil:
		d.Ok(id)
	case !errors.Is(err, ErrEpoch):
		d.Fail(id)
	}
}

// Down reports whether id is currently declared down.
func (d *Detector) Down(id uint32) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.down[id]
}

// DownCount returns how many peers are currently declared down.
func (d *Detector) DownCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.down)
}

// DownIDs returns the peers currently declared down, ascending — the
// detector view the stats snapshot and /healthz expose.
func (d *Detector) DownIDs() []uint32 {
	d.mu.Lock()
	out := make([]uint32, 0, len(d.down))
	for id := range d.down {
		out = append(out, id)
	}
	d.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Reset forgets all state for id without firing callbacks — used when a
// membership change (join, leave, table swap) supersedes observed history.
func (d *Detector) Reset(id uint32) {
	d.mu.Lock()
	delete(d.fails, id)
	delete(d.down, id)
	d.mu.Unlock()
}

// ResetAll forgets every peer's state without firing callbacks — used when
// a whole address table is replaced.
func (d *Detector) ResetAll() {
	d.mu.Lock()
	d.fails = map[uint32]int{}
	d.down = map[uint32]bool{}
	d.mu.Unlock()
}
