// Package wal is the durable storage engine behind a networked peer's
// sharded store (docs/STORAGE.md): segmented append-only files of
// CRC32C-checksummed records, an in-memory index rebuilt by crash-recovery
// replay that truncates at the first torn or corrupt record, checkpoint
// compaction that scans sealed segments and copies the live records file
// to file — dropping superseded versions and GC'd tombstones without ever
// loading a body — and group-commit fsync batching so the pipelined write
// hot path keeps its throughput under `-fsync always`.
//
// "Logless" in the paper's sense (§1) means no client-access log; it does
// not mean volatile peers. This engine is what turns the §7 rejoin path
// from a full data-loss + re-replication event into a cache-warm one: a
// restarting peer replays its segments and re-announces the recovered
// inventory through the anti-entropy plane (docs/REPAIR.md).
//
// The engine deliberately holds no index of its own: the sharded memory
// store *is* the index, and the engine is its ordered durability tail.
// It implements store.Persister, so attaching it to a store.Sharded
// makes every mutation durable with no changes at the call sites.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lesslog/internal/crc32c"
	"lesslog/internal/store"
)

// Policy selects when appended records reach stable storage.
type Policy uint8

const (
	// FsyncInterval (the default) fsyncs the active segment on a timer
	// (Options.FsyncEvery): bounded loss window, near-FsyncNever speed.
	FsyncInterval Policy = iota
	// FsyncAlways fsyncs before every append acknowledges. Concurrent
	// appenders share fsyncs through group commit: one flush covers every
	// record written before it, so throughput scales with batch size
	// instead of collapsing to one sync per write.
	FsyncAlways
	// FsyncNever leaves flushing to the OS page cache and segment seals.
	// A process crash (kill -9) loses nothing — the kernel still holds
	// the writes — but a machine crash loses the unsynced tail.
	FsyncNever
)

// ParsePolicy maps the -fsync flag values to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(s) {
	case "always":
		return FsyncAlways, nil
	case "interval", "":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or never)", s)
}

// String returns the flag spelling of p.
func (p Policy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "never"
	}
	return "interval"
}

// Defaults for Options fields left zero.
const (
	DefaultSegmentSize  = 64 << 20
	DefaultFsyncEvery   = 100 * time.Millisecond
	DefaultCompactAfter = 4
)

// Options configures one engine.
type Options struct {
	// Dir is the data directory; created if missing. One engine owns it.
	Dir string
	// SegmentSize rotates the active segment once it reaches this many
	// bytes. 0 selects DefaultSegmentSize.
	SegmentSize int64
	// Fsync is the durability policy (see Policy).
	Fsync Policy
	// FsyncEvery is the FsyncInterval flush period. 0 selects
	// DefaultFsyncEvery.
	FsyncEvery time.Duration
	// CompactAfter triggers background compaction once that many sealed
	// segments accumulate. 0 selects DefaultCompactAfter; negative
	// disables automatic compaction (Checkpoint still compacts).
	CompactAfter int
	// TombstoneGC lets compaction drop tombstones older than this — the
	// same horizon the repair loop uses live (repair.Config.TombstoneTTL).
	// 0 keeps every tombstone until a checkpoint after the live prune.
	TombstoneGC time.Duration
	// Logger receives recovery and compaction events; nil discards them.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.SegmentSize <= 0 {
		o.SegmentSize = DefaultSegmentSize
	}
	if o.FsyncEvery <= 0 {
		o.FsyncEvery = DefaultFsyncEvery
	}
	if o.CompactAfter == 0 {
		o.CompactAfter = DefaultCompactAfter
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return o
}

// Stats are the engine's cumulative counters, readable while running.
type Stats struct {
	Appends     atomic.Uint64 // records appended
	Syncs       atomic.Uint64 // fsync calls issued
	Compactions atomic.Uint64 // completed compactions
	Recovered   atomic.Uint64 // records replayed at Open
	Truncated   atomic.Uint64 // bytes cut from a torn tail at Open
	// PersistErrors counts store mutations the log refused or failed to
	// take (Persist* has no error return): each is applied in memory but
	// will not survive a restart. Today that is every body over the 16 MiB
	// record cap, and every mutation after the engine went degraded.
	PersistErrors atomic.Uint64
}

// Engine is one peer's write-ahead log. Safe for concurrent use.
type Engine struct {
	opts Options

	mu         sync.Mutex // serializes appends, rotation, close
	active     *os.File
	activeSeq  uint64
	activeSize int64
	writeSeq   uint64   // records written (monotonic)
	sealed     []uint64 // sealed segment numbers, ascending
	closed     bool
	failed     error // sticky first write/sync failure; engine is degraded
	// enc is the encode buffer appends share under mu: a record's head,
	// plus its payload when that is at most inlineData bytes — so it never
	// outgrows one small record, whatever sizes pass through.
	enc []byte

	lastPersistWarn atomic.Int64 // unix nanoseconds; spaces persist's warnings

	// Group commit: syncedSeq is the highest writeSeq known durable;
	// one flusher at a time syncs on behalf of every waiter behind it.
	syncMu    sync.Mutex
	syncCond  *sync.Cond
	syncedSeq uint64
	syncErr   error
	syncing   bool

	compactMu sync.Mutex // held by whoever compacts: at most one pass at a time
	wg        sync.WaitGroup
	quit      chan struct{}

	stats Stats
	log   *slog.Logger
}

// segPath names segment n inside dir.
func segPath(dir string, n uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%016x.seg", n))
}

// cptPath names the compacted-replacement file for segment n.
func cptPath(dir string, n uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%016x.cpt", n))
}

// parseSeq extracts the segment number from a ".seg" or ".cpt" file name.
func parseSeq(name string) (uint64, bool) {
	if len(name) != 16+4 {
		return 0, false
	}
	n, err := strconv.ParseUint(name[:16], 16, 64)
	return n, err == nil
}

// Open recovers the log in opts.Dir and returns the engine plus the
// replayed store state. Recovery replays every segment in order and stops
// at the first torn or corrupt record: that segment is truncated to its
// last valid record and any later segments are removed, so the rebuilt
// index is exactly the longest valid prefix of the log — an acked-but-
// torn tail is dropped whole, never half-applied. A missing directory
// yields an empty engine.
func Open(opts Options) (*Engine, *store.Store, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, nil, errors.New("wal: no data directory")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	e := &Engine{opts: opts, quit: make(chan struct{}), log: opts.Logger.With("component", "wal")}
	e.syncCond = sync.NewCond(&e.syncMu)
	if err := e.cleanupDir(); err != nil {
		return nil, nil, err
	}
	st, err := e.replayAll()
	if err != nil {
		return nil, nil, err
	}
	if err := e.openActive(); err != nil {
		return nil, nil, err
	}
	if e.opts.Fsync == FsyncInterval {
		e.wg.Add(1)
		go e.flushLoop()
	}
	return e, st, nil
}

// cleanupDir finishes any compaction the previous process died inside:
// temp files are dropped, and a completed ".cpt" file supersedes every
// segment at or below its number (the compactor wrote it durably before
// touching the originals), so it is promoted to a ".seg" after they go.
func (e *Engine) cleanupDir() error {
	entries, err := os.ReadDir(e.opts.Dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var cpts []uint64
	for _, ent := range entries {
		name := ent.Name()
		if strings.HasSuffix(name, ".tmp") {
			if err := os.Remove(filepath.Join(e.opts.Dir, name)); err != nil {
				return fmt.Errorf("wal: %w", err)
			}
			continue
		}
		if strings.HasSuffix(name, ".cpt") {
			if n, ok := parseSeq(name); ok {
				cpts = append(cpts, n)
			}
		}
	}
	if len(cpts) == 0 {
		return nil
	}
	// At most one compaction runs at a time, but be safe: promote the
	// newest checkpoint; older ones are themselves superseded by it.
	sort.Slice(cpts, func(i, j int) bool { return cpts[i] < cpts[j] })
	top := cpts[len(cpts)-1]
	for _, n := range cpts[:len(cpts)-1] {
		if err := os.Remove(cptPath(e.opts.Dir, n)); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
	}
	segs, err := e.listSegments()
	if err != nil {
		return err
	}
	for _, n := range segs {
		if n <= top {
			if err := os.Remove(segPath(e.opts.Dir, n)); err != nil {
				return fmt.Errorf("wal: %w", err)
			}
		}
	}
	if err := os.Rename(cptPath(e.opts.Dir, top), segPath(e.opts.Dir, top)); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	e.log.Info("promoted interrupted checkpoint", "segment", top)
	return e.syncDir()
}

// listSegments returns the ".seg" numbers in e.opts.Dir, ascending.
// Foreign files are ignored, so a README or lost+found never breaks open.
func (e *Engine) listSegments() ([]uint64, error) {
	entries, err := os.ReadDir(e.opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []uint64
	for _, ent := range entries {
		if !strings.HasSuffix(ent.Name(), ".seg") {
			continue
		}
		if n, ok := parseSeq(ent.Name()); ok {
			segs = append(segs, n)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

// replayAll rebuilds the store from every segment in order, applying the
// truncate-at-first-corruption rule, and leaves e.sealed/e.activeSeq set.
func (e *Engine) replayAll() (*store.Store, error) {
	segs, err := e.listSegments()
	if err != nil {
		return nil, err
	}
	st := store.New()
	for i, n := range segs {
		path := segPath(e.opts.Dir, n)
		valid, torn, err := replayFile(path, func(r record) {
			r.apply(st)
			e.stats.Recovered.Add(1)
			e.writeSeq++
		})
		if err != nil {
			return nil, err
		}
		if !torn {
			continue
		}
		// Torn or corrupt record: the longest valid prefix ends here.
		// Truncate this segment to it and drop every later segment —
		// records past a corruption have no reliable ordering context.
		info, err := os.Stat(path)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		e.stats.Truncated.Add(uint64(info.Size() - valid))
		if err := os.Truncate(path, valid); err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		dropped := segs[i+1:]
		for _, d := range dropped {
			e.stats.Truncated.Add(segSize(segPath(e.opts.Dir, d)))
			if err := os.Remove(segPath(e.opts.Dir, d)); err != nil {
				return nil, fmt.Errorf("wal: %w", err)
			}
		}
		e.log.Warn("recovery truncated torn tail",
			"segment", n, "valid_bytes", valid, "segments_dropped", len(dropped))
		segs = segs[:i+1]
		break
	}
	if len(segs) == 0 {
		e.activeSeq = 1
	} else {
		e.activeSeq = segs[len(segs)-1]
		e.sealed = segs[:len(segs)-1]
	}
	e.log.Info("recovery complete",
		"records", e.stats.Recovered.Load(), "names", st.Len(),
		"tombstones", st.TombstoneCount(), "segments", len(segs))
	return st, nil
}

func segSize(path string) uint64 {
	if info, err := os.Stat(path); err == nil {
		return uint64(info.Size())
	}
	return 0
}

// openActive opens (or creates) the active segment for appending.
func (e *Engine) openActive() error {
	f, err := os.OpenFile(segPath(e.opts.Dir, e.activeSeq), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	e.active = f
	e.activeSize = info.Size()
	return e.syncDir()
}

// syncDir fsyncs the data directory so renames and creates are durable.
// Directory fsync is best effort: some filesystems reject it (EINVAL),
// and on those the rename itself is the strongest ordering available.
func (e *Engine) syncDir() error {
	d, err := os.Open(e.opts.Dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		e.log.Debug("directory fsync unsupported", "err", err)
	}
	return nil
}

// scanBuf sizes the reader a segment is streamed through: all a scan holds
// of the file at a time, whatever the size of its records. It must hold a
// whole record head (recHeader + maxHead bytes).
const scanBuf = 256 << 10

// scanFile is the log's one record iterator: it streams path's records
// through br to visit, each with its offset and size in the file, and
// returns the offset of the last valid record boundary and whether the file
// was torn there. With load (Open's replay, whose store keeps the bodies) a
// put's payload is read into a buffer of its own; without (compaction's
// scan) it is only checksummed and r.data stays nil.
func scanFile(path string, br *bufio.Reader, load bool, visit func(r record, off, n int64)) (valid int64, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	br.Reset(f)
	for {
		r, n, err := readRecord(br, load)
		if err != nil {
			return valid, err != io.EOF, nil
		}
		visit(r, valid, n)
		valid += n
	}
}

// replayFile streams path's records, payloads loaded, through apply.
func replayFile(path string, apply func(record)) (valid int64, torn bool, err error) {
	return scanFile(path, bufio.NewReaderSize(nil, scanBuf), true, func(r record, _, _ int64) { apply(r) })
}

// readRecord reads the next record off br, verifies its CRC, and returns it
// with its size on disk. Head and name are parsed out of br's own buffer,
// and so, unless load is set, is the payload checksummed: nothing is
// allocated but the name. io.EOF means br ended cleanly on a record
// boundary; errCorrupt means the log is torn here (CRC mismatch, impossible
// length, truncated read — anything that says "the log ends here").
func readRecord(br *bufio.Reader, load bool) (record, int64, error) {
	hdr, err := br.Peek(recHeader)
	if err != nil {
		// Clean EOF at a record boundary ends the segment; a partial
		// header is a torn write.
		if len(hdr) == 0 && errors.Is(err, io.EOF) {
			return record{}, 0, io.EOF
		}
		return record{}, 0, errCorrupt
	}
	length := int(binary.BigEndian.Uint32(hdr[:4]))
	crc := binary.BigEndian.Uint32(hdr[4:8])
	if length < bodyHeader || length > maxBody {
		return record{}, 0, errCorrupt
	}
	head, err := br.Peek(recHeader + min(length, maxHead))
	if err != nil {
		return record{}, 0, errCorrupt
	}
	r, dataLen, err := decodeHead(head[recHeader:], length)
	if err != nil {
		return record{}, 0, errCorrupt
	}
	sum := crc32c.Sum(head[recHeader : recHeader+length-dataLen])
	br.Discard(recHeader + length - dataLen) // buffered: cannot fail
	if load && r.op == opPut {
		r.data = make([]byte, dataLen)
		_, err = io.ReadFull(br, r.data)
		sum = crc32c.Update(sum, r.data)
	} else {
		sum, err = discardSum(br, sum, dataLen)
	}
	if err != nil || sum != crc {
		return record{}, 0, errCorrupt
	}
	return r, int64(recHeader + length), nil
}

// discardSum consumes the next n bytes of br through br's own buffer,
// folding them into the running CRC-32C sum.
func discardSum(br *bufio.Reader, sum uint32, n int) (uint32, error) {
	for n > 0 {
		if br.Buffered() == 0 {
			if _, err := br.Peek(1); err != nil { // refills with one read
				return sum, err
			}
		}
		chunk, _ := br.Peek(min(n, br.Buffered()))
		sum = crc32c.Update(sum, chunk)
		br.Discard(len(chunk))
		n -= len(chunk)
	}
	return sum, nil
}

// inlineData is the largest payload an append copies into the engine's
// encode buffer to write the record with one Write. A larger payload is
// written from where it lives, right after the record's head: one more
// write syscall, against a payload-sized copy and an encode buffer that
// would have to be either reallocated per record or pinned at 16 MiB.
const inlineData = 64 << 10

// append encodes and writes one record, rotating segments as needed, and
// honors the fsync policy before acknowledging. It is the single funnel
// every Persist* method feeds. A failed write or sync marks the engine
// degraded: the error is returned now and by every later append, so the
// owner can surface it rather than silently running volatile.
func (e *Engine) append(r record) error {
	if err := r.check(); err != nil {
		return err // refused before it can hold up the other appenders
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return errors.New("wal: engine closed")
	}
	if e.failed != nil {
		err := e.failed
		e.mu.Unlock()
		return err
	}
	head, payload := appendRecordHead(e.enc[:0], r), r.payload()
	if len(payload) <= inlineData {
		head, payload = append(head, payload...), nil
	}
	e.enc = head
	if e.activeSize >= e.opts.SegmentSize {
		if err := e.rotateLocked(); err != nil {
			e.failed = err
			e.mu.Unlock()
			return err
		}
	}
	_, err := e.active.Write(head)
	if err == nil && payload != nil {
		// A crash between the two writes leaves a torn record, which
		// recovery truncates exactly like a torn single write.
		_, err = e.active.Write(payload)
	}
	if err != nil {
		e.failed = fmt.Errorf("wal: append: %w", err)
		err := e.failed
		e.mu.Unlock()
		e.log.Error("append failed; engine degraded", "err", err)
		return err
	}
	e.activeSize += int64(len(head) + len(payload))
	e.writeSeq++
	seq := e.writeSeq
	e.mu.Unlock()
	e.stats.Appends.Add(1)
	if e.opts.Fsync == FsyncAlways {
		return e.waitDurable(seq)
	}
	return nil
}

// waitDurable blocks until every record up to seq is fsynced — the group
// commit. The first waiter to find no flush in flight becomes the leader:
// it snapshots the current write frontier, syncs once, publishes the new
// durable frontier and wakes everyone. Waiters whose records that flush
// covered return immediately; later writers elect the next leader. One
// fsync therefore covers every record that landed while the previous
// fsync was on disk — batch size grows with load, which is exactly when
// per-record syncing would fall over.
func (e *Engine) waitDurable(seq uint64) error {
	e.syncMu.Lock()
	defer e.syncMu.Unlock()
	for e.syncedSeq < seq {
		if e.syncErr != nil {
			return e.syncErr
		}
		if e.syncing {
			e.syncCond.Wait()
			continue
		}
		e.syncing = true
		e.syncMu.Unlock()

		e.mu.Lock()
		target := e.writeSeq
		f := e.active
		e.mu.Unlock()
		var err error
		if f != nil {
			err = f.Sync()
			e.stats.Syncs.Add(1)
		}

		e.syncMu.Lock()
		e.syncing = false
		if err != nil && !errors.Is(err, os.ErrClosed) {
			e.syncErr = fmt.Errorf("wal: fsync: %w", err)
			e.log.Error("fsync failed; engine degraded", "err", e.syncErr)
		} else if target > e.syncedSeq {
			e.syncedSeq = target
		}
		e.syncCond.Broadcast()
	}
	return e.syncErr
}

// noteSynced publishes that records up to seq are durable (used by
// rotation and the interval flusher, which sync outside the group path).
func (e *Engine) noteSynced(seq uint64) {
	e.syncMu.Lock()
	if seq > e.syncedSeq {
		e.syncedSeq = seq
	}
	e.syncCond.Broadcast()
	e.syncMu.Unlock()
}

// rotateLocked seals the active segment (sync + close) and opens the
// next. Callers hold e.mu. Sealing syncs unconditionally — whatever the
// policy, a sealed segment is immutable and durable, which is what lets
// compaction treat sealed files as ground truth.
func (e *Engine) rotateLocked() error {
	if err := e.active.Sync(); err != nil {
		return fmt.Errorf("wal: seal segment %d: %w", e.activeSeq, err)
	}
	e.stats.Syncs.Add(1)
	e.noteSynced(e.writeSeq)
	if err := e.active.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	e.sealed = append(e.sealed, e.activeSeq)
	e.activeSeq++
	f, err := os.OpenFile(segPath(e.opts.Dir, e.activeSeq), os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	e.active = f
	e.activeSize = 0
	if err := e.syncDir(); err != nil {
		return err
	}
	if e.opts.CompactAfter > 0 && len(e.sealed) >= e.opts.CompactAfter {
		e.startCompaction(append([]uint64(nil), e.sealed...))
	}
	return nil
}

// flushLoop is the FsyncInterval policy's timer: the active segment is
// synced every FsyncEvery until close.
func (e *Engine) flushLoop() {
	defer e.wg.Done()
	ticker := time.NewTicker(e.opts.FsyncEvery)
	defer ticker.Stop()
	for {
		select {
		case <-e.quit:
			return
		case <-ticker.C:
			e.Sync()
		}
	}
}

// Sync forces an fsync of the active segment now, whatever the policy.
func (e *Engine) Sync() error {
	e.mu.Lock()
	f := e.active
	seq := e.writeSeq
	closed := e.closed
	e.mu.Unlock()
	if closed || f == nil {
		return nil
	}
	if err := f.Sync(); err != nil {
		if errors.Is(err, os.ErrClosed) {
			return nil // lost a race with rotation, which synced before closing
		}
		return fmt.Errorf("wal: fsync: %w", err)
	}
	e.stats.Syncs.Add(1)
	e.noteSynced(seq)
	return nil
}

// startCompaction spawns the background compactor over the given sealed
// segments, at most one at a time. Callers hold e.mu.
func (e *Engine) startCompaction(segs []uint64) {
	if len(segs) == 0 || !e.compactMu.TryLock() {
		return
	}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		defer e.compactMu.Unlock()
		if err := e.compact(segs); err != nil {
			e.log.Warn("compaction failed; segments kept", "err", err)
		}
	}()
}

// span locates one put record inside a sealed segment.
type span struct {
	seg    uint64
	off, n int64
}

// compact rewrites sealed segments into one checkpoint segment holding
// only live state: the latest version of every name (superseded versions
// drop out) and tombstones younger than the GC horizon. No record body is
// ever loaded: memory is O(live names) plus one scanBuf reader, whatever
// the records' size. Only immutable sealed files are touched, so appends
// continue concurrently. Callers hold e.compactMu. The dance is crash-safe
// at every step:
//
//  1. scan the sealed segments (scanSealed): every record is CRC-verified
//     and replayed, without its payload, into a scratch store that says
//     which names and tombstones are live, while the position of each
//     name's latest put is remembered
//  2. copy the live puts, byte for byte and file to file, to <top>.cpt.tmp
//     (copyLive), append the surviving tombstones, fsync, rename to
//     <top>.cpt, fsync dir    — the checkpoint now exists durably
//  3. remove the sealed segments (the .cpt supersedes them)
//  4. rename <top>.cpt → <top>.seg, fsync dir
//
// A failure before the .cpt exists removes the .tmp (a crash there leaves
// it for Open to delete); inside 3 or 4, Open finds the .cpt and finishes
// the promotion itself (cleanupDir). Replay order is preserved because the
// checkpoint takes the highest compacted segment number, sorting exactly
// where the data it replaces ended.
func (e *Engine) compact(segs []uint64) error {
	start := time.Now()
	st, puts, scanned, bytesIn, err := e.scanSealed(segs)
	if err != nil {
		return err
	}
	top := segs[len(segs)-1]
	tmp := cptPath(e.opts.Dir, top) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	committed := false
	defer func() {
		if !committed {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err := e.copyLive(f, puts); err != nil {
		return err
	}
	kept := len(puts)
	horizon := time.Time{}
	if e.opts.TombstoneGC > 0 {
		horizon = time.Now().Add(-e.opts.TombstoneGC)
	}
	var tombs []byte
	for _, t := range st.Tombstones() {
		if !horizon.IsZero() && t.At.Before(horizon) {
			continue // the deletion has reached every replica by now
		}
		tombs = appendRecordHead(tombs, record{op: opTombstone, version: t.Version, at: t.At.UnixNano(), name: t.Name})
		kept++
	}
	if _, err := f.Write(tombs); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	bytesOut, _ := f.Seek(0, io.SeekCurrent) // for the log line only
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := os.Rename(tmp, cptPath(e.opts.Dir, top)); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	committed = true
	if err := e.syncDir(); err != nil {
		return err
	}
	for _, n := range segs {
		if err := os.Remove(segPath(e.opts.Dir, n)); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
	}
	if err := os.Rename(cptPath(e.opts.Dir, top), segPath(e.opts.Dir, top)); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := e.syncDir(); err != nil {
		return err
	}
	// Replace the compacted range in the sealed list with the checkpoint.
	e.mu.Lock()
	var next []uint64
	for _, n := range e.sealed {
		if n > top {
			next = append(next, n)
		}
	}
	e.sealed = append([]uint64{top}, next...)
	e.mu.Unlock()
	e.stats.Compactions.Add(1)
	e.log.Info("compacted segments",
		"segments", len(segs), "records_in", scanned, "records_out", kept,
		"bytes_in", bytesIn, "bytes_out", bytesOut, "elapsed", time.Since(start))
	return nil
}

// scanSealed is compaction's first pass. It streams every record of segs,
// CRC-verified but without its payload, into a scratch store — so what is
// live afterwards is decided by record.apply, exactly as at Open — and
// returns that store with the spans of the live puts in log order, plus the
// records and bytes scanned. The dead records' payloads are checksummed too:
// a sealed segment that fails anywhere aborts the pass.
func (e *Engine) scanSealed(segs []uint64) (st *store.Store, puts []span, records uint64, size int64, err error) {
	st = store.New()
	latest := make(map[string]span) // name → its last put, for the names st holds
	br := bufio.NewReaderSize(nil, scanBuf)
	for _, seg := range segs {
		valid, torn, err := scanFile(segPath(e.opts.Dir, seg), br, false, func(r record, off, n int64) {
			r.apply(st)
			records++
			switch r.op {
			case opPut:
				latest[r.name] = span{seg: seg, off: off, n: n}
			case opRetire:
				clear(latest)
			default:
				delete(latest, r.name)
			}
		})
		if err != nil {
			return nil, nil, 0, 0, err
		}
		if torn {
			// Sealed segments are synced whole; a torn one means outside
			// interference. Leave the log alone rather than compact a lie.
			return nil, nil, 0, 0, fmt.Errorf("wal: sealed segment %d is corrupt", seg)
		}
		size += valid
	}
	puts = make([]span, 0, st.Len())
	for _, name := range st.AllNames() {
		puts = append(puts, latest[name])
	}
	sort.Slice(puts, func(i, j int) bool {
		if puts[i].seg != puts[j].seg {
			return puts[i].seg < puts[j].seg
		}
		return puts[i].off < puts[j].off
	})
	return st, puts, records, size, nil
}

// copyLive is compaction's second pass: the records at puts, sorted in log
// order, go to dst verbatim — a logged put already carries the kind the
// store decided on, so the bytes a checkpoint needs are the bytes on disk.
// Both ends are plain files, so io.CopyN hands each run of adjacent records
// to the kernel (copy_file_range on Linux) and no payload enters the heap.
func (e *Engine) copyLive(dst *os.File, puts []span) error {
	var src *os.File // sealed segment number open, nil before the first
	var open uint64
	defer func() {
		if src != nil {
			src.Close()
		}
	}()
	for i := 0; i < len(puts); {
		run := puts[i]
		for i++; i < len(puts) && puts[i].seg == run.seg && puts[i].off == run.off+run.n; i++ {
			run.n += puts[i].n
		}
		if src == nil || run.seg != open {
			if src != nil {
				src.Close()
			}
			var err error
			if src, err = os.Open(segPath(e.opts.Dir, run.seg)); err != nil {
				return fmt.Errorf("wal: %w", err)
			}
			open = run.seg
		}
		if _, err := src.Seek(run.off, io.SeekStart); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		if _, err := io.CopyN(dst, src, run.n); err != nil {
			return fmt.Errorf("wal: copy from segment %d: %w", run.seg, err)
		}
	}
	return nil
}

// Checkpoint seals the active segment and compacts every sealed segment
// synchronously — the explicit snapshot point (Peer.Checkpoint). The
// resulting single segment holds exactly the live state.
func (e *Engine) Checkpoint() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return errors.New("wal: engine closed")
	}
	if e.failed != nil {
		err := e.failed
		e.mu.Unlock()
		return err
	}
	if e.activeSize > 0 {
		if err := e.rotateLocked(); err != nil {
			e.failed = err
			e.mu.Unlock()
			return err
		}
	}
	e.mu.Unlock()
	// Serialize with any background compaction the rotation spawned, then
	// take whatever is sealed once it is done.
	e.compactMu.Lock()
	defer e.compactMu.Unlock()
	e.mu.Lock()
	segs := append([]uint64(nil), e.sealed...)
	e.mu.Unlock()
	if len(segs) == 0 {
		return nil
	}
	return e.compact(segs)
}

// Close flushes and fsyncs the active segment, stops the background
// flusher and any compaction, and closes the engine. The returned error
// reports the first write or sync failure of the engine's lifetime, so a
// degraded engine cannot shut down looking healthy.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	close(e.quit)
	f := e.active
	seq := e.writeSeq
	err := e.failed
	e.mu.Unlock()
	e.wg.Wait()
	if f != nil {
		if serr := f.Sync(); serr != nil && err == nil && !errors.Is(serr, os.ErrClosed) {
			err = fmt.Errorf("wal: close sync: %w", serr)
		}
		e.stats.Syncs.Add(1)
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("wal: %w", cerr)
		}
	}
	// Wake any group-commit waiters; their records are synced (or the
	// engine failed, which syncErr already carries).
	e.syncMu.Lock()
	if e.syncErr == nil && err != nil {
		e.syncErr = err
	}
	if seq > e.syncedSeq && e.syncErr == nil {
		e.syncedSeq = seq
	}
	e.syncCond.Broadcast()
	e.syncMu.Unlock()
	return err
}

// Err returns the engine's sticky failure, if any — non-nil means the
// log is degraded and acks are no longer durable.
func (e *Engine) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.failed
}

// Stats exposes the engine's counters.
func (e *Engine) Stats() *Stats { return &e.stats }

// Segments reports (sealed, activeBytes) — observability for tests and
// status lines.
func (e *Engine) Segments() (sealed int, activeBytes int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.sealed), e.activeSize
}

// Dir returns the engine's data directory.
func (e *Engine) Dir() string { return e.opts.Dir }

// --- store.Persister ---
//
// The engine plugs straight into store.Sharded: every mutation the store
// applies is appended here before the shard lock is released, so the log
// order matches the apply order per name, and — under FsyncAlways — a
// handler that has the mutation applied also has it durable before it
// can acknowledge. The store's mutators return nothing, so an append that
// fails is counted and warned about (persist) rather than propagated; write
// and sync failures are also sticky in the engine (Err, Close).

// PersistPut logs a copy placement or overwrite.
func (e *Engine) PersistPut(f store.File, kind store.Kind) {
	e.persist(record{op: opPut, kind: kind, version: f.Version, name: f.Name, data: f.Data})
}

// PersistTombstone logs a versioned deletion marker.
func (e *Engine) PersistTombstone(name string, version uint64, at time.Time) {
	e.persist(record{op: opTombstone, version: version, at: at.UnixNano(), name: name})
}

// PersistDelete logs a local-only removal (no tombstone).
func (e *Engine) PersistDelete(name string) {
	e.persist(record{op: opDelete, name: name})
}

// persistWarnEvery spaces the warnings about unlogged mutations: the
// counter carries the volume, the log line says what and why.
const persistWarnEvery = 10 * time.Second

// persist appends r for a Persist* caller, which has no way to return an
// error: a failure is counted (Stats.PersistErrors, surfaced in the peer's
// stat snapshot and /metrics) and warned about at most once per
// persistWarnEvery, instead of being dropped on the floor.
func (e *Engine) persist(r record) {
	err := e.append(r)
	if err == nil {
		return
	}
	n := e.stats.PersistErrors.Add(1)
	now := time.Now().UnixNano()
	if last := e.lastPersistWarn.Load(); (last != 0 && now-last < int64(persistWarnEvery)) ||
		!e.lastPersistWarn.CompareAndSwap(last, now) {
		return
	}
	e.log.Warn("mutation applied in memory but not logged; it will not survive a restart",
		"name", r.name, "payload_bytes", len(r.data), "payload_cap", maxData,
		"persist_errors", n, "err", err)
}

// Retire appends the departure barrier (§5.2): one record marking every
// copy and tombstone logged before it as retired. A graceful Leave calls
// this instead of logging one delete per migrated name — the write-
// amplification fix — after discarding its store in memory, so replay
// rebuilds an empty store and a restarted peer does not re-announce
// copies the fabric already re-homed. Compaction absorbs the barrier
// naturally: replaying it empties the scratch store, and the checkpoint
// writes only what is live after it.
func (e *Engine) Retire() error {
	return e.append(record{op: opRetire, at: time.Now().UnixNano()})
}
