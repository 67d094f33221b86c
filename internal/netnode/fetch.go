package netnode

// The peer side of the chunked data plane (docs/ROUTING.md): ranged
// KindFetch reads served straight from the sharded store, and the
// KindLocateSet walk that names the holders to fetch from. A fetch is
// serve-or-refuse, never forwarded (the client already resolved the
// holders); a locate-set forwards along the lookup tree exactly like a
// relay get.

import (
	"fmt"
	"sync"
	"time"

	"lesslog/internal/bitops"
	"lesslog/internal/crc32c"
	"lesslog/internal/msg"
	"lesslog/internal/store"
)

// crc is a body's whole-file CRC-32C where a step on this peer has already
// computed or verified it and hands it on with the body (docs/ROUTING.md
// "Checksums"); the zero value says nobody has.
type crc struct {
	sum   uint32
	known bool
}

// sumBody is the one place this peer passes CRC-32C over body bytes.
func (p *Peer) sumBody(b []byte) uint32 {
	p.stats.ChecksummedBytes.Add(uint64(len(b)))
	return crc32c.Sum(b)
}

// maxSums bounds the remembered-sum table: past it an arbitrary entry makes
// room, and the name it belonged to pays one pass the next time it is asked.
const maxSums = 1024

// sumTable remembers the whole-file CRC-32C of bodies this peer has summed
// or verified — a body parked in the outbox by the write that stamped its
// version, a stored body a pull or a commit verified, a stored body a
// multi-chunk fetch had to sum — so the chunk plane can declare a body's sum
// without passing over it again. One entry per name, consulted only on an
// exact version-and-size match, and never keyed by where the bytes live: a
// freed body's address comes back under the next one of the same size. A
// wrong entry can only make a transfer fail closed, because every receiver
// still sums what it received against what the sender declared.
type sumTable struct {
	mu sync.RWMutex
	m  map[string]bodySum
}

type bodySum struct {
	version, size uint64
	sum           uint32
}

func (t *sumTable) get(name string, version uint64, size int) crc {
	t.mu.RLock()
	e, ok := t.m[name]
	t.mu.RUnlock()
	return crc{e.sum, ok && e.version == version && e.size == uint64(size)}
}

// put remembers sum, when it is known, for name at version; an entry for a
// newer version stays.
func (t *sumTable) put(name string, version uint64, size int, sum crc) {
	if !sum.known {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.m[name]
	if ok && e.version > version {
		return
	}
	if t.m == nil {
		t.m = make(map[string]bodySum)
	}
	if !ok && len(t.m) >= maxSums {
		for victim := range t.m {
			delete(t.m, victim)
			break
		}
	}
	t.m[name] = bodySum{version: version, size: uint64(size), sum: sum.sum}
}

// fileSum is f's whole-file CRC-32C: remembered, or one pass that is.
func (p *Peer) fileSum(f store.File) uint32 {
	sum := p.sums.get(f.Name, f.Version, len(f.Data))
	if !sum.known {
		sum = crc{p.sumBody(f.Data), true}
		p.sums.put(f.Name, f.Version, len(f.Data), sum)
	}
	return sum.sum
}

// ErrNotHolder is the answer to a ranged fetch at a peer that does not hold
// the file — the data plane's "your route hint is stale" signal. Clients
// match it to purge the hint and fall back to a locate.
const ErrNotHolder = msg.NotHolderError

// ErrWrongVersion is the answer to a version-pinned fetch whose pin no
// longer matches the held copy: the file moved on (or this replica lags)
// between the transfer's head chunk and this range. The response carries
// the version actually held, so the client can decide between retrying the
// range on another replica and restarting the transfer at the new version.
// Matching this string is how a striped transfer guarantees it never
// splices bytes from two versions.
const ErrWrongVersion = msg.WrongVersionError

// handleFetch serves one ranged chunk of a local copy. Always local-only:
// a fetch that misses answers ErrNotHolder and never forwards — the
// stale-hint miss must stay one cheap RPC. The
// head chunk (offset 0) counts the §6 store access so a chunked transfer
// weighs one serve, like a whole-frame get; later ranges peek. A
// FlagReplica fetch is a peer pulling a body for placement or notify
// propagation: it peeks even at offset 0 (replication is not popularity),
// and on a store miss or pin mismatch it may be served from the write
// outbox — the origin of a pull-based broadcast keeps the new version
// there until the broadcast returns, even if its own store copy is
// superseded again meanwhile.
func (p *Peer) handleFetch(req *msg.Request) *msg.Response {
	fr, err := msg.DecodeFetchReq(req.Data)
	if err != nil {
		return &msg.Response{Err: fmt.Sprintf("netnode: fetch decode: %v", err)}
	}
	replica := req.Flags&msg.FlagReplica != 0
	var f store.File
	var ok bool
	if fr.Offset == 0 && !replica {
		f, ok = p.store.Get(req.Name)
	} else {
		f, ok = p.store.Peek(req.Name)
	}
	if replica && (!ok || (req.Version != 0 && f.Version != req.Version)) {
		// Not stored, or the store moved past the pin: the pinned body may
		// still sit in the outbox for exactly this pull.
		if boxed, found := p.outbox.get(req.Name, req.Version); found {
			f.Release()
			f, ok = boxed, true
		}
	}
	if !ok {
		p.stats.DirectMisses.Add(1)
		return &msg.Response{Hops: req.Hops, Err: ErrNotHolder}
	}
	if req.Version != 0 && f.Version != req.Version {
		f.Release()
		p.stats.ChunkRefusals.Add(1)
		return &msg.Response{ServedBy: uint32(p.cfg.PID), Version: f.Version, Err: ErrWrongVersion}
	}
	total := uint64(len(f.Data))
	if fr.Offset > total || (fr.Offset == total && total != 0) {
		f.Release()
		return &msg.Response{ServedBy: uint32(p.cfg.PID), Version: f.Version,
			Err: fmt.Sprintf("netnode: fetch range at %d past total %d", fr.Offset, total)}
	}
	end := fr.Offset + uint64(fr.Length)
	if end > total {
		end = total // final chunk truncates at EOF
	}
	chunk := f.Data[fr.Offset:end]
	fresp := &msg.FetchResp{TotalSize: total, Chunk: chunk}
	// The head chunk declares the whole-file sum; one the peer remembers
	// costs no pass, and covers the chunk too when the chunk is the body.
	var whole crc
	if fr.Offset == 0 {
		whole = p.sums.get(f.Name, f.Version, len(f.Data))
	}
	if whole.known && end == total {
		fresp.ChunkCRC = whole.sum
	} else {
		fresp.ChunkCRC = p.sumBody(chunk)
	}
	switch {
	case fr.Offset != 0:
		// The whole-file CRC is O(total); computing it per chunk would make
		// an N-chunk transfer O(N·total). Only the head chunk carries it,
		// and the client always requests the head first to pin the shape.
	case whole.known:
		fresp.FileCRC = whole.sum
	case end == total:
		fresp.FileCRC = fresp.ChunkCRC // one chunk is the whole file: one pass
	default:
		// The one whole-file pass a body nobody summed yet costs, paid over
		// the bytes the chunk pass did not cover and remembered.
		rest := f.Data[end:]
		fresp.FileCRC = crc32c.Combine(fresp.ChunkCRC, p.sumBody(rest), uint64(len(rest)))
		p.sums.put(f.Name, f.Version, len(f.Data), crc{fresp.FileCRC, true})
	}
	// Only the fixed header is encoded; the chunk rides as the response's
	// Tail, a sub-slice of the stored body (stored bodies are replaced,
	// never rewritten in place, and the read's reference keeps a replaced
	// one's buffer off the free list until the chunk is written), so it
	// reaches the socket without a copy.
	hdr, err := msg.AppendFetchRespHeader(nil, fresp)
	if err != nil {
		f.Release()
		return &msg.Response{Err: fmt.Sprintf("netnode: fetch encode: %v", err)}
	}
	p.stats.ChunksServed.Add(1)
	p.stats.ChunkBytes.Add(uint64(len(chunk)))
	p.stats.DirectServed.Add(1)
	resp := &msg.Response{OK: true, ServedBy: uint32(p.cfg.PID), Hops: req.Hops,
		Version: f.Version, Data: hdr, Tail: chunk}
	resp.Attach(f.Ref) // the read's reference ends once the chunk is written
	return resp
}

// handleLocateSet resolves a name to its replica set without moving the
// payload — the control-plane half of the locate-then-fetch data plane
// (docs/ROUTING.md). It walks the same lookup tree as a relay get — same
// live-ancestor hops, same §3 FINDLIVENODE fallback, same §4 subtree
// migration, same trace frames (forwardLookup carries misses onward) — but
// the first holder reached answers with every required holder it can name
// instead of the file bytes: itself first with the real version, then the
// live primary holder of each subtree placement (§2.2 run in reverse,
// exactly the set the repair plane probes), version 0 for the unprobed.
// Clients stripe chunk fetches across the set; a listed holder that turns
// out stale or missing just refuses its fetch and is purged client-side,
// so the set is advisory like every route hint. Version, not Get: a locate
// must not count a store access, or locate-then-fetch would double-count a
// file's popularity relative to one relay get.
func (p *Peer) handleLocateSet(req *msg.Request) *msg.Response {
	start := time.Now()
	version, ok := p.store.Version(req.Name)
	if !ok {
		return p.forwardLookup(req, start)
	}
	p.stats.Located.Add(1)
	rt := p.rt()
	v := p.view(p.hasher.Target(req.Name, p.cfg.M))
	hs := make([]msg.Holder, 1, 8) // a typical set fits on the stack
	hs[0] = msg.Holder{PID: uint32(p.cfg.PID), Addr: p.Addr(), Version: version}
	var prims [8]bitops.PID
	for _, h := range v.AppendPrimaries(prims[:0]) {
		if h == p.cfg.PID {
			continue
		}
		addr, known := rt.addrs[h]
		if !known || len(hs) >= msg.MaxHolders {
			continue
		}
		hs = append(hs, msg.Holder{PID: uint32(h), Addr: addr})
	}
	data, err := msg.AppendHolders(nil, hs)
	if err != nil {
		return &msg.Response{Err: fmt.Sprintf("netnode: locate-set encode: %v", err)}
	}
	resp := &msg.Response{OK: true, ServedBy: uint32(p.cfg.PID), Hops: req.Hops,
		Version: version, Data: data}
	if req.Flags&msg.FlagTrace != 0 {
		resp.Path = appendHop(req.Path, uint32(p.cfg.PID), msg.HopLocate, time.Since(start))
	}
	return resp
}
