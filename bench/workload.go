package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
	"math/rand/v2"
)

// Op kinds, in the order every per-kind array in this package uses.
const (
	opGet = iota
	opUpdate
	opInsert
	opDelete
	opKinds
)

var opNames = [opKinds]string{"get", "update", "insert", "delete"}

// spec is one named workload. The names are fixed: later issues cite them.
type spec struct {
	name string
	why  string
	// gatewayEdge sends ops through the gateway's wire server on one
	// netnode.Conn; otherwise a locate-mode netnode.Client talks straight to
	// entry peer 0 (the lesslogd client's ladder, no gateway cache).
	gatewayEdge bool
	names       int
	size        int
	// hot is the share of names that receives 80% of the ops (§6's load
	// model); 0 chooses names uniformly.
	hot float64
	// mix is the share of gets, updates, inserts and deletes.
	mix [opKinds]float64
	// pool names are cycled by inserts and deletes so the main set stays fixed.
	pool int
	// tailQ is the highest percentile with at least ten samples beyond it
	// in a 30 s window.
	tailQ float64
	// maxRate bounds the op stream and the sample arrays generated ahead of
	// a window, in ops per second: about twice the rate seen on the runner.
	maxRate int
	// traceOps is how many ops each entry depth replays in the traced pass.
	traceOps int
	// setups is how many times an untraced run sets up, each time on a fresh
	// fabric; setup_s is their median. The quicker the set-up, the more of
	// them it takes to time it: 3 to 5 s of set-ups on every workload but
	// cold_4k, whose three take 10 s.
	setups int
}

var specs = []spec{
	{
		name:        "hot_4k",
		why:         "1024 x 4 KiB names with 80% of ops on 20% of them, 95% get / 5% update through the gateway: the working set fits its cache, so msg, transport and gateway do the work and per-frame cost dominates",
		gatewayEdge: true, names: 1024, size: 4 << 10, hot: 0.2,
		mix: [opKinds]float64{0.95, 0.05, 0, 0}, tailQ: 0.95, maxRate: 60000, traceOps: 4000, setups: 25,
	},
	{
		name:        "cold_4k",
		why:         "32768 x 4 KiB names chosen uniformly (8x the gateway cache), 70/20/5/5 get/update/insert/delete: the cache is bypassed, so routehint, the locate walk, store and wal do the work, writes beside reads",
		gatewayEdge: true, names: 32768, size: 4 << 10, pool: 4096,
		mix: [opKinds]float64{0.70, 0.20, 0.05, 0.05}, tailQ: 0.95, maxRate: 20000, traceOps: 4000, setups: 3,
	},
	{
		name:  "mid_1m",
		why:   "128 x 1 MiB names, 70% get / 30% update through a locate client at peer 0: one-chunk reads, whole-frame writes with notify/pull, the size where fixed per-transfer overhead in stream and netnode shows",
		names: 128, size: 1 << 20,
		mix: [opKinds]float64{0.70, 0.30, 0, 0}, tailQ: 0.90, maxRate: 2000, traceOps: 200, setups: 9,
	},
	{
		name:  "bulk_32m",
		why:   "8 x 32 MiB names, 70% get / 30% update through the same client: over one frame, so only the chunk plane carries it and per-byte cost (copies, CRC, allocation) dominates, the opposite of hot_4k",
		names: 8, size: 32 << 20,
		mix: [opKinds]float64{0.70, 0.30, 0, 0}, tailQ: 0.90, maxRate: 100, traceOps: 40, setups: 3,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// Payload header: every payload starts with these bytes, so a get can be
// checked without knowing which write produced it.
const (
	hdrNameHash = 0  // FNV-64a of the name
	hdrSeq      = 8  // per-name sequence, raised by every write
	hdrBodyCRC  = 16 // CRC-32C of the body
	hdrVariant  = 20 // which of the pre-generated bodies follows
	hdrSize     = 24
)

// sparseBlocks is how many fixed 4 KiB blocks are compared on a payload too
// large to checksum on every get.
const (
	sparseBlocks   = 64
	sparseBlockLen = 4 << 10
	fullCheckMax   = 1 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// variant is one pre-generated payload: a header slot plus a random body
// with its checksum. The closed loop stamps the header in place, so a write
// allocates nothing.
type variant struct {
	buf []byte
	crc uint32
}

// state is the workload's inputs, generated from the seed, and the client's
// knowledge of the fabric: the last acknowledged sequence of every name.
type state struct {
	spec     spec
	seed     uint64
	names    []string // main set, then the insert/delete pool
	hashes   []uint64
	seq      []uint64 // last sequence written (acknowledged: the loop is closed)
	variants []variant
	// The pool is a ring: deletes take the oldest present name, inserts
	// restore the oldest absent one, so every op in the stream is valid.
	deleted, inserted uint64
}

func newState(sp spec, seed uint64) *state {
	st := &state{spec: sp, seed: seed}
	n := sp.names + sp.pool
	st.names = make([]string, n)
	st.hashes = make([]uint64, n)
	st.seq = make([]uint64, n)
	for i := range st.names {
		// The names do not depend on the seed, so every run places them on the
		// same peers; the seed picks the op order and the payload bodies.
		st.names[i] = fmt.Sprintf("%s/%06d", sp.name, i)
		h := fnv.New64a()
		h.Write([]byte(st.names[i]))
		st.hashes[i] = h.Sum64()
	}
	// Eight bodies let eight set-up workers insert at once; a 32 MiB
	// workload keeps two so the harness does not outweigh the fabric.
	k := 8
	if sp.size > fullCheckMax {
		k = 2
	}
	rng := rand.New(rand.NewPCG(seed, 0x76617269616e74)) // "variant"
	st.variants = make([]variant, k)
	for v := range st.variants {
		buf := make([]byte, sp.size)
		body := buf[hdrSize:]
		for i := 0; i+8 <= len(body); i += 8 {
			binary.LittleEndian.PutUint64(body[i:], rng.Uint64())
		}
		st.variants[v] = variant{buf: buf, crc: crc32.Checksum(body, castagnoli)}
		binary.BigEndian.PutUint32(buf[hdrBodyCRC:], st.variants[v].crc)
		binary.BigEndian.PutUint32(buf[hdrVariant:], uint32(v))
	}
	return st
}

// payload stamps the next write of name i into variant v and returns it.
// The caller commits the sequence with st.seq[i]++ once the write is acked.
func (st *state) payload(i, v int) []byte {
	buf := st.variants[v].buf
	binary.BigEndian.PutUint64(buf[hdrNameHash:], st.hashes[i])
	binary.BigEndian.PutUint64(buf[hdrSeq:], st.seq[i]+1)
	return buf
}

// verify checks a get of name i: length, header, read-your-writes (the
// sequence is the last acknowledged one: the loop is closed, so nothing
// newer exists) and the body, in full up to 1 MiB and by fixed blocks above.
func (st *state) verify(i int, data []byte) error {
	if len(data) != st.spec.size {
		return fmt.Errorf("%s: %d bytes, want %d", st.names[i], len(data), st.spec.size)
	}
	if h := binary.BigEndian.Uint64(data[hdrNameHash:]); h != st.hashes[i] {
		return fmt.Errorf("%s: name hash %016x, want %016x", st.names[i], h, st.hashes[i])
	}
	if s := binary.BigEndian.Uint64(data[hdrSeq:]); s != st.seq[i] {
		return fmt.Errorf("%s: sequence %d, last acknowledged write is %d", st.names[i], s, st.seq[i])
	}
	v := int(binary.BigEndian.Uint32(data[hdrVariant:]))
	if v >= len(st.variants) {
		return fmt.Errorf("%s: body variant %d out of range", st.names[i], v)
	}
	want := st.variants[v]
	if c := binary.BigEndian.Uint32(data[hdrBodyCRC:]); c != want.crc {
		return fmt.Errorf("%s: header checksum %08x, want %08x", st.names[i], c, want.crc)
	}
	if len(data) <= fullCheckMax {
		if c := crc32.Checksum(data[hdrSize:], castagnoli); c != want.crc {
			return fmt.Errorf("%s: body checksum %08x, want %08x", st.names[i], c, want.crc)
		}
		return nil
	}
	stride := (len(data) - hdrSize - sparseBlockLen) / (sparseBlocks - 1)
	for b := 0; b < sparseBlocks; b++ {
		off := hdrSize + b*stride
		if !bytes.Equal(data[off:off+sparseBlockLen], want.buf[off:off+sparseBlockLen]) {
			return fmt.Errorf("%s: body differs in the block at offset %d", st.names[i], off)
		}
	}
	return nil
}

// An op is a kind and, for gets and updates, a name of the main set, packed
// so a window's stream is one flat array. Inserts and deletes take their
// name from the pool ring when they run.
type op uint32

func (o op) kind() int { return int(o >> 30) }
func (o op) name() int { return int(o & (1<<30 - 1)) }

// mixBlock is the length of one block of the op stream. Each block holds
// the workload's mix exactly, in shuffled order, so a window of a few
// hundred ops has the same share of updates in every run.
const mixBlock = 20

// genOps generates the op stream of one phase from the seed: the same seed
// and phase give the same stream, however much of it a run consumes.
func (st *state) genOps(phase uint64, n int) []op {
	sp := st.spec
	rng := rand.New(rand.NewPCG(st.seed, phase))
	hot := int(float64(sp.names) * sp.hot)
	var block []int
	for kind, share := range sp.mix {
		for i := 0; i < int(math.Round(share*mixBlock)); i++ {
			block = append(block, kind)
		}
	}
	ops := make([]op, n)
	for i := range ops {
		if i%len(block) == 0 {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		name := rng.IntN(sp.names)
		if hot > 0 {
			if rng.Float64() < 0.8 {
				name = rng.IntN(hot)
			} else {
				name = hot + rng.IntN(sp.names-hot)
			}
		}
		ops[i] = op(block[i%len(block)]<<30 | name)
	}
	return ops
}

// resolve turns a generated op into the kind and name to run now: an insert
// with nothing deleted becomes a delete and the reverse, so pool ops never fail.
func (st *state) resolve(o op) (kind, name int) {
	kind, name = o.kind(), o.name()
	pool := uint64(st.spec.pool)
	switch kind {
	case opInsert:
		if st.inserted == st.deleted {
			kind = opDelete
		}
	case opDelete:
		if st.deleted-st.inserted == pool {
			kind = opInsert
		}
	}
	switch kind {
	case opInsert:
		name = st.spec.names + int(st.inserted%pool)
	case opDelete:
		name = st.spec.names + int(st.deleted%pool)
	}
	return kind, name
}

// commit records an acknowledged write.
func (st *state) commit(kind, name int) {
	switch kind {
	case opUpdate:
		st.seq[name]++
	case opInsert:
		st.seq[name]++
		st.inserted++
	case opDelete:
		st.deleted++
	}
}
