package stream

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lesslog/internal/msg"
)

// fakeHolder mimics the netnode fetch handler over one file copy.
type fakeHolder struct {
	mu      sync.Mutex
	data    []byte
	version uint64
	missing bool // answers not-holder
	refuses bool // answers unknown-kind: an ordinary request error
	fail    bool // transport error
	served  atomic.Uint64
}

// fakeNet routes Do calls to fakeHolders by address.
type fakeNet struct {
	holders map[string]*fakeHolder
}

// pointerDoer is the shape the fakes answer in, the one transport.Do has;
// exchange is their Doer side, the answer copied out by value.
type pointerDoer interface {
	Do(addr string, req *msg.Request) (*msg.Response, error)
}

func exchange(d pointerDoer, addr string, req msg.Request) (msg.Response, error) {
	resp, err := d.Do(addr, &req)
	if err != nil {
		return msg.Response{}, err
	}
	return *resp, nil
}

func (n *fakeNet) Exchange(addr string, req msg.Request, _ time.Duration) (msg.Response, error) {
	return exchange(n, addr, req)
}

func (n *fakeNet) Do(addr string, req *msg.Request) (*msg.Response, error) {
	h, ok := n.holders[addr]
	if !ok {
		return nil, fmt.Errorf("no route to %s", addr)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.fail {
		return nil, errors.New("connection refused")
	}
	if h.refuses {
		return &msg.Response{Err: msg.UnknownKindError(req.Kind)}, nil
	}
	if h.missing {
		return &msg.Response{Err: msg.NotHolderError}, nil
	}
	fr, err := msg.DecodeFetchReq(req.Data)
	if err != nil {
		return &msg.Response{Err: err.Error()}, nil
	}
	if req.Version != 0 && req.Version != h.version {
		return &msg.Response{Version: h.version, Err: msg.WrongVersionError}, nil
	}
	total := uint64(len(h.data))
	if fr.Offset > total || (fr.Offset == total && total != 0) {
		return &msg.Response{Err: "range past total"}, nil
	}
	end := fr.Offset + uint64(fr.Length)
	if end > total {
		end = total
	}
	chunk := h.data[fr.Offset:end]
	fresp := &msg.FetchResp{
		TotalSize: total,
		ChunkCRC:  crc32.Checksum(chunk, castagnoli),
		Chunk:     chunk,
	}
	if fr.Offset == 0 {
		fresp.FileCRC = crc32.Checksum(h.data, castagnoli)
	}
	out, err := msg.AppendFetchResp(nil, fresp)
	if err != nil {
		return &msg.Response{Err: err.Error()}, nil
	}
	h.served.Add(1)
	return &msg.Response{OK: true, Version: h.version, Data: out}, nil
}

func payload(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func replicaNet(data []byte, version uint64, n int) (*fakeNet, []Source) {
	net := &fakeNet{holders: map[string]*fakeHolder{}}
	var srcs []Source
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("holder-%d", i)
		net.holders[addr] = &fakeHolder{data: data, version: version}
		srcs = append(srcs, Source{PID: uint32(i + 1), Addr: addr})
	}
	return net, srcs
}

func TestFetchSingleChunk(t *testing.T) {
	data := payload(1000, 1)
	net, srcs := replicaNet(data, 7, 1)
	f := New(net, Config{ChunkSize: 4096, Window: 4})
	got, ver, err := f.Fetch("a", 0, srcs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) || ver != 7 {
		t.Fatalf("got %d bytes v%d, want %d bytes v7", len(got), ver, len(data))
	}
	if f.Stats().Transfers.Load() != 1 || f.Stats().ChunksFetched.Load() != 1 {
		t.Fatalf("stats: transfers=%d chunks=%d", f.Stats().Transfers.Load(), f.Stats().ChunksFetched.Load())
	}
}

func TestFetchEmptyFile(t *testing.T) {
	net, srcs := replicaNet(nil, 3, 1)
	f := New(net, Config{ChunkSize: 4096})
	got, ver, err := f.Fetch("a", 0, srcs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 || ver != 3 {
		t.Fatalf("got %d bytes v%d, want empty v3", len(got), ver)
	}
}

func TestFetchMultiChunkStriped(t *testing.T) {
	data := payload(100_000, 2)
	net, srcs := replicaNet(data, 9, 4)
	f := New(net, Config{ChunkSize: 8192, Window: 4})
	got, ver, err := f.Fetch("big", 0, srcs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) || ver != 9 {
		t.Fatalf("payload mismatch: %d bytes v%d", len(got), ver)
	}
	// Every replica should have served at least one chunk: 13 ranges over
	// 4 holders round-robin.
	width := 0
	for _, h := range net.holders {
		if h.served.Load() > 0 {
			width++
		}
	}
	if width != 4 {
		t.Fatalf("stripe width %d, want 4", width)
	}
	if f.Stats().StripeWidth.Load() != 4 {
		t.Fatalf("stats stripe width %d, want 4", f.Stats().StripeWidth.Load())
	}
}

func TestFetchRetryOnDeadReplica(t *testing.T) {
	data := payload(50_000, 3)
	net, srcs := replicaNet(data, 5, 3)
	net.holders["holder-1"].fail = true
	var evictedAddr string
	var evictedHard bool
	f := New(net, Config{ChunkSize: 4096, Window: 2,
		Evict: func(name, addr string, hard bool) { evictedAddr, evictedHard = addr, hard }})
	got, _, err := f.Fetch("x", 0, srcs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("payload mismatch after replica failure")
	}
	if evictedAddr != "holder-1" || !evictedHard {
		t.Fatalf("evict = (%q, %v), want (holder-1, true)", evictedAddr, evictedHard)
	}
	if f.Stats().ChunkRetries.Load() == 0 {
		t.Fatal("expected chunk retries after holder failure")
	}
}

func TestFetchStaleHintSoftEvict(t *testing.T) {
	data := payload(30_000, 4)
	net, srcs := replicaNet(data, 5, 3)
	net.holders["holder-0"].missing = true
	var soft int
	f := New(net, Config{ChunkSize: 4096,
		Evict: func(name, addr string, hard bool) {
			if !hard && addr == "holder-0" {
				soft++
			}
		}})
	got, _, err := f.Fetch("x", 0, srcs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("payload mismatch")
	}
	if soft != 1 {
		t.Fatalf("soft evictions = %d, want 1", soft)
	}
}

// An unknown-kind answer is not a protocol mode: a set of holders that all
// refuse the fetch fails the transfer with their error, like any other
// refusal that is neither not-holder nor wrong-version.
func TestFetchAllLegacyUnsupported(t *testing.T) {
	net, srcs := replicaNet(payload(10, 5), 1, 3)
	for _, h := range net.holders {
		h.refuses = true
	}
	f := New(net, Config{})
	_, _, err := f.Fetch("x", 0, srcs)
	if err == nil || errors.Is(err, ErrNotFound) || errors.Is(err, ErrVersionGone) ||
		!strings.Contains(err.Error(), msg.UnknownKindError(msg.KindFetch)) {
		t.Fatalf("err = %v, want the holders' unknown-kind refusal as an ordinary error", err)
	}
}

func TestFetchMixedLegacyStillWorks(t *testing.T) {
	data := payload(40_000, 6)
	net, srcs := replicaNet(data, 2, 3)
	net.holders["holder-0"].refuses = true
	f := New(net, Config{ChunkSize: 4096})
	got, _, err := f.Fetch("x", 0, srcs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("payload mismatch with one refusing replica")
	}
	if net.holders["holder-0"].served.Load() != 0 {
		t.Fatal("refusing holder should never serve chunks")
	}
}

func TestFetchAllMissingNotFound(t *testing.T) {
	net, srcs := replicaNet(payload(10, 7), 1, 2)
	for _, h := range net.holders {
		h.missing = true
	}
	f := New(net, Config{})
	if _, _, err := f.Fetch("x", 0, srcs); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestFetchVersionPinRefused(t *testing.T) {
	net, srcs := replicaNet(payload(10, 8), 4, 2)
	f := New(net, Config{})
	if _, _, err := f.Fetch("x", 3, srcs); !errors.Is(err, ErrVersionGone) {
		t.Fatalf("err = %v, want ErrVersionGone", err)
	}
}

// TestFetchNoSpliceUnderUpdate is the anti-splice guarantee: the head
// chunk pins version 1; before the body ranges run, every holder is
// swapped to version 2 with different bytes. The transfer must fail
// version-gone — never return a mix of v1 and v2 bytes.
func TestFetchNoSpliceUnderUpdate(t *testing.T) {
	v1 := payload(60_000, 9)
	v2 := payload(60_000, 10)
	net, srcs := replicaNet(v1, 1, 3)
	headDone := false
	inner := net
	swapping := doerFunc(func(addr string, req *msg.Request) (*msg.Response, error) {
		resp, err := inner.Do(addr, req)
		if !headDone && err == nil && resp.OK {
			// After the head chunk lands, land the concurrent update.
			headDone = true
			for _, h := range inner.holders {
				h.mu.Lock()
				h.data, h.version = v2, 2
				h.mu.Unlock()
			}
		}
		return resp, err
	})
	f := New(swapping, Config{ChunkSize: 4096, Window: 1})
	if _, _, err := f.Fetch("x", 0, srcs); !errors.Is(err, ErrVersionGone) {
		t.Fatalf("err = %v, want ErrVersionGone (spliced read must not succeed)", err)
	}
}

type doerFunc func(addr string, req *msg.Request) (*msg.Response, error)

func (fn doerFunc) Do(addr string, req *msg.Request) (*msg.Response, error) { return fn(addr, req) }

func (fn doerFunc) Exchange(addr string, req msg.Request, _ time.Duration) (msg.Response, error) {
	return exchange(fn, addr, req)
}

// TestFetchChecksumDetectsCorruption flips one byte in a chunk body while
// keeping the per-chunk CRC consistent, so only the whole-file CRC can
// catch it.
func TestFetchChecksumDetectsCorruption(t *testing.T) {
	data := payload(20_000, 11)
	net, srcs := replicaNet(data, 1, 1)
	corrupt := doerFunc(func(addr string, req *msg.Request) (*msg.Response, error) {
		resp, err := net.Do(addr, req)
		if err != nil || !resp.OK {
			return resp, err
		}
		fr, derr := msg.DecodeFetchResp(resp.Data)
		if derr != nil {
			return resp, err
		}
		frq, _ := msg.DecodeFetchReq(req.Data)
		if frq.Offset != 0 {
			// Corrupt a body chunk but re-seal its chunk CRC: only the
			// whole-file checksum can now catch the damage.
			fr.Chunk = append([]byte(nil), fr.Chunk...)
			fr.Chunk[0] ^= 0xff
			fr.ChunkCRC = crc32.Checksum(fr.Chunk, castagnoli)
			resp.Data, _ = msg.AppendFetchResp(nil, fr)
		}
		return resp, err
	})
	f := New(corrupt, Config{ChunkSize: 4096, Window: 1})
	if _, _, err := f.Fetch("x", 0, srcs); !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
}

func TestFetchNoSources(t *testing.T) {
	f := New(&fakeNet{}, Config{})
	if _, _, err := f.Fetch("x", 0, nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

// TestFetchConcurrent runs many transfers at once to exercise the shared
// stats and per-transfer state under the race detector.
func TestFetchConcurrent(t *testing.T) {
	data := payload(80_000, 12)
	net, srcs := replicaNet(data, 6, 4)
	f := New(net, Config{ChunkSize: 8192, Window: 4})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, _, err := f.Fetch("hot", 0, srcs)
			if err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(got, data) {
				t.Error("payload mismatch")
			}
		}()
	}
	wg.Wait()
	if f.Stats().Transfers.Load() != 8 {
		t.Fatalf("transfers = %d, want 8", f.Stats().Transfers.Load())
	}
	if f.Stats().InFlight.Load() != 0 {
		t.Fatalf("in-flight gauge = %d, want 0", f.Stats().InFlight.Load())
	}
}
