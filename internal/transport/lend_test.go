package transport

import (
	"bytes"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"lesslog/internal/msg"
)

// The lending rule of small request frames and the recycling of call slots
// (docs/PIPELINE.md "Buffer ownership", docs/TRANSPORT.md "Call slots"):
// what an exchange allocates, until when a handler may read what it was
// lent, and which slots may serve a second exchange.

// keptSink is where the budget test's keeping handler holds what it kept.
var keptSink []byte

// TestExchangeAllocBudget is the cost of one 4 KiB exchange end to end —
// Transport.Exchange against ServeLoop over a loopback socket, both sides
// in this process. Neither envelope is on the heap: the server decodes into
// a request its connection recycles, the caller's request is only read, and the answer
// comes back by value. So with a handler that looks at Data and keeps
// nothing (and answers with a response it already has — a handler's own
// response literal is the handler's cost), the exchange allocates the
// request's name and no payload-sized object. An echo adds the handler's
// response and its Data copied out once for the caller who owns it; a
// handler that keeps Data adds exactly that copy; the Do adapter adds the
// one Response it returns.
func TestExchangeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	body := bytes.Repeat([]byte{0xC3}, 4<<10)
	var mu sync.Mutex
	answered := &msg.Response{OK: true}
	addr := pipelinedServer(t, func(req *msg.Request) *msg.Response {
		switch req.Name {
		case "echo":
			return &msg.Response{OK: true, Data: req.Data}
		case "keep":
			req.Keep()
			mu.Lock()
			keptSink = req.Data
			mu.Unlock()
		}
		return answered
	}, ServeLoopOptions{})
	tr := New(Config{}, nil)
	defer tr.Close()

	exchange := func(req *msg.Request) (bool, error) {
		resp, err := tr.Exchange(addr, *req, 0)
		return resp.OK, err
	}
	do := func(req *msg.Request) (bool, error) {
		resp, err := tr.Do(addr, req)
		return err == nil && resp.OK, err
	}
	measure := func(name string, call func(*msg.Request) (bool, error)) (allocs, bytesPer float64) {
		req := &msg.Request{Kind: msg.KindUpdate, Name: name, Data: body}
		one := func() {
			if ok, err := call(req); err != nil || !ok {
				t.Fatalf("%s: %v", name, err)
			}
		}
		for i := 0; i < 64; i++ {
			one() // warm the stream, the pools and the call slot
		}
		const runs = 400
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			one()
		}
		runtime.ReadMemStats(&after)
		// The mean is rounded: a run of 400 now and then counts a few
		// allocations the runtime makes for itself.
		return math.Round(float64(after.Mallocs-before.Mallocs) / runs), float64(after.TotalAlloc-before.TotalAlloc) / runs
	}

	// What the objects counted above take is a few hundred bytes at most;
	// the rest of the byte budget is for a collection during the run, which
	// empties the codec's buffer pool: refilling it is a 64 KiB buffer per
	// side, ~160 B per exchange over a run.
	const slack = 1 << 10
	for _, tc := range []struct {
		name     string
		call     func(*msg.Request) (bool, error)
		allocs   float64 // per exchange, at most
		minBytes float64 // per exchange, at least: a copy that must be made
		bytes    float64 // per exchange, at most
		what     string
	}{
		{"drop", exchange, 1, 0, slack, "the name alone, nothing the size of the payload"},
		{"drop", do, 2, 0, slack, "the name and the Do adapter's Response"},
		{"echo", exchange, 3, 4 << 10, 4<<10 + slack, "the name, the handler's response and one 4 KiB copy"},
		{"keep", exchange, 2, 4 << 10, 4<<10 + slack, "the name and the handler's 4 KiB copy"},
	} {
		allocs, bytesPer := measure(tc.name, tc.call)
		if allocs > tc.allocs || bytesPer < tc.minBytes || bytesPer > tc.bytes {
			t.Errorf("4 KiB %s exchange: %.0f allocs, %.0f B per exchange; want <= %.0f allocs and %.0f..%.0f B: %s",
				tc.name, allocs, bytesPer, tc.allocs, tc.minBytes, tc.bytes, tc.what)
		}
		t.Logf("4 KiB %s: %.0f allocs, %.0f B per exchange", tc.name, allocs, bytesPer)
	}
}

// TestEchoResponseMayAliasRequest: a response that points into the lent
// request's Data is written before the buffer goes back, so it arrives
// intact however many other requests the connection is reading meanwhile.
func TestEchoResponseMayAliasRequest(t *testing.T) {
	addr := pipelinedServer(t, func(req *msg.Request) *msg.Response {
		// Head in Data, rest as Tail: both halves point into the loan.
		return &msg.Response{OK: true, Data: req.Data[:len(req.Data)/2], Tail: req.Data[len(req.Data)/2:]}
	}, ServeLoopOptions{Workers: 8})
	tr := New(Config{PoolSize: 1}, nil)
	defer tr.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				body := bytes.Repeat([]byte{byte(g*16 + i%16)}, 1<<10+g*997+i)
				resp, err := tr.Do(addr, &msg.Request{Kind: msg.KindGet, Name: "echo", Data: body})
				if err != nil {
					t.Errorf("caller %d exchange %d: %v", g, i, err)
					return
				}
				if !bytes.Equal(resp.Data, body) {
					t.Errorf("caller %d exchange %d: echoed %d bytes differ from the %d sent", g, i, len(resp.Data), len(body))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestLentDataPoisonedAfterResponse is the failure mode of a missed Keep
// made loud: a handler stores req.Data as lent and answers; under the race
// detector the lease's end overwrites those bytes (0xDB, then whatever the
// pool's next user writes), so the stored slice no longer reads as the
// request — while the slice of a handler that called Keep still does.
func TestLentDataPoisonedAfterResponse(t *testing.T) {
	var mu sync.Mutex
	var borrowed, kept []byte
	addr := pipelinedServer(t, func(req *msg.Request) *msg.Response {
		mu.Lock()
		defer mu.Unlock()
		switch req.Name {
		case "borrow":
			borrowed = req.Data
		case "keep":
			req.Keep()
			kept = req.Data
		}
		return &msg.Response{OK: true}
	}, ServeLoopOptions{})
	tr := New(Config{PoolSize: 1}, nil)
	defer tr.Close()
	lentBody := bytes.Repeat([]byte{0x11}, 4<<10)
	keptBody := bytes.Repeat([]byte{0x33}, 4<<10)
	if _, err := tr.Do(addr, &msg.Request{Kind: msg.KindInsert, Name: "borrow", Data: lentBody}); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Do(addr, &msg.Request{Kind: msg.KindInsert, Name: "keep", Data: keptBody}); err != nil {
		t.Fatal(err)
	}
	// A response is written before its request's lease ends, so the caller
	// can be back first. These exchanges share the connection and its one
	// writer: by the time they are answered, both leases above have ended.
	other := bytes.Repeat([]byte{0x22}, 4<<10)
	for i := 0; i < 16; i++ {
		if _, err := tr.Do(addr, &msg.Request{Kind: msg.KindInsert, Name: "traffic", Data: other}); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if !bytes.Equal(kept, keptBody) {
		t.Error("Data kept with Keep changed after the response")
	}
	if raceEnabled && bytes.Equal(borrowed, lentBody) {
		t.Error("Data stored without Keep still reads as the request after its response: the lease's end did not poison it")
	}
}

// TestServedRequestPoisonedAfterResponse is the failure mode of a handler
// that holds its *msg.Request past returning, made loud: the request is the
// connection's, so once the response is written it stops reading as what
// was sent — cleared, then decoded into again for a later request, and
// under the race detector poisoned first — while a struct copy the handler
// took still does.
func TestServedRequestPoisonedAfterResponse(t *testing.T) {
	var mu sync.Mutex
	var held *msg.Request
	var copied msg.Request
	addr := pipelinedServer(t, func(req *msg.Request) *msg.Response {
		mu.Lock()
		defer mu.Unlock()
		if req.Name == "held" {
			held = req
			copied = *req
			copied.Keep()
		}
		return &msg.Response{OK: true}
	}, ServeLoopOptions{})
	tr := New(Config{PoolSize: 1}, nil)
	defer tr.Close()
	sent := msg.Request{Kind: msg.KindInsert, Name: "held", Version: 7, Data: bytes.Repeat([]byte{0x44}, 4<<10)}
	if _, err := tr.Do(addr, &sent); err != nil {
		t.Fatal(err)
	}
	// One request in flight at a time is decoded into the request the first
	// was, handed back once the first lease ended.
	if _, err := tr.Do(addr, &msg.Request{Kind: msg.KindGet, Name: "next"}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if held == nil {
		t.Fatal("the handler never saw the request")
	}
	if held.Name == sent.Name || held.Version == sent.Version || bytes.Equal(held.Data, sent.Data) {
		t.Errorf("a request held past its response still reads as sent: %q v%d", held.Name, held.Version)
	}
	if raceEnabled && held.Name == "next" {
		t.Error("a request held past its response reads as the next one, not poisoned")
	}
	if copied.Name != sent.Name || copied.Version != sent.Version || !bytes.Equal(copied.Data, sent.Data) {
		t.Errorf("a struct copy taken (and kept) in the handler changed: %q v%d", copied.Name, copied.Version)
	}
}

// TestCallSlotNotReusedAfterTimeout: the slot of an exchange that timed out
// has a closed channel (or a response about to land in it) and must not
// reach the pool; the slots of completed exchanges do, with an empty
// channel and a stopped timer, so the next exchange on one neither reads a
// stale response nor expires early.
func TestCallSlotNotReusedAfterTimeout(t *testing.T) {
	release := make(chan struct{})
	addr := pipelinedServer(t, func(req *msg.Request) *msg.Response {
		if req.Name == "slow" {
			<-release
		}
		return &msg.Response{OK: true, Data: []byte(req.Name)}
	}, ServeLoopOptions{})
	defer close(release)

	cfg := Config{PoolSize: 1, RPCTimeout: 20 * time.Millisecond, Retries: -1}
	for round := 0; round < 8; round++ {
		c := New(cfg, nil)
		if _, err := c.Exchange(addr, msg.Request{Kind: msg.KindGet, Name: "slow"}, 0); !isTimeout(err) {
			t.Fatalf("slow exchange: %v, want a timeout", err)
		}
		c.Close()
		// Whatever the pool hands out now must be fit for an exchange.
		var slots []*call
		for i := 0; i < 16; i++ {
			s := callPool.Get().(*call)
			slots = append(slots, s)
			select {
			case resp, ok := <-s.ch:
				t.Fatalf("pooled call slot has a used channel: open=%v resp=%v", ok, resp)
			default:
			}
			if s.timer != nil {
				select {
				case <-s.timer.C:
					t.Fatal("pooled call slot has a fired timer left in its channel")
				default:
				}
			}
		}
		for _, s := range slots {
			callPool.Put(s)
		}
		// And timed exchanges on recycled slots behave: a short deadline after
		// a long one does not inherit it, nor the reverse.
		fresh := New(cfg, nil)
		for i := 0; i < 32; i++ {
			resp, err := fresh.Exchange(addr, msg.Request{Kind: msg.KindGet, Name: "fast"}, time.Duration(1+i%3)*time.Second)
			if err != nil || string(resp.Data) != "fast" {
				t.Fatalf("round %d exchange %d on a recycled slot: %v %+v", round, i, err, resp)
			}
		}
		fresh.Close()
	}
}
