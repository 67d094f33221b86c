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
// Transport.Do against ServeLoop over a loopback socket, both sides in this
// process. With a handler that looks at Data and keeps nothing, the request
// side allocates the Request and its name and no payload-sized object; the
// response (here an echo, so 4 KiB again) is copied out once for the caller
// who owns it. A handler that keeps Data adds exactly that copy.
func TestExchangeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	body := bytes.Repeat([]byte{0xC3}, 4<<10)
	var mu sync.Mutex
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
		return &msg.Response{OK: true, Version: uint64(len(req.Data))}
	}, ServeLoopOptions{})
	tr := New(Config{}, nil)
	defer tr.Close()

	measure := func(name string) (allocs, bytesPer float64) {
		req := &msg.Request{Kind: msg.KindUpdate, Name: name, Data: body}
		do := func() {
			resp, err := tr.Do(addr, req)
			if err != nil || !resp.OK {
				t.Fatalf("%s: %v", name, err)
			}
		}
		for i := 0; i < 64; i++ {
			do() // warm the stream, the pools and the call slot
		}
		const runs = 400
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			do()
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}

	// drop: Request + name at the server, Response at both ends. Nothing the
	// size of the payload anywhere. The mean is rounded: a run of 400 now
	// and then counts a few allocations the runtime makes for itself.
	dropAllocs, dropBytes := measure("drop")
	if math.Round(dropAllocs) > 4 || dropBytes > 1<<10 {
		t.Errorf("4 KiB request, handler keeps nothing: %.1f allocs, %.0f B per exchange; want <= 4 allocs and no payload-sized object (< 1 KiB)", dropAllocs, dropBytes)
	}
	// echo: the same plus the response's Data copied out at the client.
	echoAllocs, echoBytes := measure("echo")
	if echoAllocs > dropAllocs+1.5 || echoBytes > dropBytes+4<<10+256 {
		t.Errorf("4 KiB echo: %.1f allocs, %.0f B per exchange; want the no-keep exchange (%.1f, %.0f) plus one 4 KiB copy", echoAllocs, echoBytes, dropAllocs, dropBytes)
	}
	// keep: the same as drop plus the handler's private copy.
	keepAllocs, keepBytes := measure("keep")
	if keepAllocs > dropAllocs+1.5 || keepBytes < 4<<10 || keepBytes > dropBytes+4<<10+256 {
		t.Errorf("4 KiB request, handler keeps Data: %.1f allocs, %.0f B per exchange; want the no-keep exchange (%.1f, %.0f) plus one 4 KiB copy", keepAllocs, keepBytes, dropAllocs, dropBytes)
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
	if _, err := tr.Do(addr, &msg.Request{Kind: msg.KindStore, Name: "borrow", Data: lentBody}); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Do(addr, &msg.Request{Kind: msg.KindStore, Name: "keep", Data: keptBody}); err != nil {
		t.Fatal(err)
	}
	// A response is written before its request's lease ends, so the caller
	// can be back first. These exchanges share the connection and its one
	// writer: by the time they are answered, both leases above have ended.
	other := bytes.Repeat([]byte{0x22}, 4<<10)
	for i := 0; i < 16; i++ {
		if _, err := tr.Do(addr, &msg.Request{Kind: msg.KindStore, Name: "traffic", Data: other}); err != nil {
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

	for round := 0; round < 8; round++ {
		c, err := DialMuxConn(addr, time.Second, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.m.do(&msg.Request{Kind: msg.KindGet, Name: "slow"}, 20*time.Millisecond); !isTimeout(err) {
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
		fresh, err := DialMuxConn(addr, time.Second, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 32; i++ {
			resp, err := fresh.m.do(&msg.Request{Kind: msg.KindGet, Name: "fast"}, time.Duration(1+i%3)*time.Second)
			if err != nil || string(resp.Data) != "fast" {
				t.Fatalf("round %d exchange %d on a recycled slot: %v %+v", round, i, err, resp)
			}
		}
		fresh.Close()
	}
}

// TestUntimedCallClearsWriteDeadline: the write deadline belongs to the
// connection, so an untimed call after a timed one must clear it — under
// the parent's "only ever set" rule the second write ran under the first
// call's long-expired deadline and killed the stream.
func TestUntimedCallClearsWriteDeadline(t *testing.T) {
	addr := pipelinedServer(t, func(req *msg.Request) *msg.Response {
		return &msg.Response{OK: true, Data: []byte(req.Name)}
	}, ServeLoopOptions{})
	c, err := DialMuxConn(addr, time.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The deadline has to outlast a loopback exchange on a busy machine; one
	// exchange far shorter than it is retried rather than trusted to fit.
	const deadline = 50 * time.Millisecond
	if _, err := c.m.do(&msg.Request{Kind: msg.KindGet, Name: "timed"}, deadline); err != nil {
		t.Skipf("timed exchange did not fit its deadline on this machine: %v", err)
	}
	time.Sleep(2 * deadline)
	resp, err := c.Do(&msg.Request{Kind: msg.KindGet, Name: "untimed"})
	if err != nil || string(resp.Data) != "untimed" {
		t.Fatalf("untimed call after an expired timed one: %v %+v", err, resp)
	}
}
