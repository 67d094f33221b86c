package transport

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lesslog/internal/msg"
)

// pipelinedServer is a Server on a loopback port, so tests exercise the full
// pipelined path: requests dispatched to a worker pool, responses written
// out of order by a single writer.
func pipelinedServer(t testing.TB, handle func(*msg.Request) *msg.Response, opts ServeLoopOptions) (addr string) {
	t.Helper()
	srv, err := Listen("127.0.0.1:0", handle, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.Addr()
}

// TestMuxOverlapsSlowExchange pins the head-of-line fix: with one pooled
// stream (PoolSize 1) a deliberately slow exchange must not delay the fast
// exchanges pipelined behind it.
func TestMuxOverlapsSlowExchange(t *testing.T) {
	block := make(chan struct{})
	var fastDone atomic.Int64
	addr := pipelinedServer(t, func(req *msg.Request) *msg.Response {
		if req.Name == "slow" {
			<-block
		}
		return &msg.Response{OK: true, Data: []byte(req.Name)}
	}, ServeLoopOptions{Workers: 8})

	tr := New(Config{PoolSize: 1, Retries: -1}, nil)
	defer tr.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	slowStarted := make(chan struct{})
	go func() {
		defer wg.Done()
		close(slowStarted)
		resp, err := tr.Do(addr, &msg.Request{Kind: msg.KindGet, Name: "slow"})
		if err != nil || !resp.OK {
			t.Errorf("slow exchange: %v", err)
		}
	}()
	<-slowStarted

	// The fast exchanges share the single pooled stream with the parked
	// slow one; all must complete while it is still blocked.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 16; i++ {
			resp, err := tr.Do(addr, &msg.Request{Kind: msg.KindGet, Name: "fast"})
			if err != nil || !resp.OK || string(resp.Data) != "fast" {
				t.Errorf("fast exchange %d: %v %+v", i, err, resp)
				return
			}
			fastDone.Add(1)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("fast exchanges stuck behind the slow one: %d/16 done", fastDone.Load())
	}
	close(block)
	wg.Wait()
	if got := fastDone.Load(); got != 16 {
		t.Fatalf("fast exchanges done = %d, want 16", got)
	}
}

// TestMuxConcurrentCallersOneStream hammers one pooled stream from many
// goroutines and checks every response lands on its own request.
func TestMuxConcurrentCallersOneStream(t *testing.T) {
	addr := pipelinedServer(t, func(req *msg.Request) *msg.Response {
		return &msg.Response{OK: true, Data: []byte(req.Name)}
	}, ServeLoopOptions{})

	tr := New(Config{PoolSize: 1}, nil)
	defer tr.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				name := string(rune('a'+g)) + "-file"
				resp, err := tr.Do(addr, &msg.Request{Kind: msg.KindGet, Name: name})
				if err != nil {
					t.Errorf("goroutine %d call %d: %v", g, i, err)
					return
				}
				if string(resp.Data) != name {
					t.Errorf("goroutine %d got %q, want %q — responses crossed", g, resp.Data, name)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestServeLoopDepthGauge checks the pipeline-depth gauge rises while
// handlers are parked and settles back to zero.
func TestServeLoopDepthGauge(t *testing.T) {
	var depth atomic.Int64
	block := make(chan struct{})
	addr := pipelinedServer(t, func(req *msg.Request) *msg.Response {
		<-block
		return &msg.Response{OK: true}
	}, ServeLoopOptions{Workers: 4, Depth: &depth})

	tr := New(Config{PoolSize: 1}, nil)
	defer tr.Close()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := tr.Do(addr, &msg.Request{Kind: msg.KindGet, Name: "f"}); err != nil {
				t.Error(err)
			}
		}()
	}
	deadline := time.Now().Add(2 * time.Second)
	for depth.Load() < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("depth gauge = %d, want 4", depth.Load())
		}
		time.Sleep(time.Millisecond)
	}
	close(block)
	wg.Wait()
	for depth.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("depth gauge did not settle: %d", depth.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeDelayModelsSerialServer checks the service-time model: with
// one worker and a ServeDelay of S, n pipelined requests take at least
// n*S (a serial server of capacity 1/S), while with enough workers the
// same delays overlap and the batch finishes in a fraction of that.
func TestServeDelayModelsSerialServer(t *testing.T) {
	const delay = 30 * time.Millisecond
	run := func(workers int) time.Duration {
		addr := pipelinedServer(t, func(req *msg.Request) *msg.Response {
			return &msg.Response{OK: true}
		}, ServeLoopOptions{Workers: workers, ServeDelay: delay})
		tr := New(Config{PoolSize: 1}, nil)
		defer tr.Close()
		// Establish the single pooled stream before the concurrent batch:
		// cold concurrent callers would each dial their own connection.
		if _, err := tr.Do(addr, &msg.Request{Kind: msg.KindGet, Name: "warm"}); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := tr.Do(addr, &msg.Request{Kind: msg.KindGet, Name: "f"}); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		return time.Since(start)
	}
	if serial := run(1); serial < 4*delay {
		t.Fatalf("serial server finished 4 requests in %v, want >= %v", serial, 4*delay)
	}
	if wide := run(4); wide >= 4*delay {
		t.Fatalf("4 workers took %v for 4 requests, want the delays to overlap (< %v)", wide, 4*delay)
	}
}
