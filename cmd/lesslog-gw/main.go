// Command lesslog-gw runs a LessLog client gateway: the aggregation tier
// between client fleets and a networked peer fabric. It speaks the same
// wire protocol as a peer, so any client (`lesslogd -connect`,
// netnode.Client) points at the gateway unchanged and gains singleflight
// coalescing, a versioned read-through cache, health-aware entry-peer
// selection and admission control; see docs/GATEWAY.md.
//
// Gateway:
//
//	lesslog-gw -listen 127.0.0.1:7200 -peers 127.0.0.1:7100,127.0.0.1:7101
//	lesslog-gw -listen 127.0.0.1:7200 -peers 127.0.0.1:7100 \
//	    -cache-size 8192 -cache-ttl 2s -max-inflight 1024 -queue-timeout 100ms \
//	    -hint-size 8192 -hint-ttl 10s -admin 127.0.0.1:9200
//
// Cache misses and writes run the shared client ladder (route hints,
// locate-set walks, ranged fetches straight from the holders;
// docs/ROUTING.md "The ladder").
//
// Load generator (the §6 80/20 hot-key workload against any msg-speaking
// endpoint — a gateway to measure the edge, a bare peer for a baseline):
//
//	lesslog-gw -load 127.0.0.1:7200 -files 50 -clients 8 -duration 10s
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lesslog/internal/gateway"
	"lesslog/internal/netnode"
	"lesslog/internal/transport"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:0", "gateway: client-facing listen address")
		peers    = flag.String("peers", "", "gateway: comma-separated fabric entry peer addresses")
		cacheSz  = flag.Int("cache-size", gateway.DefaultCacheSize, "gateway: read cache capacity in entries (-1 disables)")
		cacheTTL = flag.Duration("cache-ttl", gateway.DefaultCacheTTL, "gateway: max age served without revisiting the fabric")
		hintSz   = flag.Int("hint-size", 0, "gateway: route-hint cache capacity in entries (0 selects the default)")
		hintTTL  = flag.Duration("hint-ttl", 0, "gateway: max age a route hint steers direct fetches (0 selects the default)")
		maxInFl  = flag.Int("max-inflight", gateway.DefaultMaxInFlight, "gateway: admitted request cap (-1 unlimited)")
		queueTO  = flag.Duration("queue-timeout", gateway.DefaultQueueTimeout, "gateway: max wait for an admission slot before shedding")
		admin    = flag.String("admin", "", "gateway: admin HTTP address for /metrics, /healthz, /traces, /debug/pprof ('' disables)")
		trEvery  = flag.Int("trace-every", 0, "gateway: head-sample 1-in-N admitted requests into the edge trace ring (0 selects the default, <0 disables)")
		trSlow   = flag.Duration("trace-slow", 0, "gateway: tail-retain requests at least this slow even when unsampled (0 selects the default)")
		trRing   = flag.Int("trace-ring", 0, "gateway: edge trace ring capacity in traces (0 selects the default)")
		logLevel = flag.String("log-level", "info", "gateway: structured log threshold: debug, info, warn or error")
		dialTO   = flag.Duration("dial-timeout", transport.DefaultDialTimeout, "gateway: peer connection establishment deadline")
		rpcTO    = flag.Duration("rpc-timeout", transport.DefaultRPCTimeout, "gateway: per-RPC write+read deadline")
		retries  = flag.Int("retries", transport.DefaultRetries, "gateway: extra attempts for idempotent peer RPCs (-1 disables)")
		pool     = flag.Int("pool", transport.DefaultPoolSize, "gateway: streams kept per peer (0 or below selects the default)")
		pipeWk   = flag.Int("pipeline-workers", transport.DefaultPipelineWorkers, "gateway: concurrent pipelined requests handled per client connection")
		load     = flag.String("load", "", "load generator: target address (runs the 80/20 workload instead of serving)")
		files    = flag.Int("files", 50, "load generator: working-set size (hot set is the first 20%)")
		clients  = flag.Int("clients", 8, "load generator: concurrent client connections")
		duration = flag.Duration("duration", 10*time.Second, "load generator: how long to run")
	)
	flag.Parse()

	if *load != "" {
		runLoad(*load, *files, *clients, *duration)
		return
	}

	logger, err := newLogger(*logLevel)
	if err != nil {
		fatal(err)
	}
	if *peers == "" {
		fatal(fmt.Errorf("-peers is required (comma-separated fabric entry addresses)"))
	}
	var entry []string
	for _, a := range strings.Split(*peers, ",") {
		if a = strings.TrimSpace(a); a != "" {
			entry = append(entry, a)
		}
	}
	g, err := gateway.New(gateway.Config{
		Peers:            entry,
		CacheSize:        *cacheSz,
		CacheTTL:         *cacheTTL,
		HintSize:         *hintSz,
		HintTTL:          *hintTTL,
		MaxInFlight:      *maxInFl,
		QueueTimeout:     *queueTO,
		PipelineWorkers:  *pipeWk,
		TraceSampleEvery: *trEvery,
		TraceSlow:        *trSlow,
		TraceRingSize:    *trRing,
		Logger:           logger,
		Transport: transport.Config{
			DialTimeout: *dialTO,
			RPCTimeout:  *rpcTO,
			Retries:     *retries,
			PoolSize:    *pool,
		},
	})
	if err != nil {
		fatal(err)
	}
	srv, err := g.Listen(*listen)
	if err != nil {
		fatal(err)
	}
	log := logger.With("component", "lesslog-gw")
	if *admin != "" {
		adm, err := g.ServeAdmin(*admin)
		if err != nil {
			fatal(err)
		}
		defer adm.Close()
		log.Info("admin serving", "addr", adm.Addr())
	}
	log.Info("serving", "addr", srv.Addr(), "peers", len(entry))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Info("shutting down", "stats", g.StatLine())
	srv.Close()
	g.Close()
}

// runLoad drives the 80/20 hot-key read workload against addr and prints
// a throughput/hit-rate summary. The working set is (re)inserted first so
// the run is self-contained.
func runLoad(addr string, files, clients int, duration time.Duration) {
	if files < 5 {
		files = 5
	}
	hot := files / 5
	name := func(i int) string { return fmt.Sprintf("load/%04d", i) }

	setup := netnode.NewClient(addr)
	for i := 0; i < files; i++ {
		if err := setup.Insert(name(i), []byte(fmt.Sprintf("payload-%04d", i))); err != nil {
			fatal(fmt.Errorf("seed insert %s: %w", name(i), err))
		}
	}

	var ops, errs atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			cl, err := netnode.DialConn(addr)
			if err != nil {
				fatal(fmt.Errorf("load client: %w", err))
			}
			defer cl.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := hot + rng.Intn(files-hot)
				if rng.Intn(100) < 80 {
					n = rng.Intn(hot)
				}
				if _, err := cl.Get(name(n)); err != nil {
					errs.Add(1)
				}
				ops.Add(1)
			}
		}(int64(c + 1))
	}
	start := time.Now()
	time.Sleep(duration)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)

	total := ops.Load()
	fmt.Printf("80/20 hot-key load: %d clients, %d files (%d hot), %s\n",
		clients, files, hot, elapsed.Round(time.Millisecond))
	fmt.Printf("  %d gets, %.0f ops/sec, %d errors\n",
		total, float64(total)/elapsed.Seconds(), errs.Load())
	if line, err := setup.Stat(); err == nil {
		fmt.Printf("  target: %s\n", line)
	}
}

// newLogger builds the process logger at the requested threshold.
func newLogger(level string) (*slog.Logger, error) {
	var l slog.Level
	switch strings.ToLower(level) {
	case "debug":
		l = slog.LevelDebug
	case "info":
		l = slog.LevelInfo
	case "warn":
		l = slog.LevelWarn
	case "error":
		l = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn or error)", level)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: l})), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lesslog-gw:", err)
	os.Exit(1)
}
