// Command lesslogd runs a networked LessLog node over TCP, or acts as a
// client against one — the demonstration deployment of the paper's §8
// future work.
//
// Server: every peer needs the full PID→address table (the networked
// status word):
//
//	lesslogd -pid 0 -m 4 -listen 127.0.0.1:7100 -peers 0=127.0.0.1:7100,1=127.0.0.1:7101
//	lesslogd -pid 1 -m 4 -listen 127.0.0.1:7101 -peers 0=127.0.0.1:7100,1=127.0.0.1:7101
//
// Client:
//
//	lesslogd -connect 127.0.0.1:7100 -op insert -name hello -data "world"
//	lesslogd -connect 127.0.0.1:7101 -op get -name hello
//	lesslogd -connect 127.0.0.1:7101 -op get -name hello -locate  # locate-then-fetch data plane
//	lesslogd -connect 127.0.0.1:7101 -op get -name hello -trace   # print the live route (a relay, with or without -locate)
//	lesslogd -connect 127.0.0.1:7101 -op locate -name hello       # resolve the holder, no payload
//	lesslogd -connect 127.0.0.1:7101 -op update -name hello -data "again"
//	lesslogd -connect 127.0.0.1:7101 -op update -name hello -data "x" -trace  # print the fan-out tree
//	lesslogd -connect 127.0.0.1:7100 -op stat
//	lesslogd -connect 127.0.0.1:7100 -op stat -json               # structured snapshot
//	lesslogd -connect 127.0.0.1:7100 -op traces                   # the peer's sampled trace ring
//
// With -locate, gets resolve the file's replica set through a payload-free
// locate walk and fetch it in ranged chunks straight from the holders,
// caching the route hint for later gets in the same process. Without it a
// get relays through the lookup tree, a body past one frame as its head,
// the rest fetched in ranges from the holders the head names. A -trace get
// relays in either mode, so the route it prints is the walk itself. See
// docs/ROUTING.md.
//
// Observability: `-admin addr` exposes /metrics (Prometheus text),
// /healthz, /trees, /traces and /debug/pprof/* over HTTP, and
// `-log-level` selects the structured-log threshold (debug, info, warn,
// error). The always-on trace plane head-samples 1-in-N entry requests
// (-trace-every, -1 disables), tail-retains slow or errored ones past
// -trace-slow, and keeps -trace-ring of them in memory; `lesslog-top`
// aggregates the stat snapshots of a whole fleet. See
// docs/OBSERVABILITY.md.
//
// Peer-to-peer RPC behavior is tunable with -dial-timeout (default 2s),
// -rpc-timeout (default 5s), -retries (default 2, idempotent ops only,
// -1 disables) and -pool (idle connections kept per peer, default 4, -1
// dials per call); see docs/TRANSPORT.md.
//
// Background replica repair (the anti-entropy loop of docs/REPAIR.md) is
// enabled with -repair-interval; -repair-budget bounds its bandwidth in
// bytes/sec and -repair-tomb-ttl sets the delete-tombstone GC horizon.
//
// Update broadcasts propagate payload-free at every size: the tree carries
// a notify (name, version, checksum, sources) and each replica pulls the
// body in chunks from a converged copy, so tree bytes stop scaling with
// replica count (docs/ROUTING.md "Pull-based propagation").
//
// Durable storage (docs/STORAGE.md): `-data-dir` gives the peer a
// segmented write-ahead log — every mutation is appended there, a
// restart replays it (truncating any torn tail) and re-announces the
// recovered inventory through the repair plane. `-fsync` picks the
// durability policy (always / interval / never), `-fsync-every` the
// interval flush period, `-segment-size` the rotation threshold.
// SIGTERM/SIGINT only closes: the peer stops serving and fsyncs the log,
// keeping its copies for the restart, as a SIGKILL does minus the flush;
// a second signal exits immediately. A stop is not a departure — the
// §5.2 voluntary leave is `POST /leave` on the -admin server (see
// docs/STORAGE.md "The retire barrier").
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lesslog/internal/bitops"
	"lesslog/internal/netnode"
	"lesslog/internal/repair"
	"lesslog/internal/trace"
	"lesslog/internal/tracering"
	"lesslog/internal/transport"
	"lesslog/internal/wal"
)

func main() {
	var (
		pid       = flag.Uint("pid", 0, "server: this node's PID")
		m         = flag.Int("m", 4, "server: identifier width")
		b         = flag.Int("b", 0, "server: fault-tolerance bits")
		listen    = flag.String("listen", "127.0.0.1:0", "server: listen address")
		peers     = flag.String("peers", "", "server: PID=addr pairs, comma separated (include self)")
		bootstrap = flag.String("bootstrap", "", "server: join an existing system via this peer instead of -peers")
		maintain  = flag.Duration("maintain", 0, "server: overload/eviction maintenance interval (0 disables)")
		repairIv  = flag.Duration("repair-interval", 0, "server: anti-entropy replica repair interval (0 disables)")
		repairBw  = flag.Int("repair-budget", 0, "server: repair bandwidth budget in bytes/sec (0 selects the default, -1 unlimited)")
		repairTT  = flag.Duration("repair-tomb-ttl", 0, "server: delete-tombstone GC horizon (0 selects the default, -1 keeps them until restart)")
		dataDir   = flag.String("data-dir", "", "server: directory for the durable write-ahead log (replayed on start, flushed on exit)")
		segSize   = flag.Int64("segment-size", 0, "server: log segment rotation size in bytes (0 selects the default)")
		fsyncPol  = flag.String("fsync", "interval", "server: log durability policy: always (ack = on disk), interval or never")
		fsyncIv   = flag.Duration("fsync-every", 0, "server: flush period for -fsync interval (0 selects the default)")
		threshold = flag.Uint64("threshold", 100, "server: per-window serve count that triggers replication")
		evictLow  = flag.Uint64("evict-below", 1, "server: replicas serving fewer gets per window are dropped")
		dialTO    = flag.Duration("dial-timeout", transport.DefaultDialTimeout, "server: peer connection establishment deadline")
		rpcTO     = flag.Duration("rpc-timeout", transport.DefaultRPCTimeout, "server: per-RPC write+read deadline")
		retries   = flag.Int("retries", transport.DefaultRetries, "server: extra attempts for idempotent peer RPCs (-1 disables)")
		pool      = flag.Int("pool", transport.DefaultPoolSize, "server: idle connections kept per peer (-1 keeps none: every exchange dials a one-exchange stream)")
		pipeWk    = flag.Int("pipeline-workers", transport.DefaultPipelineWorkers, "server: concurrent pipelined requests handled per connection")
		fanWk     = flag.Int("fanout-workers", netnode.DefaultFanoutWorkers, "server: concurrent broadcast RPC legs per update/delete")
		admin     = flag.String("admin", "", "server: admin HTTP address for /metrics, /healthz, /trees, /debug/pprof ('' disables)")
		logLevel  = flag.String("log-level", "info", "server: structured log threshold: debug, info, warn or error")
		trEvery   = flag.Int("trace-every", 0, "server: head-sample 1-in-N entry requests into the trace ring (0 selects the default, -1 disables tracing)")
		trSlow    = flag.Duration("trace-slow", 0, "server: latency past which unsampled requests are tail-retained anyway (0 selects the default)")
		trRing    = flag.Int("trace-ring", 0, "server: retained trace capacity (0 selects the default)")
		connect   = flag.String("connect", "", "client: peer address to contact")
		op        = flag.String("op", "get", "client: insert, get, update, delete, locate, stat or traces")
		name      = flag.String("name", "", "client: file name")
		data      = flag.String("data", "", "client: file contents")
		traced    = flag.Bool("trace", false, "client: with -op get, locate, update or delete, record and print the wire-level route")
		locate    = flag.Bool("locate", false, "client: serve untraced gets through the locate-then-fetch data plane")
		asJSON    = flag.Bool("json", false, "client: with -op stat, print the structured snapshot as JSON")
	)
	flag.Parse()

	if *connect != "" {
		runClient(*connect, *op, *name, *data, *traced, *locate, *asJSON)
		return
	}

	logger, err := newLogger(*logLevel)
	if err != nil {
		fatal(err)
	}
	policy, err := wal.ParsePolicy(*fsyncPol)
	if err != nil {
		fatal(err)
	}

	peer, err := netnode.Listen(netnode.Config{
		PID: bitops.PID(*pid), M: *m, B: *b, Addr: *listen, DataDir: *dataDir,
		SegmentSize: *segSize, Fsync: policy, FsyncEvery: *fsyncIv,
		PipelineWorkers: *pipeWk, FanoutWorkers: *fanWk,
		TraceSampleEvery: *trEvery, TraceSlow: *trSlow, TraceRingSize: *trRing,
		Logger: logger,
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
	log := logger.With("component", "lesslogd", "pid", *pid)
	if *admin != "" {
		adm, err := peer.ServeAdmin(*admin)
		if err != nil {
			fatal(err)
		}
		defer adm.Close()
	}
	if *maintain > 0 {
		peer.StartMaintenance(*maintain, *threshold, *evictLow)
		log.Info("maintenance enabled",
			"interval", *maintain, "threshold", *threshold, "evict_below", *evictLow)
	}
	if *repairIv > 0 {
		peer.StartRepair(repair.Config{Interval: *repairIv, Budget: *repairBw, TombstoneTTL: *repairTT})
		log.Info("replica repair enabled", "interval", *repairIv, "budget", *repairBw, "tomb_ttl", *repairTT)
	}
	if *bootstrap != "" {
		if err := peer.Join(*bootstrap); err != nil {
			fatal(err)
		}
		log.Info("serving after join", "bootstrap", *bootstrap, "addr", peer.Addr())
		waitForSignal(peer, log)
		return
	}
	table := map[bitops.PID]string{bitops.PID(*pid): peer.Addr()}
	if *peers != "" {
		for _, pair := range strings.Split(*peers, ",") {
			kv := strings.SplitN(strings.TrimSpace(pair), "=", 2)
			if len(kv) != 2 {
				fatal(fmt.Errorf("bad peer entry %q", pair))
			}
			id, err := strconv.Atoi(kv[0])
			if err != nil || id < 0 || id >= bitops.Slots(*m) {
				fatal(fmt.Errorf("bad peer PID %q", kv[0]))
			}
			table[bitops.PID(id)] = kv[1]
		}
	}
	peer.SetAddrs(table)
	log.Info("serving", "addr", peer.Addr(), "m", *m, "b", *b, "peers", len(table))
	waitForSignal(peer, log)
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

// waitForSignal blocks until SIGINT/SIGTERM, then closes the peer: Close
// drains the listener and in-flight handlers and — with -data-dir —
// flushes and fsyncs the open log segment, so a signalled exit never
// leaves an unsynced tail for the next start to truncate. The peer keeps
// its copies: a restart replays them and comes back through -bootstrap
// or -peers, as after a crash. A second signal skips the flush and exits
// immediately (the log stays crash-safe: recovery replay handles
// whatever was not yet flushed).
func waitForSignal(peer *netnode.Peer, log *slog.Logger) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	s := <-sig
	log.Info("signal received; shutting down", "signal", s.String())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := peer.Close(); err != nil {
			log.Error("shutdown flush failed", "err", err)
		}
	}()
	select {
	case <-done:
		log.Info("shutdown complete")
	case s := <-sig:
		log.Warn("second signal; exiting without flush", "signal", s.String())
		os.Exit(1)
	}
}

func runClient(addr, op, name, data string, traced, locate, asJSON bool) {
	cl := netnode.NewClient(addr)
	if locate {
		cl = netnode.NewLocateClientWith(addr, transport.New(transport.Config{}, nil), netnode.LocateOptions{})
	}
	switch op {
	case "insert":
		if err := cl.Insert(name, []byte(data)); err != nil {
			fatal(err)
		}
		fmt.Printf("inserted %q\n", name)
	case "get":
		get := cl.Get
		if traced {
			get = cl.GetTraced
		}
		res, err := get(name)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("served by P(%d) in %d hops (v%d): %s\n", res.ServedBy, res.Hops, res.Version, res.Data)
		if traced {
			fmt.Printf("route: %s\n%s", trace.HopRoute(res.Path), trace.HopTable(res.Path))
		}
	case "locate":
		loc := cl.Locate
		if traced {
			loc = cl.LocateTraced
		}
		res, err := loc(name)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("held by P(%d) at %s (v%d) after %d hops\n", res.PID, res.Addr, res.Version, res.Hops)
		if traced {
			fmt.Printf("route: %s\n%s", trace.HopRoute(res.Path), trace.HopTable(res.Path))
		}
	case "update":
		if traced {
			n, path, err := cl.UpdateTraced(name, []byte(data))
			if err != nil {
				fatal(err)
			}
			fmt.Printf("updated %d copies of %q\n", n, name)
			fmt.Printf("fan-out:\n%s", trace.HopTable(path))
			break
		}
		n, err := cl.Update(name, []byte(data))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("updated %d copies of %q\n", n, name)
	case "delete":
		if traced {
			n, path, err := cl.DeleteTraced(name)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("deleted %d copies of %q\n", n, name)
			fmt.Printf("fan-out:\n%s", trace.HopTable(path))
			break
		}
		n, err := cl.Delete(name)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("deleted %d copies of %q\n", n, name)
	case "stat":
		if asJSON {
			snap, err := cl.StatSnapshot()
			if err != nil {
				fatal(err)
			}
			out, err := json.MarshalIndent(snap, "", "  ")
			if err != nil {
				fatal(err)
			}
			fmt.Println(string(out))
			return
		}
		out, err := cl.Stat()
		if err != nil {
			fatal(err)
		}
		fmt.Println(out)
	case "traces":
		snap, err := cl.Traces()
		if err != nil {
			fatal(err)
		}
		if asJSON {
			out, err := json.MarshalIndent(snap, "", "  ")
			if err != nil {
				fatal(err)
			}
			fmt.Println(string(out))
			return
		}
		fmt.Printf("trace ring: %d recorded, %d notable (slow >= %s)\n",
			snap.Recorded, snap.Noted, time.Duration(snap.SlowNS))
		for _, t := range append(append([]tracering.Trace(nil), snap.Recent...), snap.Notable...) {
			status := "ok"
			if t.Err != "" {
				status = "err: " + t.Err
			}
			fmt.Printf("\n%016x %-8s %-24s %8.3fms %s\n", t.ID, t.Kind, t.Name,
				float64(t.Dur)/1e6, status)
			if len(t.Hops) > 0 {
				fmt.Print(trace.HopTable(t.Hops))
			}
		}
	default:
		fatal(fmt.Errorf("unknown op %q", op))
	}
	if locate {
		st := cl.LocateStats()
		fmt.Printf("data plane: %d locates, %d hint hits, %d relays\n",
			st.Locates.Load(), st.HintHits.Load(), st.Relays.Load())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lesslogd:", err)
	os.Exit(1)
}
