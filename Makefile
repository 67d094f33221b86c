# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet test race bench bench-smoke bench-e2e transport-bench obs-bench obs-cluster-bench gw-bench peer-bench locate-bench repair-bench storage-bench stream-bench write-bench figures examples cover clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# One-iteration pass over every benchmark — catches bit-rotted bench code
# without measuring anything — plus the data path's allocation budgets
# (docs/PIPELINE.md "Buffer ownership": payload copies, and the exchange
# envelopes that stay off the heap, and an inline placement's one copy of a
# lent body), a cold gateway read's (the body it
# caches, no transfer, hint-set, cache-slot or flight allocation beside it)
# and compaction's (docs/STORAGE.md), which do measure: a reintroduced
# payload copy fails them — and the chunk
# planes' checksum-pass count (docs/ROUTING.md "Checksums"), which a
# reintroduced whole-body CRC pass fails. CI runs this on every push.
bench-smoke:
	$(GO) test -count 1 -run 'TestLargeFrameAllocBudget|TestSmallFrameAllocBudget|TestLyingPrefixAllocationBound|TestExchangeAllocBudget|TestChunkPlaneAllocBudget|TestBroadcastAllocBudget|TestUpdateReusesSupersededBody|TestLocateSetAllocBudget|TestInlinePlacementAllocBudget|TestBodyChecksummedOncePerHop|TestAppendAllocatesNothing|TestCompactionAllocBudget|TestColdGatewayReadAllocBudget|TestLRUPutAtCapacityAllocatesNothing|TestFlightWithoutFollowersAllocatesNothing' ./internal/msg/ ./internal/transport/ ./internal/netnode/ ./internal/wal/ ./internal/gateway/ ./internal/lru/
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# The end-to-end perf ledger (bench/README.md): the four closed-loop
# workloads against one in-process fabric, one run record each appended to
# bench/out/run.jsonl; `bash bench/run.sh -compare a.jsonl b.jsonl` says
# whether two sets of runs agree.
bench-e2e:
	bash bench/run.sh --workload all --seed 1 --seconds 20 --trace 0 --out bench/out/run.jsonl

# Pooled vs dial-per-call RPC throughput; the recorded run lives in
# results/transport_bench.txt.
transport-bench:
	$(GO) test -run '^$$' -bench 'BenchmarkTransport' -benchmem ./internal/transport/ | tee results/transport_bench.txt

# Observability overhead: traced vs untraced wire-level gets plus the
# histogram hot path; the analysed run lives in results/obs_bench.txt.
obs-bench:
	$(GO) test -run '^$$' -bench 'BenchmarkGet(Traced)?OverTCP' -benchtime 2s -count 3 ./internal/netnode/
	$(GO) test -run '^$$' -bench 'BenchmarkHistogramObserve' -benchmem ./internal/metrics/

# Fleet aggregation end to end: an 8-peer fabric under traffic, scraped
# and merged the way `lesslog-top -json` does it, with the merged view
# checked against hand-merged per-peer snapshots and recorded to
# results/BENCH_obs_cluster.json (docs/OBSERVABILITY.md).
obs-cluster-bench:
	BENCH_JSON_DIR=$(CURDIR)/results $(GO) test -run 'TestFleetScrapeEightPeers' -count 1 -v ./internal/fleet/ | tee results/obs_cluster_bench.txt

# Gateway vs direct per-op clients on the §6 80/20 hot-key read workload;
# the recorded run lives in results/gateway_bench.txt (machine-readable
# twin: results/BENCH_gateway.json).
gw-bench:
	BENCH_JSON_DIR=$(CURDIR)/results $(GO) test -run '^$$' -bench 'BenchmarkHotKey' -benchtime 2s -count 3 ./internal/gateway/ | tee results/gateway_bench.txt

# Pipelined peer hot path: concurrent 80/20 gets over one persistent
# connection plus parallel broadcast fan-out; the before/after comparison
# lives in results/pipeline_bench.txt (machine-readable twin:
# results/BENCH_pipeline.json).
peer-bench:
	BENCH_JSON_DIR=$(CURDIR)/results $(GO) test -run '^$$' -bench 'BenchmarkConnConcurrent8020|BenchmarkBroadcast' -benchtime 2s -count 3 ./internal/netnode/ | tee -a results/pipeline_bench.txt

# Relay vs locate-then-fetch data plane: bytes on the wire and p50/p99
# latency per payload size, with the single-RPC / zero-relay properties
# asserted from the peer counters. The recorded comparison lives in
# results/locate_bench.txt (machine-readable twin:
# results/BENCH_locate.json).
locate-bench:
	LESSLOG_LOCATE_BENCH=1 BENCH_JSON_DIR=$(CURDIR)/results $(GO) test -run 'TestLocateBenchReport' -bench 'BenchmarkRelayGet|BenchmarkLocateGet' -benchtime 2s -v ./internal/netnode/ | tee results/locate_bench.txt

# Sustained-churn repair harness: the same crash/rejoin schedule with
# repair off (loses names) and on (loses none), recording loss
# probability and time-to-full-replication per disruption to
# results/BENCH_repair.json (docs/REPAIR.md).
repair-bench:
	BENCH_JSON_DIR=$(CURDIR)/results $(GO) test -run 'TestChurnRepairE2E' -count 1 -v ./internal/netnode/ | tee results/repair_bench.txt

# Durable storage engine: sustained write throughput under each fsync
# policy (never / interval / group-commit always) and cold recovery time
# at 1M names, recorded to results/BENCH_storage.json (docs/STORAGE.md).
storage-bench:
	LESSLOG_STORAGE_BENCH=1 BENCH_JSON_DIR=$(CURDIR)/results $(GO) test -run 'TestStorageBenchReport' -count 1 -v -timeout 600s ./internal/wal/ | tee results/storage_bench.txt

# Chunked streaming data plane: single-frame vs replica-striped chunked
# fetch latency at 1-64 MiB (above one frame only the chunked plane can
# serve at all) and aggregate hot-file throughput against replica count
# with holders modeled as serial servers, recorded to
# results/BENCH_stream.json (docs/ROUTING.md).
stream-bench:
	LESSLOG_STREAM_BENCH=1 BENCH_JSON_DIR=$(CURDIR)/results $(GO) test -run 'TestStreamBenchReport' -count 1 -v -timeout 600s ./internal/netnode/ | tee results/stream_bench.txt

# Chunked write plane: whole-frame vs staged chunked put latency at
# 1-64 MiB (above one frame only the chunked plane can write at all) and
# broadcast-tree payload bytes against replica count — push repeats the
# payload per copy, notify/pull keeps the tree payload-free — recorded to
# results/BENCH_write.json (docs/ROUTING.md "The write plane").
write-bench:
	LESSLOG_WRITE_BENCH=1 BENCH_JSON_DIR=$(CURDIR)/results $(GO) test -run 'TestWriteBenchReport' -count 1 -v -timeout 600s ./internal/netnode/ | tee results/write_bench.txt

# Regenerate every reproduced figure and extension table into results/,
# then rewrite the goldens that pin them (results/figure*.csv and
# internal/experiments/testdata/*.golden) from the same code.
figures: build
	$(GO) run ./cmd/lesslog-bench -trials 3 -outdir results
	$(GO) run ./cmd/lesslog-bench -evict
	$(GO) run ./cmd/lesslog-bench -hops
	$(GO) run ./cmd/lesslog-bench -churn
	$(GO) run ./cmd/lesslog-bench -sensitivity
	$(GO) run ./cmd/lesslog-bench -pathlen
	$(GO) run ./cmd/lesslog-bench -multifile
	$(GO) run ./cmd/lesslog-bench -logcost
	$(GO) run ./cmd/lesslog-bench -updatecost
	$(GO) run ./cmd/lesslog-bench -flash
	$(GO) run ./cmd/lesslog-bench -ftcost
	$(GO) run ./cmd/lesslog-bench -latency
	$(GO) test ./internal/experiments -run Golden -update

cover:
	$(GO) test -cover ./...

clean:
	$(GO) clean ./...

# Run every example end to end.
examples: build
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/loadbalance
	$(GO) run ./examples/faulttolerance
	$(GO) run ./examples/churn
	$(GO) run ./examples/multifile
	$(GO) run ./examples/network
