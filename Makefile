# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet test race bench bench-smoke bench-e2e figures examples cover clean

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

# The data path's allocation budgets (docs/PIPELINE.md "Buffer ownership":
# payload copies, the exchange envelopes that stay off the heap, an inline
# placement's one copy of a lent body, a superseded body recycled at one
# frame and past it, and through the gateway's write-through cache), a cold
# gateway read's (the body it caches, no transfer, hint-set, cache-slot or
# flight allocation beside it)
# and compaction's (docs/STORAGE.md), plus the chunk planes' checksum-pass
# count (docs/ROUTING.md "Checksums"): a reintroduced payload copy or
# whole-body CRC pass fails them. Then one iteration of every Go benchmark,
# so benchmark code cannot rot; it measures nothing — every number comes
# from the ledger, `make bench-e2e`. CI runs this on every push.
bench-smoke:
	$(GO) test -count 1 -run 'TestLargeFrameAllocBudget|TestSmallFrameAllocBudget|TestLyingPrefixAllocationBound|TestExchangeAllocBudget|TestChunkPlaneAllocBudget|TestBroadcastAllocBudget|TestUpdateReusesSupersededBody|TestOverFrameUpdateReusesSupersededBody|TestLocateSetAllocBudget|TestInlinePlacementAllocBudget|TestBodyChecksummedOncePerHop|TestAppendAllocatesNothing|TestCompactionAllocBudget|TestColdGatewayReadAllocBudget|TestGatewayUpdateReusesSupersededBody|TestLRUPutAtCapacityAllocatesNothing|TestFlightWithoutFollowersAllocatesNothing' ./internal/msg/ ./internal/transport/ ./internal/netnode/ ./internal/wal/ ./internal/gateway/ ./internal/lru/
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# The end-to-end perf ledger (bench/README.md): the four closed-loop
# workloads against one in-process fabric, one run record each appended to
# bench/out/run.jsonl; `bash bench/run.sh -compare a.jsonl b.jsonl` says
# whether two sets of runs agree.
bench-e2e:
	bash bench/run.sh --workload all --seed 1 --seconds 20 --trace 0 --out bench/out/run.jsonl

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
