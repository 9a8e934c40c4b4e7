GO ?= go
BENCHOUT ?= results/BENCH_hotpath.json
GATHEROUT ?= results/BENCH_gather.json
SERVEOUT ?= results/BENCH_serve.json
ENGINEOUT ?= results/BENCH_engine.json
COMMITOUT ?= results/BENCH_commitagg.json
COLLOUT ?= results/BENCH_coll.json

.PHONY: build test vet race bench benchsmoke fuzzsmoke apicheck ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# race runs the race detector over the concurrent hot paths: the packages
# the telemetry layer instruments, the pooled message buffers, the sharded
# NIC counters, the parallel TreeMatch partitioner, the fault-injection
# / ULFM recovery layer (deterministic injector + Revoke/Shrink/Agree),
# the monitoring daemon's concurrent ingest/read service, the
# commit-on-threshold aggregation layer (concurrent producers vs forced
# barrier flushes) with the pml fold it fronts, the reorder/online
# control loops (SPMD controllers stepping concurrently over all ranks),
# and the collective algorithm portfolio (per-callsite profiler shared by
# all ranks; cross-engine pins at np=256).
race:
	$(GO) test -race ./internal/telemetry ./internal/mpi ./internal/monitoring ./internal/netsim ./internal/netsim/event ./internal/treematch ./internal/faults ./internal/elastic ./internal/monsvc ./internal/commitagg ./internal/pml ./internal/reorder ./internal/online ./internal/coll

# apicheck pins the root package's exported API: the surface extracted by
# cmd/apisurface must match the golden listing in docs/api_surface.txt.
# After an intentional API change, regenerate it with
# `go run ./cmd/apisurface -update` and commit the diff.
apicheck:
	$(GO) run ./cmd/apisurface -check

# bench runs the hot-path benchmark suite — the send/recv micro (pool-hit
# allocation rate), the TreeMatch kernels, and the collective layer — and
# writes the results as JSON to $(BENCHOUT) so the performance trajectory
# can be diffed commit to commit (see docs/PERFORMANCE.md).
bench:
	@tmp=$$(mktemp) && \
	$(GO) test -run '^$$' -bench '^BenchmarkSendRecv' -benchmem ./internal/mpi | tee -a $$tmp && \
	$(GO) test -run '^$$' -bench '^(BenchmarkTreeMatch|BenchmarkTable1TreeMatchScale|BenchmarkPingPong|BenchmarkCollectives|BenchmarkBarrier48)$$' -benchmem . | tee -a $$tmp && \
	$(GO) run ./cmd/benchjson -out $(BENCHOUT) < $$tmp && \
	rm -f $$tmp && echo "wrote $(BENCHOUT)" && \
	tmp2=$$(mktemp) && \
	$(GO) test -run '^$$' -bench '^BenchmarkGatherSparse$$' -benchtime 1x -benchmem . | tee -a $$tmp2 && \
	$(GO) run ./cmd/benchjson -out $(GATHEROUT) < $$tmp2 && \
	rm -f $$tmp2 && echo "wrote $(GATHEROUT)" && \
	tmp3=$$(mktemp) && \
	$(GO) test -run '^$$' -bench '^(BenchmarkServeIngest|BenchmarkServeView|BenchmarkFrameCodec)$$' -benchmem ./internal/monsvc | tee -a $$tmp3 && \
	$(GO) run ./cmd/benchjson -out $(SERVEOUT) < $$tmp3 && \
	rm -f $$tmp3 && echo "wrote $(SERVEOUT)" && \
	tmp4=$$(mktemp) && \
	$(GO) test -run '^$$' -bench '^BenchmarkEventEngine$$' -benchtime 1x -benchmem -timeout 30m . | tee -a $$tmp4 && \
	$(GO) run ./cmd/benchjson -out $(ENGINEOUT) < $$tmp4 && \
	rm -f $$tmp4 && echo "wrote $(ENGINEOUT)" && \
	tmp5=$$(mktemp) && \
	$(GO) test -run '^$$' -bench '^BenchmarkCommitAgg' -benchmem ./internal/commitagg | tee -a $$tmp5 && \
	$(GO) test -run '^$$' -bench '^BenchmarkCommitAggRowExport$$' -benchmem ./internal/monitoring | tee -a $$tmp5 && \
	$(GO) run ./cmd/benchjson -out $(COMMITOUT) < $$tmp5 && \
	rm -f $$tmp5 && echo "wrote $(COMMITOUT)" && \
	tmp6=$$(mktemp) && \
	$(GO) test -run '^$$' -bench '^BenchmarkCollPortfolio$$' -benchmem . | tee -a $$tmp6 && \
	$(GO) run ./cmd/benchjson -out $(COLLOUT) < $$tmp6 && \
	rm -f $$tmp6 && echo "wrote $(COLLOUT)"

# benchsmoke compiles and runs every benchmark exactly once so the harness
# cannot bit-rot; it measures nothing.
benchsmoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# fuzzsmoke runs each native fuzz target over the decoders of untrusted
# input (sparse matrix rows, daemon ingest frames) for 10 s, on top
# of the seed corpora under testdata/fuzz/ that plain `go test` replays.
fuzzsmoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRow$$' -fuzztime 10s ./internal/sparsemat
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime 10s ./internal/monsvc

# ci is the gate for a change: static checks, full build, the whole test
# suite, the race tier on the instrumented packages, a one-iteration pass
# over every benchmark, a short fuzz pass over the untrusted decoders, and
# the exported-API pin.
ci: vet build test race benchsmoke fuzzsmoke apicheck
