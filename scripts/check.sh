#!/bin/sh
# Pre-PR gate: formatting, vet, build, race-enabled tests, and the quick
# solve benchmarks. Run from anywhere inside the repo.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

echo "== perfbench module (des-fig4 pinned to BENCH_SPTRSV.json) =="
(cd perfbench && go vet ./... && go test ./...)

echo "== go test -race -count=2 (tuner + solver concurrency stress) =="
go test -race -count=2 ./internal/tune ./internal/core

echo "== go test -race -count=2 (tracer under both backends) =="
go test -race -count=2 -run 'Trace|Parity|CriticalPath|ConcurrentTraced' \
    ./internal/runtime ./internal/trsv ./internal/core

echo "== go test -race -count=2 (chaos / fault-injection stress) =="
go test -race -count=2 -run 'Chaos|Fault|Stall|Straggl|Watchdog|Crash|Robust|NonFinite|PoolMeanFP|PoolComputeTime' \
    ./internal/fault ./internal/runtime ./internal/core ./internal/sparse ./internal/trsv

echo "== go test -race -count=5 (pool inbox: batched receive, recycled buffers, wait and time attribution) =="
go test -race -count=5 -run '^(TestInbox.*|TestPoolWait.*|TestPoolComputeTime.*|TestPoolStray.*)$' \
    ./internal/runtime

echo "== go test -count=2 (CLI flag surface + exit-code contract) =="
go test -count=2 ./internal/cliutil

echo "== go test -count (former flakes: alloc neutrality, shutdown drain) =="
go test -count=50 -run TestSolveWithZeroSpecAllocNeutral ./internal/core
go test -count=20 -run TestQueueFullShedsAndShutdownDrains ./internal/server

echo "== go test -race -count=2 (elastic-chaos stress: staleness x straggler severity) =="
go test -race -count=2 -run 'Elastic' \
    ./internal/trsv ./internal/fault ./internal/core ./internal/server

echo "== go test -count=10 (elastic pool chaos: forced closes are timing-dependent) =="
go test -count=10 -run TestChaosElasticPoolBackend ./internal/fault

echo "== go test -race -count=2 (concurrent solves scraping /metrics) =="
go test -race -count=2 -run 'Metrics|OpenMetrics|Histogram' \
    ./internal/metrics ./internal/core

echo "== go test -race -count=3 (concurrent solves sharing one plan, pool vs DES bits, strict and forced-elastic goldens, GPU reordering, block store) =="
go test -race -count=3 -run 'TestSchedConcurrentSolves|TestSchedPoolBitExact|TestEngineMatchesGoldens|TestElasticMatchesGoldens|TestGPUUnderMessageReordering|TestRankBlockStoreCoversPlan|TestSlotLinksMatchTrees' \
    ./internal/trsv ./internal/sched

echo "== go test -race -count=2 (wire byte model, sent-panel immutability + deferred-queue stress) =="
go test -race -count=2 \
    -run '^(TestByteAccountingInvariant|TestSentPanelsImmutable|TestDrainDeferredChains|TestDrainDeferredZeroesVacatedTail)$' \
    ./internal/trsv

echo "== block-kernel fuzz (bounded) =="
go test -run '^$' -fuzz '^FuzzGemmKernels$' -fuzztime 10s ./internal/sparse

echo "== simulator event-queue fuzz (bounded) =="
go test -run '^$' -fuzz '^FuzzEventQueue$' -fuzztime 10s ./internal/runtime

echo "== Matrix Market reader fuzz (bounded) =="
go test -run '^$' -fuzz '^FuzzRead$' -fuzztime 10s ./internal/mtx

echo "== tuned-config cache loader fuzz (bounded) =="
go test -run '^$' -fuzz '^FuzzOpenCache$' -fuzztime 10s ./internal/tune

echo "== X-Request-ID echo fuzz (bounded) =="
go test -run '^$' -fuzz '^FuzzRequestID$' -fuzztime 10s ./internal/server

echo "== solve-request config fuzz (bounded) =="
go test -run '^$' -fuzz '^FuzzSolveConfigDecode$' -fuzztime 10s ./internal/server

echo "== go test -race -count=2 (solve service stress: clients x scrapes x cache churn; default layout rule) =="
go test -race -count=2 -run 'TestServerStressRace|TestCoalesce|TestQueueFull|TestForBudget|TestDefaultLayoutCapsPzAtLeaves' \
    ./internal/server ./internal/server/loadgen ./internal/grid

echo "== go test -race -count=3 (handle store: one lock, identity = content + resolved factor options, depth capped at log2 n, per-handle default) =="
go test -race -count=3 -run '^(TestPutDistinguishesValuesWithSamePattern|TestUploadGenerateDedupAndInspect|TestHandleLRUEvictionAndDelete|TestHandleIdentityIncludesFactorOptions|TestReuploadSkipsFactorization|TestStaleDefaultDiesWithHandle|TestHandleLRUVictimIsLeastRecentlyUsed|TestUploadRejectsOutOfRangeTreeDepth|TestTuneCacheOutlivesHandle|TestServerStressRace)$' \
    ./internal/server
go test -race -count=3 -run '^(TestFactorOptionsResolve|TestDepthCapKeepsFactorBitIdentical)$' \
    ./internal/core

echo "== go test -count=20 (a System's retained heap pinned to its block store) =="
go test -count=20 -run '^TestSystemHeapPinnedToBlockStore$' ./internal/core

echo "== go test -race -count=2 (request tracing / flight recorder / exemplars) =="
go test -race -count=2 ./internal/reqtrace
go test -race -count=2 \
    -run 'Flight|Statusz|Exemplar|DebugRequest|RequestID|TraceOff|ShedRequests|ConcurrentTraffic' \
    ./internal/server ./internal/metrics

echo "== solve service + loadgen smoke =="
go run ./cmd/figures -only slo -scale small -quick

echo "== benchmark regression gate =="
scripts/bench_regress

echo "== level-sweep and critical-path profile smoke =="
go run ./cmd/trace -matrix s2d9pt -px 4 -py 4 -pz 4 -trees binary

echo "== elasticity sweep smoke (strict vs elastic under stragglers) =="
go run ./cmd/figures -only elastic -scale small -quick

echo "== quick solve benchmarks =="
go test -run xxx -bench 'Solve' -benchmem -benchtime 1x .

echo "== check.sh OK =="
