#!/bin/sh
# ci.sh — the repository's verify command. Runs the same gates a
# reviewer runs locally; any failure is a red build.
#
#   ./ci.sh
set -eu

cd "$(dirname "$0")"

echo "== gofmt -s =="
unformatted=$(gofmt -s -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt -s needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet =="
go vet ./...

# fgbsvet is the repository's own invariant analyzer (determinism,
# ctxpropagation, floatcompare, errwrap, guardedby, plus the
# flow-sensitive lockorder/goroutineleak/keypurity/allochot checks —
# see DESIGN.md). Findings are suppressed only at the site with
# //fgbs:allow + reason. The driver loads and analyzes packages in
# parallel (-workers 0 = GOMAXPROCS; output is byte-identical to
# serial), tees a machine-readable report with per-check timings to
# fgbsvet.json for artifact upload, and reports its own runtime on
# stderr. On failure the vet-style file:line:col lines still print.
echo "== fgbsvet =="
go run ./cmd/fgbsvet -workers 0 -json fgbsvet.json ./...

echo "== go build =="
go build ./...

# The examples are the façade's runnable documentation: each must run
# to completion, not only compile (about 20 s for all six on 2 vCPUs).
echo "== examples =="
for ex in examples/*/; do
	go run "./${ex%/}" > /dev/null
done

# The chaos gate drives fault-injected measurement end to end on a
# fixed seed (20140215, the reference profile): subset predictions must
# stay within 2x the clean-run error and every fault schedule must
# converge or degrade loudly (stale markers, breaker state) — never
# silently corrupt a result. -race is mandatory here: retry/backoff
# and breaker probing are where the concurrency lives. The second line
# repeats the job-saturation test 100 times: its worker-to-test handoff
# once dropped a signal under -race and hung until the binary's timeout,
# and a single run rarely shows that.
echo "== chaos =="
go test -race -timeout 20m -run '^TestChaos' ./internal/pipeline ./internal/server
go test -race -count=100 -timeout 5m -run '^TestChaosHealthzReportsJobSaturation$' ./internal/server

# The crash-recovery gate kills a real fgbsd mid-job at each armed
# crashpoint (journal write, artifact write, pre-rename), restarts it,
# and requires the resumed job to finish with byte-identical results on
# the reference seed (20140215) and every surviving artifact to pass
# frame verification. -race because resume re-enters the worker pool
# and the disk breaker under load.
echo "== crash recovery =="
go test -race -timeout 10m -run '^TestCrashRecovery$' ./cmd/fgbsd

# The artifact plane gate runs the two-daemon e2e on real binaries: a
# warm fgbsd serves its profile artifact over /v1/artifacts/{key} to a
# cold -peers daemon, which must finish the same sweep byte-identically
# with zero local simulator invocations and every fetched frame
# verifying. -race because the peer tier sits under the same breaker
# and promotion machinery the local tiers do.
echo "== artifact plane =="
go test -race -timeout 10m -run '^TestPeerArtifactPlane$' ./cmd/fgbsd

# The corpus smoke gate: materialize a synthetic suite from the CLI
# (flag validation + byte-identical generation) and drive the small
# registered suite through the full Subset→Evaluate pipeline under
# -race with stable cluster membership. Generation fans out across
# workers, so the race detector is load-bearing here.
echo "== corpus smoke =="
go run ./cmd/fgbs corpus -family stencil2d -n 8 -seed 42 > /dev/null
go test -race -timeout 10m -run '^TestCorpusSmokeSubsetEvaluate$' ./internal/corpus

# Heavy single-threaded reproduction tests in the root package skip
# themselves under -race (see skipIfRace in fixtures_test.go); all
# concurrency-bearing code runs with the detector on.
echo "== go test -race =="
go test -race -timeout 25m ./...

# fanout.Run is the one worker pool behind every parallel loop, and
# its error precedence (the lowest-indexed failing unit wins, a done
# ctx wins over both) depends on the interleaving, so its tests repeat
# under the race detector to see many schedules.
echo "== fanout =="
go test -race -count=50 -run . ./internal/fanout

# The job manager's records race its workers: a pending job's Cancel
# against a worker's pickup, a terminal write against Done() waiters
# and against GC's tombstone. Which record lands last depends on the
# interleaving, so the package's tests repeat under the race detector
# to see many schedules.
echo "== jobs =="
go test -race -count=20 -run . ./internal/jobs

# fgbsd renders each distinct answer once: identical concurrent queries
# join the first one's render, and a renderer whose client leaves must
# not fail the requests that joined it. Which requests join and which
# replay a stored answer depends on the interleaving, so these tests
# repeat under the race detector to see many schedules.
echo "== answers =="
go test -race -count=20 -run '^TestAnswer' ./internal/server

# The cache simulator's differential fuzz: seeded address/write
# streams, flushes, counter resets and preloads go through the packed
# MRU-ordered Level and Hierarchy and through the clock-stamped
# reference model kept in the test code, on every modeled geometry plus
# tiny 1/2/4-way ones; any divergence in hit, dirty eviction, level,
# counters or residency is a red build. The target's seed corpus
# (every geometry on seeds 1-3) runs in the plain go test above; this
# step searches past it.
echo "== cache fuzz =="
go test -run '^$' -fuzz '^FuzzLevelMatchesReference$' -fuzztime 10s ./internal/cache

# The simulator's differential fuzz: sim.Measure, which replays an
# invocation whose start state (cache words with dirty bits, parameter
# values) repeats the last walked one and jumps an innermost loop over
# a line run after an iteration that hits L1 on every ref, and
# sim.MeasureGroup, which walks once for all machines of an L1 geometry
# over shared cache levels, against the oracle kept in the test code,
# which walks every iteration of every invocation on one machine
# (measureWalkingEvery with runEveryIteration). Inputs are every
# machine, fuzzed machine groups (duplicates included), both modes and
# fuzzed invocation counts and seeds over
# every corpus family, a composed app, a NAS codelet with dataset
# variation, an in-place sweep and the line-run kernels (refs sharing
# an L1 set up to ways+1 lines, negative, zero and line-sized strides,
# 1- and 2-trip loops, stores, a gather); any difference in a returned
# Measurement is a red build. The seed corpus runs in the plain go test
# above; this step searches past it.
echo "== sim fuzz =="
go test -run '^$' -fuzz '^FuzzMeasureMatchesWalk$' -fuzztime 10s ./internal/sim

# The fault stack's differential fuzz: measure.Robust over
# fault.Injector measuring a group of machines in one MeasureGroup call
# against a fresh stack measuring each machine alone. Inputs are fuzzed
# machine groups, rule targets, noise, outlier, transient and permanent
# rates, machine-down episodes, retry budgets, seeds and both modes
# (no hangs or delays: they pace on the wall clock); any difference in
# a measurement, an error, an attempt count or a counter is a red
# build. The seed corpus runs in the plain go test above; this step
# searches past it.
echo "== fault fuzz =="
go test -run '^$' -fuzz '^FuzzGroupMatchesPerMachine$' -fuzztime 10s ./internal/measure

# The binary profile decoder reads bytes from disk and from peers, so it
# must reject anything that is not an exact encoding: arbitrary input
# yields an error or a consistent profile, never a panic or an
# allocation sized by a forged count, and an accepted input re-encodes
# to identical bytes. The seed corpus (a clean and a degraded profile,
# truncations, and a JSON profile that must be rejected) runs in the
# plain go test above; this step searches past it.
echo "== profile fuzz =="
go test -run '^$' -fuzz '^FuzzDecodeProfile$' -fuzztime 10s ./internal/pipeline

# The integrity frame is checked on bytes from disk and from peers, so
# Unframe must accept exactly one spelling of every artifact: any input
# it accepts must equal Frame of the payload it returns. The seed corpus
# (frames of an empty, a short and a 9 KB payload, plus truncations)
# runs in the plain go test above; this step searches past it.
echo "== frame fuzz =="
go test -run '^$' -fuzz '^FuzzUnframe$' -fuzztime 10s ./internal/stage

# Job-journal records are read back from disk on every restart, so
# recovery over one framed record with any JSON payload must never
# panic, must resume the ID counter past the record's filename, must
# adopt a record only under that filename's ID, and must either
# rehydrate an interrupted record or fail it with ErrNotResumable. The
# seed corpus (the records the journal tests build) runs in the plain
# go test above; this step searches past it.
echo "== journal fuzz =="
go test -run '^$' -fuzz '^FuzzJournalRecord$' -fuzztime 10s ./internal/jobs

# decodeBody is the one decoder for every /v1/* request body: a body it
# accepts into a query or a job request, re-encoded with json.Marshal,
# must be accepted again and decode to the same value. The seed corpus
# (a valid query, a GA job, trailing data and an unknown field, the
# last two rejected) runs in the plain go test above; this step
# searches past it.
echo "== body fuzz =="
go test -run '^$' -fuzz '^FuzzDecodeBody$' -fuzztime 10s ./internal/server

# Profile bytes must not depend on GOARCH. arm64, unlike amd64, may fuse
# x*y+z into one multiply-add that skips the product's rounding, so
# internal/sim rounds every such product explicitly (float64(x*y) + z).
# This step cross-builds fgbsd for arm64 (outside the tree) and fails
# if any internal/sim function disassembles to a fused multiply-add.
echo "== sim arm64 fma =="
tmp=$(mktemp -d)
GOARCH=arm64 go build -o "$tmp"/fgbsd ./cmd/fgbsd
fused=$(go tool objdump "$tmp"/fgbsd |
	awk '/^TEXT /{fn=$2} /FMADDD|FMSUBD|FNMADDD|FNMSUBD/ && fn ~ /^fgbs\/internal\/sim\./ {print fn}' |
	sort | uniq -c)
rm -rf "$tmp"
if [ -n "$fused" ]; then
	echo "fused multiply-adds in internal/sim on arm64 (round with float64(x*y) + z):" >&2
	echo "$fused" >&2
	exit 1
fi

# cmd/fgbsbench is a nested module (the end-to-end benchmark harness),
# so ./... above never reaches it. Its tests pin what the harness
# consumes of this module: server.Config.ProfileDir, the pipeline's
# NewProfileContext/Subset/Evaluate/SweepKContext, and the /metricz
# keys (registry.*, resultCache.*, stages.*). Run without -race: its
# warm-scan smoke window is too short for the detector's slowdown.
echo "== benchmark harness =="
(cd cmd/fgbsbench && go vet . && go test .)

# The performance trajectory gate (see README "Performance
# trajectory"): every internal/bench spec runs in quick mode and is
# diffed against the committed BENCH_17.json baseline; a median or
# allocation regression beyond the tolerance is a red build. The
# tolerance is deliberately wide — CI boxes jitter badly — so only
# order-of-magnitude mistakes (an accidental O(n²) in a hot path, a
# new allocation per element) trip it; tightening the trajectory is
# what fresh baselines are for. This gate also subsumes the old bench
# and stage-cache smokes: every spec executes end to end, and
# pipeline/ksweep-warm self-asserts in its Verify hook that a warm K
# sweep is served by the stage store without extra simulator
# invocations.
echo "== bench trajectory =="
go run ./cmd/fgbs bench -quick -compare BENCH_17.json -tolerance 200
# The go-test benchmarks still rot silently if nothing executes them:
# the Figure 7 parallel baseline carries its byte-identical-to-serial
# assertion in the bench body, so it must actually run.
go test -run='^$' -bench='^BenchmarkTable1Architectures$|^BenchmarkFigure7RandomClusteringBaselineParallel$' -benchtime=1x .

echo "ci.sh: all checks passed"
