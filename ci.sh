#!/bin/sh
# Repository gate: formatting, static checks, the benchmark module's
# vet and short tests, the full test suite under
# the race detector (including the observability stress test with the
# request trace's Chrome renderer and stage clamps, the
# fault-injection matrix, the engine soak, the pooled segment worker's
# release of its input and the engine goroutine-leak
# check, the server e2e/drain/soak suite and the frame codec's pin,
# differential and allocation gate), the greedy matcher and emit
# identity gate, the cache stampede soak
# and the preset-dictionary round-trip gate (with the unknown-dict
# rejection at capacity on both fronts), the cluster kill/drain
# chaos gate (with the idle-fleet live count), the inflate drivers
# gate, the metric names-drift
# guard, coverage floors on the serving (lzssd and the cluster front)
# and matching layers, the
# suffix-array differential battery (cross-matcher round trips, the
# cache-key aliasing regression, the SA cluster front), a bounded fuzz
# pass over the hardened inflate entry points (differential against
# compress/flate), the wire-frame parser, the greedy matcher
# differential against the naive references
# and the all-levels round-trip differential through every block
# policy (each pass with minimization bounded to 1s, so it fuzzes),
# the observability overhead budget, and a fresh machine-readable
# benchmark point — including the GOMAXPROCS scaling sweep and the
# level-dial ratio table with its SA-beats-level-9 gate — gated
# against the committed previous-PR baseline (the BENCH_*.json
# trajectory format; see README "Performance & profiling"). The run's
# report goes to .bench_build/BENCH_ci.json (gitignored), so CI leaves
# the tree clean. Every named-test gate first proves that each
# |-alternative of its -run pattern still names a test (require_tests).
set -eu

cd "$(dirname "$0")"

# require_tests PATTERN [FLAG|PKG]...: fail unless every |-alternative
# of a gate's -run PATTERN lists at least one test under `go test -list`
# in the given packages. `go test -run` passes silently with "no tests
# to run", so a renamed or deleted test would otherwise turn its gate
# into a no-op.
require_tests() {
	pattern=$1
	shift
	for alt in $(printf '%s\n' "$pattern" | tr '|' ' '); do
		if ! go test -list "$alt" "$@" | grep -Eq '^(Test|Example|Benchmark|Fuzz)'; then
			echo "gate pattern '$pattern': '$alt' lists no test in $*" >&2
			exit 1
		fi
	done
}

# race_gate PATTERN [FLAG|PKG]...: the named tests under the race
# detector, uncached, after require_tests.
race_gate() {
	pattern=$1
	shift
	require_tests "$pattern" -race "$@"
	go test -race -run "$pattern" -count=1 "$@"
}

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

echo "== benchmark module: vet + short tests =="
# bench/ is its own Go module (replace lzssfpga => ../), so ./... does
# not reach it. It imports the matcher, the frame parser and the
# multiplexed client, so a refactor of those internals must fail here
# rather than only in a benchmark run.
(cd bench && go vet . && go test -short -count=1 .)

echo "== go test -race =="
go test -race ./...

echo "== observability race stress =="
# The registry under concurrent update and scrape, plus the one span
# record's two readers: the Chrome renderer and Finalize's stage clamps.
race_gate 'StressConcurrentScrape|TestWriteChromeTrace|TestFinalizeClampsStages' ./internal/obs

echo "== fault matrix (race) =="
race_gate FaultMatrix ./internal/testbench

echo "== engine soak + stall reorder + parallel option matrix (race) =="
# The option matrix crosses {plain, carry, preset dictionary} x
# {returned, sink} x {fast, resilient} through the one parallel driver
# (its traced cells hold the trace to one span per segment), plus a
# resilient dictionary run under panics and sink-path cancellation, and
# a pooled segment worker must not keep the caller's input alive past
# one collection (plain, carry and resilient runs).
race_gate 'TestEngineSoak|TestReorderUnderWorkerStalls|TestParallelOptionMatrix|TestParallelDictResilientRecoversPanics|TestParallelSinkContextCancel|TestPooledSegWorkerDoesNotPinInput' ./internal/deflate

echo "== engine soak at GOMAXPROCS=4 (race) =="
# The shared job queue and the reorder window only exercise cross-core
# hand-offs when more than one P is scheduling workers; pin 4 so a
# 1-core CI box still runs the concurrent interleavings, request reuse
# included.
require_tests 'TestEngineSoak|TestArena|TestRequest|TestSubmitAndStream' -race ./internal/deflate ./internal/engine
GOMAXPROCS=4 go test -race -run 'TestEngineSoak|TestArena|TestRequest|TestSubmitAndStream' -count=1 ./internal/deflate ./internal/engine

echo "== inflate drivers gate (race) =="
# The one inflate core under every decoder: the gen-2 corpora, stdlib
# streams and the repo's serial, parallel, stream, stored and
# dictionary outputs decode byte-identically through InflateLimited,
# StreamInflater at several Read sizes, ParseCommands + token.Expand,
# ZlibDecompressDict and compress/flate; the two code-validity
# regressions (an empty distance code is valid, an incomplete code is
# not); the fast symbol loop's edges (matches of distance 1-9 and every
# length across its output margin, wiki and CAN streams under every
# limit up to 300 bytes short of their size and once through every
# decoder, and its errors read as the careful loop's); and the output
# growth bound (capacity within the margin of the limit, allocations
# within 3x).
race_gate 'TestInflateDriversAgree|TestInflateAcceptsEmptyDistanceCode|TestInflateRejectsIncompleteCode|TestInflateFastLoopEdges|TestInflateOutputGrowthBounded' ./internal/deflate

echo "== engine goroutine-leak check (race) =="
race_gate TestEngineCloseLeavesNoWorkers ./internal/engine

echo "== server e2e + drain + soak (race) =="
# The TestServerDrain tests are tables over both framed fronts: lzssd
# and a cluster front over one lzssd backend. The drain holds plain
# (request-ID-less) requests beside pipelined ones, so each front's
# serial path is drained too.
race_gate 'TestServerE2E|TestServerDrain|TestServerSoak' ./internal/server

echo "== frame codec gate (race) =="
# The framed-TCP codec under every framed hop (client.Mux, lzssd's
# TCPFront, the cluster front): AppendMessage's bytes pinned by digest,
# ReadMessage held to a frame-by-frame etherlink.Reassemble reference
# on the corpus and on damaged and re-chunked messages, a bare header
# announcing 64 MiB allocating under 2 MiB, the round-trip and
# rejection tables, cap rejections keeping the request ID, and a failed
# response write traced as an error and never counted as a response.
race_gate 'TestWireBytesPinned|TestReadMessageMatchesReassemble|TestReadMessageHeaderAllocBound|TestServerTCPFailedWriteIsAnError|TestMessageRoundTrip|TestParseMessageRejections|TestReadMessageCapRejectionKeepsReqID' ./internal/server

echo "== greedy matcher + emit identity gate (race) =="
# The one greedy loop under every compressor front end, held to the
# naive references (commands, Stats and both histograms, the caller
# HashFunc and dictionary-tail rows included), to the streaming
# compressor, and to the cycle-accurate hardware model; the emit loop
# held byte for byte to one WriteBits per symbol; and a fresh parallel
# segment worker allocating at most 2.5x its final command bytes.
race_gate 'TestGreedyMatchesNaiveReference|TestGen2MatchesNaiveReference|TestStreamMatchesWholeBuffer|TestStreamGen2MatchesWholeBuffer|TestWordComparePathMatchesHardwareModel|TestEmitMatchesWriteBits|TestSegmentCommandBufferAllocBound' ./internal/lzss ./internal/deflate

echo "== cache stampede soak (race) =="
# 64 concurrent clients request the same hot block through real sockets;
# the engine must compress it exactly once — every other request hits
# the stored entry or coalesces onto the in-flight computation. The
# front-side variant drives the same shape through the routing tier.
race_gate 'TestServerCacheStampedeE2E|TestCacheStampede|TestFrontCacheStampede' ./internal/cache ./internal/server ./internal/cluster

echo "== dict round-trip gate (race) =="
# Preset-dictionary serving: byte-exact round trips over HTTP and
# framed TCP, including through a cluster front, and the unknown-dict
# in-band rejection on both fronts: resolved before the slot gate, so
# it answers 400 / StatusUnknownDict with every slot held, and never
# filed in the inspector. Dictionary requests run the
# configured resilient path: they survive panicking workers and a
# disconnecting HTTP client stops their compute and frees the slot.
race_gate 'TestServerDictRoundTripBothFronts|TestServerUnknownDict|TestServerDictResilient|TestServerClientDisconnectReleasesSlot|TestFrontDictRoundTripAndCache' ./internal/server ./internal/cluster

echo "== cluster chaos gate (race) =="
# Kill one backend outright and rolling-drain another while a 4-member
# fleet serves pipelined load: zero failed round trips, byte-exact
# responses, retries observed, breaker open/close transitions in the
# scrape (see TestClusterChaos). Its recovery check reads Live(), so the
# gate also holds Live() and cluster_backends_live to counting a member
# whose breaker's open interval has elapsed with no traffic.
race_gate 'TestClusterChaos|TestLiveCountsElapsedOpenBreaker' -timeout 180s ./internal/cluster

echo "== suffix-array differential battery (race) =="
# The high-ratio tier's proof obligations: command streams verified by
# a naive replayer and decoded byte-exact on every gen2 corpus at all
# three SA levels, SA output never larger than greedy level-6 zlib
# bytes, the parallel pipeline serving the tier per-segment, the
# level-9/level-10 cache-key aliasing regression, and byte-exact
# round trips through a 3-backend SA cluster front. (The server e2e SA
# round trip rides the TestServerE2E gate above.)
race_gate 'TestSACrossMatcher|TestSAMatchesNoShorterThanGreedy|TestSAConfigSurface|TestSAGreedyTail' ./internal/lzss
race_gate 'TestSARatioMonotonic|TestSAParallelPipeline' ./internal/deflate
race_gate 'TestConfigFingerprintLevelAliasing|TestCacheNeverAliasesAcrossLevels' ./internal/server
race_gate 'TestFrontSALevelRoundTrip' ./internal/cluster

echo "== metric names-drift guard =="
# Every canonical name in internal/obs/names.go must be registered by a
# fully-enabled registry, and the serving-path families must expose no
# metric the file does not declare (see TestMetricNamesDrift).
require_tests TestMetricNamesDrift .
go test -run TestMetricNamesDrift -count=1 .

echo "== serving coverage gates (>= 80%) =="
# The framed-TCP serving loop and both handlers on it: lzssd's engine
# handler (internal/server) and the cluster front's routing handler
# (internal/cluster).
for pkg in ./internal/server ./internal/cluster; do
	cover=$(go test -cover -count=1 "$pkg" | awk '/coverage:/ { sub("%", "", $5); print $5 }')
	echo "$pkg statement coverage: ${cover}%"
	if [ -z "$cover" ] || ! awk "BEGIN { exit !($cover >= 80.0) }"; then
		echo "$pkg coverage ${cover}% is below the 80% gate" >&2
		exit 1
	fi
done

echo "== matcher coverage gates (>= 80%) =="
for pkg in ./internal/lzss ./internal/lzss/sa; do
	cover=$(go test -cover -count=1 "$pkg" | awk '/coverage:/ { sub("%", "", $5); print $5 }')
	echo "$pkg statement coverage: ${cover}%"
	if [ -z "$cover" ] || ! awk "BEGIN { exit !($cover >= 80.0) }"; then
		echo "$pkg coverage ${cover}% is below the 80% gate" >&2
		exit 1
	fi
done

# The fuzz passes bound minimization to 1s: at the default 60s a 10s
# pass can spend its whole budget minimizing and fuzz nothing.
echo "== inflate fuzz (10s) =="
go test -run '^$' -fuzz FuzzInflate -fuzztime 10s -fuzzminimizetime 1s ./internal/deflate

echo "== frame parser fuzz (10s) =="
go test -run '^$' -fuzz FuzzFrameParser -fuzztime 10s -fuzzminimizetime 1s ./internal/server

echo "== greedy matcher differential fuzz (10s) =="
# Fuzzed bytes through every greedy row against naiveGreedy/naiveGen2
# and through the streaming compressor at a fuzzed write size.
go test -run '^$' -fuzz FuzzGreedyMatchesNaive -fuzztime 10s -fuzzminimizetime 1s ./internal/lzss

echo "== all-levels round-trip fuzz (10s) =="
# The cross-matcher differential oracle: every level of the dial —
# gen2 greedy, chain-lazy, suffix-array optimal — through every block
# policy (fixed, best of three, split) must round-trip any input
# through BOTH the stdlib inflater and the hardened one.
go test -run '^$' -fuzz FuzzRoundTripAllLevels -fuzztime 10s -fuzzminimizetime 1s ./internal/deflate

echo "== observability overhead budget =="
go test -run '^$' -bench ObsOverhead -benchtime 5x -count=1 .

echo "== benchmark report (scaling sweep, gated vs BENCH_pr9.json) =="
# Also runs the hot-block serving gate (cached_hot_wiki must beat
# uncached_zlib_wiki by >= 10x) and the level-dial ratio gate (every
# suffix-array level must strictly beat level 9's ratio on wiki).
report=.bench_build/BENCH_ci.json
mkdir -p .bench_build
go run ./cmd/lzssbench -json "$report" -sweep -compare BENCH_pr9.json
cat "$report"

echo "== sweep completeness guard (p4 row present) =="
# The scaling story depends on the GOMAXPROCS=4 sweep point existing in
# the report; a sweep that silently skipped it (or a refactor that
# dropped the sweep) must fail CI, not ship a hole.
if ! grep -q '"gomaxprocs": 4' "$report"; then
	echo "$report sweep section is missing the GOMAXPROCS=4 row" >&2
	exit 1
fi

echo "== cached serving row guard =="
# The hot-block trajectory rows must land in the report.
if ! grep -q '"cached_hot_wiki"' "$report" || ! grep -q '"uncached_zlib_wiki"' "$report"; then
	echo "$report is missing the cached/uncached hot-block rows" >&2
	exit 1
fi

echo "== level table row guard =="
# The ratio/throughput trade-off table must land in the report, SA
# endpoints included (the in-run gate already proved the ratios; this
# guards the rows' presence in the trajectory format).
if ! grep -q '"serial_wiki_l9"' "$report" || ! grep -q '"serial_wiki_l12"' "$report"; then
	echo "$report is missing the level-dial ratio table rows" >&2
	exit 1
fi

echo "CI OK"
