#!/bin/sh
# Full pre-merge gate: formatting, vet, build, tests, and the race
# detector on the two packages that spawn goroutines in hot paths.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l . | grep -v '^results/' || true)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:"
    echo "$unformatted"
    exit 1
fi
echo ok

echo "== go vet =="
go vet ./...

# Deeper static analysis, availability-gated: the checks run whenever the
# tools exist on PATH (this container has no network to install them).
# staticcheck is pinned so results are reproducible across machines;
# govulncheck is advisory only — a vulnerable-dependency report must not
# block an offline build.
STATICCHECK_PIN="2025.1"
echo "== staticcheck (pinned $STATICCHECK_PIN) =="
if command -v staticcheck > /dev/null 2>&1; then
    scver=$(staticcheck -version 2>/dev/null || true)
    case "$scver" in
    *"$STATICCHECK_PIN"*) ;;
    *) echo "note: staticcheck is '$scver', pin is $STATICCHECK_PIN — running anyway" ;;
    esac
    staticcheck ./...
    echo ok
else
    echo "skipped: staticcheck not on PATH (install pin: go install honnef.co/go/tools/cmd/staticcheck@$STATICCHECK_PIN)"
fi

echo "== govulncheck (non-fatal) =="
if command -v govulncheck > /dev/null 2>&1; then
    govulncheck ./... || echo "warning: govulncheck reported findings (advisory, not gating)"
else
    echo "skipped: govulncheck not on PATH (install: go install golang.org/x/vuln/cmd/govulncheck@latest)"
fi

echo "== go build =="
go build ./...

echo "== cross-build: no amd64 kernels (arm64), big-endian payload path (s390x) =="
# arm64: a simd_amd64.go dispatcher without its simd_generic.go twin. s390x: big-endian; fednet picks its payload body at run time (hostLE), so today this only guards against a future endian-tagged file.
for arch in arm64 s390x; do
    GOARCH=$arch go build ./...
    GOARCH=$arch go vet ./internal/tensor ./internal/nn ./internal/fednet
done

echo "== go test =="
go test ./...

echo "== go test -race (tensor, hfl, fednet, obs) =="
go test -race ./internal/tensor ./internal/hfl ./internal/fednet ./internal/obs

echo "== selection fan-out + lazy-store parity (-race, 5x) =="
# hfl.Sim calls Strategy.Select for its edges from the worker pool: the
# map-free TOPK against its map-based oracle, the store's private-state
# bitset against the map-only reference, and the per-edge cohorts at
# Parallelism 1 vs 4, five times under the race detector.
go test -race -count=5 \
    -run 'TestTopKByScoreMatchesOracle|TestLazyStoreMatchesMapReference|TestSelectionIdenticalAcrossParallelism' \
    ./internal/hfl

echo "== one level of parallelism + start-vector alias contract (-race, 3x) =="
# The worker pool is the only parallelism: models, edge models and every
# accuracy at Parallelism 1 vs 4 with evaluation chunks on the pool too.
# Strategies hand the engines their own edge/carried vectors as start
# vectors: both engines must only read them, and two devices of one edge
# read the same vector at once, so a write would also be a reported race.
go test -race -count=3 \
    -run 'TestSimBitIdenticalAcrossParallelism|TestGoldenModelHash|TestTrainPhaseOnlyReadsInitLocalResult|TestAliasingStrategyMatchesCloningStrategy' \
    ./internal/hfl
# Per-sample convolution against the whole-batch reference, the strided
# matmul, the in-place re-seed, and mobility.Model.Step's storage contract.
go test -race -count=3 -run 'TestConv2DBatchedMatchesReference|TestConv1DBatchedMatchesReference' ./internal/nn
go test -race -count=3 -run 'TestMatMulBlockIntoMatchesMatMulInto|TestReseedMatchesSplit' ./internal/tensor
# The step's kernels against the loops they replaced, bit for bit under
# both kernel families; the golden at the benchmark's geometry; and the
# no-layer-writes-its-input rule ReLU.Backward rests on.
go test -race -count=3 \
    -run 'TestAxpy4x2MatchesTwoAxpy4|TestDot3x1MatchesThreeDotVec|TestMatMulMatchesRowAtATimeKernel|TestMatMulTransBMatchesBlockedKernel|TestReluKernelsMatchScalarLoops|TestMaxPool2x2RowMatchesScalarLoop|TestLoweringMatchesNaiveBitForBit|TestGoldenBenchmarkGeometry' \
    ./internal/tensor
go test -race -count=3 \
    -run 'TestLayersDoNotWriteTheirInput|TestReLUBackwardRepeats|TestNetworkBackwardStopsAtFirstParameterisedLayer' \
    ./internal/nn
go test -race -count=3 -run 'TestStepResultSurvivesTheNextStep|TestStepAllocatesNothing|TestRecordRowsAreDistinct' ./internal/mobility

echo "== chaos smoke (-race) =="
# Seeded fault injection against the full cluster under the race
# detector: the run must complete and the degradation counters fire.
# The SLO-breach and forensics gate: a cluster that misses quorum every
# round must fire its rule, leave one complete flight bundle, and
# middlediag's report on it must name the rule, the counter and phases.
go test -race -count=1 \
    -run 'TestClusterChaosSoak|TestFaultPlanDeterministic|TestClusterQuorumFallback|TestQuorumBreachLeavesABundleMiddlediagExplains' \
    ./internal/fednet ./cmd/middlediag

echo "== device client attachment gate (-race, 3x) =="
# Every attachment feature at group sizes 1 and 3: the connect storm, a move back
# after a failed move, failover with warm re-homing, rejoin, churn (a leaver is
# deregistered at once; its moments stay put), warm arrivals under link faults,
# and a healthy cluster the real-clock detector leaves alone.
go test -race -count=3 \
    -run 'TestDeviceReconnectGenStorm|TestDeviceMoveBackAfterFailedMove|TestClusterFailoverRehome|TestClusterEdgeRejoin|TestClusterChurnMembership|TestClusterMigrationChaos|TestClusterHealthyStaysQuiet' \
    ./internal/fednet

echo "== wire buffer ownership gate (-race, 3x) =="
# Pooled frame buffers, replies decoded into recycled vectors, a device's
# two rotating vectors: 8 writer/reader pairs checking every frame after
# the next was read, edge caches audited against the devices every round,
# one device under two edges at once with delayed writes and readers.
go test -race -count=3 \
    -run 'TestCodecBuffersNotSharedAcrossConnections|TestEdgeCachedModelsStayOwned|TestFrameBytesGolden|TestDeviceVectorsStayOwned|TestDeviceTrainOnlyReadsPayloadAndCarriedModel' \
    ./internal/fednet
go test -race -count=3 -run 'TestResetKeepsBuffersNotState|TestImportAfterResetOwnsItsState' ./internal/optim

echo "== parser fuzz (10 s each) =="
# go test replays the committed corpora; this also explores from them.
for t in fednet.FuzzReadMsg checkpoint.FuzzLoadState checkpoint.FuzzDecodeHandover mobility.FuzzReadTrace hfl.FuzzReadHistoryCSV obs/slo.FuzzParseRules obs/flight.FuzzParseCPUProfile obs/tsdb.FuzzReadDump; do
    go test -run '^$' -fuzz "^${t#*.}\$" -fuzztime 10s "./internal/${t%.*}"
done

echo "== start-up race gate (-race, 20x) =="
# StartCluster must hold the first round until its devices are attached:
# these short runs failed intermittently with "connection refused" when
# the edges finished their rounds (and closed) during the attach.
go test -race -count=20 \
    -run 'TestClusterStaticMobility|TestClusterPoisonedUpdatesRejected|TestMuxMoveKeepsCarriedModel' \
    ./internal/fednet

echo "== adversarial smoke (-race) =="
# Byzantine devices against the robust stack under the race detector:
# sign-flip adversaries must not break trimmed-mean + norm-bound runs,
# a 20% sign-flip `middlesim -exp run` must reject updates (summary line
# and robust_rejected_updates_total) and end at accuracy >= 0.5, and
# poisoned cluster updates must be rejected, not aggregated.
go test -race -count=1 \
    -run 'TestAdversaryTrimmedMeanResists|TestAdversaryRunDeterministic|TestRobustDefaultsBitIdentical' \
    ./internal/hfl
go test -race -count=1 -run 'TestAdversarialRunSmoke' ./cmd/middlesim
go test -race -count=1 \
    -run 'TestClusterPoisonedUpdatesRejected|TestEdgeCheckpointResume' \
    ./internal/fednet

echo "== middled metrics smoke test =="
tmpdir=$(mktemp -d)
go build -o "$tmpdir/middled" ./cmd/middled
"$tmpdir/middled" -role cloud -addr 127.0.0.1:0 -edges 1 -rounds 1 \
    -metrics-addr 127.0.0.1:0 > "$tmpdir/middled.log" 2>&1 &
mpid=$!
pids=""
cleanup() {
    kill "$mpid" $pids 2>/dev/null || true
    rm -rf "$tmpdir"
}
trap cleanup EXIT
maddr=""
i=0
while [ $i -lt 50 ]; do
    maddr=$(sed -n 's/.*metrics listening on \(.*\)$/\1/p' "$tmpdir/middled.log")
    [ -n "$maddr" ] && break
    sleep 0.1
    i=$((i + 1))
done
if [ -z "$maddr" ]; then
    echo "middled never announced its metrics listener:"
    cat "$tmpdir/middled.log"
    exit 1
fi
body=$(curl -fsS "http://$maddr/metrics")
for want in fednet_rounds_total process_goroutines tensor_kernel_matmul_calls; do
    if ! printf '%s\n' "$body" | grep -q "$want"; then
        echo "/metrics is missing the $want series"
        exit 1
    fi
done
curl -fsS "http://$maddr/status" | grep -q '"role": "cloud"' || {
    echo "/status did not report role=cloud"
    exit 1
}
curl -fsS "http://$maddr/debug/trace" | grep -q '"traceEvents"' || {
    echo "/debug/trace did not serve a trace document"
    exit 1
}
echo ok

echo "== middlesim telemetry + trace smoke test =="
go build -o "$tmpdir/middlesim" ./cmd/middlesim
go build -o "$tmpdir/middleplot" ./cmd/middleplot
# 200 steps keeps the run alive a couple of seconds so the live
# /metrics poll below has a real window to observe the hfl_* series.
# The run also arms the embedded tsdb + default SLO gate: fault-free it
# must exit 0 and leave a renderable dump behind.
"$tmpdir/middlesim" -exp run -task mnist -steps 200 \
    -metrics-addr 127.0.0.1:0 \
    -slo default -tsdb-interval 100ms \
    -tsdb-out "$tmpdir/run.tsdb.json" \
    -trace-out "$tmpdir/run.trace.json" \
    -telemetry-out "$tmpdir/run.telemetry.jsonl" \
    > "$tmpdir/middlesim.log" 2>&1 &
spid=$!
saddr=""
i=0
while [ $i -lt 100 ]; do
    saddr=$(sed -n 's/.*metrics listening on \(.*\)$/\1/p' "$tmpdir/middlesim.log")
    [ -n "$saddr" ] && break
    sleep 0.1
    i=$((i + 1))
done
if [ -z "$saddr" ]; then
    echo "middlesim never announced its metrics listener:"
    cat "$tmpdir/middlesim.log"
    exit 1
fi
# Poll /metrics while the run is live for the learning-dynamics series.
found=""
i=0
while [ $i -lt 100 ]; do
    live=$(curl -fsS "http://$saddr/metrics" 2>/dev/null || true)
    if printf '%s\n' "$live" | grep -q hfl_selection_utility &&
        printf '%s\n' "$live" | grep -q hfl_edge_divergence; then
        found=yes
        break
    fi
    if ! kill -0 "$spid" 2>/dev/null; then
        break
    fi
    sleep 0.05
    i=$((i + 1))
done
wait "$spid" || {
    echo "middlesim run failed:"
    cat "$tmpdir/middlesim.log"
    exit 1
}
if [ -z "$found" ]; then
    echo "/metrics never exposed hfl_selection_utility + hfl_edge_divergence"
    exit 1
fi
grep -q '"traceEvents"' "$tmpdir/run.trace.json" || {
    echo "-trace-out wrote no trace document"
    exit 1
}
grep -q '"event":"round"' "$tmpdir/run.telemetry.jsonl" || {
    echo "-telemetry-out wrote no round events"
    exit 1
}
grep -q '"event":"eval"' "$tmpdir/run.telemetry.jsonl" || {
    echo "-telemetry-out wrote no eval events"
    exit 1
}
head -c 16 "$tmpdir/run.tsdb.json" | grep -q '{"tsdb":1' || {
    echo "-tsdb-out wrote no tsdb dump"
    exit 1
}
"$tmpdir/middleplot" -in "$tmpdir/run.tsdb.json" > "$tmpdir/run.tsdb.txt" || {
    echo "middleplot could not render the tsdb dump"
    exit 1
}
grep -q 'hfl_global_accuracy' "$tmpdir/run.tsdb.txt" || {
    echo "tsdb dump chart is missing the accuracy series:"
    cat "$tmpdir/run.tsdb.txt"
    exit 1
}
echo ok

echo "== middled checkpoint kill-and-resume smoke =="
# Run a small cloud+edge+devices deployment with checkpointing, kill the
# cloud with SIGKILL once a checkpoint lands, then restart everything
# over the same directory: the new cloud must log that it resumed and
# finish the remaining rounds.
ckptdir="$tmpdir/ckpt"
mkdir -p "$ckptdir"

# scrape_addr LOGFILE PATTERN — poll a log for an announced address.
scrape_addr() {
    _addr=""
    _i=0
    while [ $_i -lt 100 ]; do
        _addr=$(sed -n "s/.*$2 \([0-9.:]*\).*/\1/p" "$1" | head -n 1)
        [ -n "$_addr" ] && break
        sleep 0.1
        _i=$((_i + 1))
    done
    if [ -z "$_addr" ]; then
        echo "never found \"$2\" in $1:" >&2
        cat "$1" >&2
        exit 1
    fi
    printf '%s' "$_addr"
}

start_fleet() {
    # $1: cloud log, $2: edge log, $3: devices log
    "$tmpdir/middled" -role cloud -addr 127.0.0.1:0 -edges 1 -rounds 8 -tc 2 \
        -checkpoint-dir "$ckptdir" > "$1" 2>&1 &
    cpid=$!
    pids="$pids $cpid"
    caddr=$(scrape_addr "$1" "cloud listening on")
    "$tmpdir/middled" -role edge -id 0 -cloud "$caddr" -addr 127.0.0.1:0 \
        -strategy MIDDLE -k 2 > "$2" 2>&1 &
    epid=$!
    pids="$pids $epid"
    eaddr=$(scrape_addr "$2" "serving devices on")
    "$tmpdir/middled" -role devices -edgeaddrs "$eaddr" -from 0 -to 3 \
        > "$3" 2>&1 &
    dpid=$!
    pids="$pids $dpid"
}

start_fleet "$tmpdir/cloud1.log" "$tmpdir/edge1.log" "$tmpdir/devices1.log"

# Wait for the first checkpoint, then SIGKILL the cloud mid-run (or
# just after completion — the resume path below handles both).
i=0
while [ $i -lt 300 ]; do
    if ls "$ckptdir"/*.ckpt > /dev/null 2>&1; then
        break
    fi
    if ! kill -0 "$cpid" 2>/dev/null; then
        break
    fi
    sleep 0.1
    i=$((i + 1))
done
if ! ls "$ckptdir"/*.ckpt > /dev/null 2>&1; then
    echo "no checkpoint appeared in $ckptdir:"
    cat "$tmpdir/cloud1.log"
    exit 1
fi
kill -9 "$cpid" 2>/dev/null || true
kill "$epid" "$dpid" 2>/dev/null || true
wait "$cpid" "$epid" "$dpid" 2>/dev/null || true

start_fleet "$tmpdir/cloud2.log" "$tmpdir/edge2.log" "$tmpdir/devices2.log"
grep -q "resuming from checkpoint" "$tmpdir/cloud2.log" || {
    echo "restarted cloud did not resume from checkpoint:"
    cat "$tmpdir/cloud2.log"
    exit 1
}
i=0
while [ $i -lt 600 ]; do
    if grep -q "training complete" "$tmpdir/cloud2.log"; then
        break
    fi
    if ! kill -0 "$cpid" 2>/dev/null; then
        break
    fi
    sleep 0.1
    i=$((i + 1))
done
grep -q "training complete" "$tmpdir/cloud2.log" || {
    echo "resumed cloud never completed training:"
    cat "$tmpdir/cloud2.log"
    tail -n 5 "$tmpdir/edge2.log" "$tmpdir/devices2.log"
    exit 1
}
kill "$cpid" "$epid" "$dpid" 2>/dev/null || true
echo ok

echo "== million-device scale-out smoke =="
# The scale acceptance gate: a 1M-device / 1k-edge lazy-store run must
# finish and keep peak RSS bounded by the cohort (ceiling 2 GiB; the
# run sits around ~300 MiB) with at most -resident-cap models
# materialized. The run also arms the full observability stack — while
# it is live, the dashboard and query/alert APIs must serve, the series
# count must stay under the tsdb budget, and no SLO may fire on a
# fault-free run.
"$tmpdir/middlesim" -exp scale -devices 1000000 -edges 1000 \
    -k 1 -tc 2 -steps 2 -resident-cap 4096 \
    -metrics-addr 127.0.0.1:0 -slo default > "$tmpdir/scale.log" 2>&1 &
scpid=$!
pids="$pids $scpid"
scaddr=$(scrape_addr "$tmpdir/scale.log" "metrics listening on")
obsok=""
i=0
while [ $i -lt 600 ]; do
    count=$(curl -fsS "http://$scaddr/api/series" 2>/dev/null |
        sed -n 's/.*"count":\([0-9]*\).*/\1/p')
    if [ -n "$count" ] && [ "$count" -gt 0 ] && [ "$count" -le 4096 ] &&
        curl -fsS "http://$scaddr/dashboard" 2>/dev/null |
        grep -q 'middle dashboard' &&
        curl -fsS "http://$scaddr/api/query?series=obs_series" 2>/dev/null |
        grep -q '"points":\[\[' &&
        curl -fsS "http://$scaddr/api/alerts" 2>/dev/null |
        grep -q '"firing": 0'; then
        obsok=yes
        break
    fi
    if ! kill -0 "$scpid" 2>/dev/null; then
        break
    fi
    sleep 0.2
    i=$((i + 1))
done
wait "$scpid" || {
    echo "million-device scale run failed (or an SLO fired fault-free):"
    cat "$tmpdir/scale.log"
    exit 1
}
if [ -z "$obsok" ]; then
    echo "observability endpoints never satisfied the scale gate" \
        "(series count bounded, zero firing SLOs)"
    cat "$tmpdir/scale.log"
    exit 1
fi
cat "$tmpdir/scale.log"
rss=$(sed -n 's/.*peak_rss_mib=\([0-9]*\).*/\1/p' "$tmpdir/scale.log")
if [ -z "$rss" ]; then
    echo "scale run never reported peak_rss_mib"
    exit 1
fi
if [ "$rss" -ge 2048 ]; then
    echo "peak RSS ${rss} MiB breaches the 2 GiB scale ceiling"
    exit 1
fi
resident=$(sed -n 's/.*peak_resident_models=\([0-9]*\).*/\1/p' "$tmpdir/scale.log")
if [ -z "$resident" ] || [ "$resident" -gt 4096 ]; then
    echo "peak resident models ${resident:-unreported} exceeds the 4096 cap"
    exit 1
fi
# The population-wide pass (mobility draw, membership diff, candidate
# lists, one O(1) score per device) must stay cheaper than training the
# 1k-device cohort it picks.
select_s=$(sed -n 's/.* select_s=\([0-9.]*\).*/\1/p' "$tmpdir/scale.log")
train_s=$(sed -n 's/.* train_s=\([0-9.]*\).*/\1/p' "$tmpdir/scale.log")
if [ -z "$select_s" ] || [ -z "$train_s" ]; then
    echo "scale run never reported select_s/train_s"
    exit 1
fi
if [ -z "$(awk -v s="$select_s" -v t="$train_s" 'BEGIN { print (s <= t) ? "yes" : "" }')" ]; then
    echo "select phase ${select_s}s exceeds training ${train_s}s on the 1M-device run"
    exit 1
fi
# Nonsensical combination must be rejected with a clear message.
if "$tmpdir/middlesim" -exp scale -devices 1000 -edges 10 -k 5 \
    -resident-cap 49 > "$tmpdir/scale_bad.log" 2>&1; then
    echo "cohort > resident-cap was not rejected"
    exit 1
fi
grep -q "cohort" "$tmpdir/scale_bad.log" || {
    echo "rejection message does not explain the cohort constraint:"
    cat "$tmpdir/scale_bad.log"
    exit 1
}
echo ok

echo "== bench sim_fleet correctness gate =="
# The benchmark's population-scale workload at its fixed 100-round job.
# The last line is the driver's contract object; its "correct" flag is
# false unless the target accuracy was reached, the final accuracy
# cleared its floor and the model stayed finite.
go run ./bench -workload sim_fleet -seconds 1 > "$tmpdir/bench_fleet.log" 2>&1 &&
    tail -n 1 "$tmpdir/bench_fleet.log" | grep -q '"correct":true' || {
    echo "bench sim_fleet run is not correct:"
    cat "$tmpdir/bench_fleet.log"
    exit 1
}
tail -n 1 "$tmpdir/bench_fleet.log"
echo ok

echo "== bench sim_tta correctness gate =="
# The same flag for the training-bound workload; it also replays a
# same-seed prefix on a second engine and demands the same model hash.
go run ./bench -workload sim_tta -seconds 1 > "$tmpdir/bench_tta.log" 2>&1 &&
    tail -n 1 "$tmpdir/bench_tta.log" | grep -q '"correct":true' || {
    echo "bench sim_tta run is not correct:"
    cat "$tmpdir/bench_tta.log"
    exit 1
}
tail -n 1 "$tmpdir/bench_tta.log"
# Peak RSS is a property of the program, not of the box's speed: ~165 MB
# with layer scratch sized by a sample and a training batch, ~265 MB when
# an evaluation chunk's whole-batch lowering set the high-water mark.
rss=$(tail -n 1 "$tmpdir/bench_tta.log" | sed -n 's/.*"peak_rss_mb":{"value":\([0-9.]*\).*/\1/p')
awk -v rss="$rss" 'BEGIN { exit !(rss > 0 && rss <= 240) }' || {
    echo "bench sim_tta peak_rss_mb is '$rss', want at most 240"
    exit 1
}
echo ok

echo "== bench net_steady correctness gate =="
# The same flag for the deployment's steady workload, where every round
# moves ~34 model frames through the pooled codec.
go run ./bench -workload net_steady -seconds 1 > "$tmpdir/bench_steady.log" 2>&1 &&
    tail -n 1 "$tmpdir/bench_steady.log" | grep -q '"correct":true' || {
    echo "bench net_steady run is not correct:"
    cat "$tmpdir/bench_steady.log"
    exit 1
}
tail -n 1 "$tmpdir/bench_steady.log"
echo ok

echo "== live-migration smoke =="
# Deployment handover: a high-mobility in-process fednet deployment with
# -live-migration must complete at least one successful handover — the
# summary's ok count is fednet_migrations_total{outcome="ok"}.
"$tmpdir/middlesim" -exp scale -devices 24 -edges 3 -k 2 -tc 2 -steps 8 \
    -mux 2 -p 0.6 -seed 3 -live-migration > "$tmpdir/mig_deploy.log" 2>&1 || {
    echo "live-migration deployment run failed:"
    cat "$tmpdir/mig_deploy.log"
    exit 1
}
grep -Eq 'migrations: [1-9][0-9]* ok' "$tmpdir/mig_deploy.log" || {
    echo "deployment reported no successful migrations:"
    cat "$tmpdir/mig_deploy.log"
    exit 1
}
# Cluster.Stranded() rides in the deployment summary; a fault-free run
# must end with every device attached somewhere.
grep -q ' 0 stranded devices' "$tmpdir/mig_deploy.log" || {
    echo "fault-free deployment ended with stranded devices:"
    cat "$tmpdir/mig_deploy.log"
    exit 1
}
# Every cloud runs the lease detector: a fault-free run keeps failovers
# at 0 and reports the epoch reached by the initial joins.
grep -Eq 'membership: 0 edge failovers, 0 devices re-homed, epoch [1-9]' \
    "$tmpdir/mig_deploy.log" || {
    echo "fault-free deployment mis-reported its membership:"
    cat "$tmpdir/mig_deploy.log"
    exit 1
}
echo ok

echo "== middled graceful-shutdown (SIGTERM) smoke =="
# SIGTERM mid-run must drain the in-flight round, write a final
# checkpoint, flush telemetry and exit 0 — not die mid-write.
gsdir="$tmpdir/gsckpt"
mkdir -p "$gsdir"
# -round-interval paces the schedule so the run is still mid-flight
# when the signal lands (device-less rounds otherwise finish in
# microseconds while the devices process is still loading its data).
"$tmpdir/middled" -role cloud -addr 127.0.0.1:0 -edges 1 -rounds 2000 -tc 2 \
    -round-interval 100ms -checkpoint-dir "$gsdir" > "$tmpdir/gs_cloud.log" 2>&1 &
gcpid=$!
pids="$pids $gcpid"
gcaddr=$(scrape_addr "$tmpdir/gs_cloud.log" "cloud listening on")
"$tmpdir/middled" -role edge -id 0 -cloud "$gcaddr" -addr 127.0.0.1:0 \
    -strategy MIDDLE -k 2 > "$tmpdir/gs_edge.log" 2>&1 &
gepid=$!
pids="$pids $gepid"
geaddr=$(scrape_addr "$tmpdir/gs_edge.log" "serving devices on")
"$tmpdir/middled" -role devices -edgeaddrs "$geaddr" -from 0 -to 3 \
    > "$tmpdir/gs_devices.log" 2>&1 &
gdpid=$!
pids="$pids $gdpid"
i=0
while [ $i -lt 300 ]; do
    if grep -q "attached to edge" "$tmpdir/gs_devices.log" &&
        ls "$gsdir"/*.ckpt > /dev/null 2>&1; then
        break
    fi
    if ! kill -0 "$gcpid" 2>/dev/null; then
        break
    fi
    sleep 0.1
    i=$((i + 1))
done
kill -TERM "$gcpid" 2>/dev/null || true
gsrc=0
wait "$gcpid" || gsrc=$?
if [ "$gsrc" -ne 0 ]; then
    echo "SIGTERM'd cloud exited $gsrc, want 0:"
    cat "$tmpdir/gs_cloud.log"
    exit 1
fi
grep -q "shutting down gracefully" "$tmpdir/gs_cloud.log" || {
    echo "cloud never acknowledged the signal:"
    cat "$tmpdir/gs_cloud.log"
    exit 1
}
grep -q "graceful stop after round" "$tmpdir/gs_cloud.log" || {
    echo "cloud did not drain the in-flight round before exiting:"
    cat "$tmpdir/gs_cloud.log"
    exit 1
}
ls "$gsdir"/*.ckpt > /dev/null 2>&1 || {
    echo "no checkpoint survived the graceful shutdown in $gsdir"
    exit 1
}
# The final checkpoint must be loadable: a resumed cloud over the same
# directory has to come up cleanly from it.
"$tmpdir/middled" -role cloud -addr 127.0.0.1:0 -edges 1 -rounds 2000 -tc 2 \
    -checkpoint-dir "$gsdir" > "$tmpdir/gs_cloud2.log" 2>&1 &
gc2pid=$!
pids="$pids $gc2pid"
i=0
while [ $i -lt 100 ]; do
    if grep -q "resuming from checkpoint" "$tmpdir/gs_cloud2.log"; then
        break
    fi
    if ! kill -0 "$gc2pid" 2>/dev/null; then
        break
    fi
    sleep 0.1
    i=$((i + 1))
done
grep -q "resuming from checkpoint" "$tmpdir/gs_cloud2.log" || {
    echo "graceful-shutdown checkpoint did not load on restart:"
    cat "$tmpdir/gs_cloud2.log"
    exit 1
}
kill -TERM "$gdpid" 2>/dev/null || true
wait "$gdpid" 2>/dev/null || true
grep -q "detached" "$tmpdir/gs_devices.log" || {
    echo "devices did not detach cleanly on SIGTERM:"
    cat "$tmpdir/gs_devices.log"
    exit 1
}
kill "$gepid" "$gc2pid" 2>/dev/null || true
wait "$gepid" "$gc2pid" 2>/dev/null || true
echo ok

echo "== self-healing failover chaos smoke =="
# The membership acceptance gate, on real processes: SIGKILL one of
# three edges mid-run. The lease detector must declare it dead, every
# orphaned device must fail over to a survivor (stranded gauge back to
# 0), restarting the edge must rejoin it under a bumped epoch, and the
# run must finish within 0.05 accuracy of a fault-free baseline.
start_memb_fleet() {
    # $1: log prefix, $2: -mux group size of the devices role. Sets
    # mcpid/mcaddr, medge0..2 pids, mea0..2 addrs, mdpid. Devices run with
    # -failover so they can re-home on their own.
    # -round-interval keeps the schedule on wall-clock pace so devices
    # attach within the first rounds and the kill lands mid-run.
    "$tmpdir/middled" -role cloud -addr 127.0.0.1:0 -edges 3 -rounds 30 \
        -tc 2 -round-interval 400ms -lease-interval 200ms \
        > "$1_cloud.log" 2>&1 &
    mcpid=$!
    pids="$pids $mcpid"
    mcaddr=$(scrape_addr "$1_cloud.log" "cloud listening on")
    for eid in 0 1 2; do
        "$tmpdir/middled" -role edge -id "$eid" -cloud "$mcaddr" \
            -addr 127.0.0.1:0 -strategy MIDDLE -k 2 > "$1_edge$eid.log" 2>&1 &
        eval "medge$eid=$!"
        pids="$pids $!"
        eval "mea$eid=\$(scrape_addr \"$1_edge$eid.log\" 'serving devices on')"
    done
    "$tmpdir/middled" -role devices -edgeaddrs "$mea0,$mea1,$mea2" \
        -from 0 -to 8 -mux "$2" -failover -p 0.4 -movems 300 \
        -metrics-addr 127.0.0.1:0 > "$1_devices.log" 2>&1 &
    mdpid=$!
    pids="$pids $mdpid"
}

wait_cloud_log() {
    # $1: cloud log, $2: pattern, $3: ticks of 0.1s, $4: description
    i=0
    while [ $i -lt "$3" ]; do
        if grep -q "$2" "$1"; then
            return 0
        fi
        if ! kill -0 "$mcpid" 2>/dev/null; then
            break
        fi
        sleep 0.1
        i=$((i + 1))
    done
    if ! grep -q "$2" "$1"; then
        echo "$4 (\"$2\" never appeared in $1):"
        tail -n 30 "$1"
        exit 1
    fi
}

# Fault-free baseline.
start_memb_fleet "$tmpdir/base" 1
wait_cloud_log "$tmpdir/base_cloud.log" "training complete" 1200 "baseline run stalled"
baseacc=$(sed -n 's/.*final accuracy \([0-9.]*\).*/\1/p' "$tmpdir/base_cloud.log")
kill -TERM "$mdpid" 2>/dev/null || true
kill "$medge0" "$medge1" "$medge2" 2>/dev/null || true
wait "$mcpid" "$mdpid" "$medge0" "$medge1" "$medge2" 2>/dev/null || true
if [ -z "$baseacc" ]; then
    echo "baseline run reported no final accuracy"
    exit 1
fi

failover_chaos() {
    # $1: -mux group size of the devices role. SIGKILL edge 1 once devices
    # are attached and training is under way.
    cp="$tmpdir/chaos$1"
    start_memb_fleet "$cp" "$1"
    i=0
    while [ $i -lt 300 ]; do
        if grep -q "attached to edge" "${cp}_devices.log"; then
            break
        fi
        sleep 0.1
        i=$((i + 1))
    done
    wait_cloud_log "${cp}_cloud.log" "round 4 synced" 1200 "chaos run never reached round 4"
    kill -9 "$medge1" 2>/dev/null || true
    wait_cloud_log "${cp}_cloud.log" "edge 1 declared dead" 300 "lease detector never declared the killed edge dead"
    # Devices orphaned by the kill must re-home to a survivor on their own.
    i=0
    while [ $i -lt 300 ]; do
        if grep -q "failed over from edge 1" "${cp}_devices.log"; then
            break
        fi
        sleep 0.1
        i=$((i + 1))
    done
    grep -q "failed over from edge 1" "${cp}_devices.log" || {
        echo "-mux $1: no device failed over off the killed edge:"
        tail -n 30 "${cp}_devices.log"
        exit 1
    }
    # Restart the edge on its old address with the same id: the cloud must
    # readmit it as a rejoin under a bumped membership epoch.
    "$tmpdir/middled" -role edge -id 1 -cloud "$mcaddr" -addr "$mea1" \
        -strategy MIDDLE -k 2 > "${cp}_edge1b.log" 2>&1 &
    medge1b=$!
    pids="$pids $medge1b"
    wait_cloud_log "${cp}_cloud.log" "edge 1 rejoined at epoch" 600 "restarted edge never rejoined"
    # With the full fleet healthy again, the device-side stranded gauge
    # must read 0 — nobody is permanently stranded by the outage.
    mdaddr=$(scrape_addr "${cp}_devices.log" "metrics listening on")
    strandok=""
    i=0
    while [ $i -lt 300 ]; do
        sval=$(curl -fsS "http://$mdaddr/metrics" 2>/dev/null |
            sed -n 's/^fednet_stranded_devices \([0-9.]*\)$/\1/p')
        if [ "$sval" = "0" ]; then
            strandok=yes
            break
        fi
        if ! kill -0 "$mcpid" 2>/dev/null; then
            break
        fi
        sleep 0.1
        i=$((i + 1))
    done
    if [ -z "$strandok" ]; then
        echo "-mux $1: stranded-device gauge never returned to 0 after the rejoin (last: '$sval')"
        tail -n 30 "${cp}_devices.log"
        exit 1
    fi
    wait_cloud_log "${cp}_cloud.log" "training complete" 1800 "chaos run stalled"
    chaosacc=$(sed -n 's/.*final accuracy \([0-9.]*\).*/\1/p' "${cp}_cloud.log")
    kill -TERM "$mdpid" 2>/dev/null || true
    kill "$medge0" "$medge1b" "$medge2" 2>/dev/null || true
    wait "$mcpid" "$mdpid" "$medge0" "$medge1b" "$medge2" 2>/dev/null || true
    # A device that exhausts every candidate logs a hard strand; the chaos
    # window leaves two live survivors, so that must never happen.
    if grep -q "no failover candidate reachable" "${cp}_devices.log"; then
        echo "-mux $1: a device exhausted all failover candidates during the outage:"
        grep "no failover candidate reachable" "${cp}_devices.log"
        exit 1
    fi
    if [ -z "$chaosacc" ]; then
        echo "-mux $1: chaos run reported no final accuracy"
        exit 1
    fi
    accok=$(awk -v b="$baseacc" -v c="$chaosacc" 'BEGIN { print (c >= b - 0.05) ? "yes" : "" }')
    if [ -z "$accok" ]; then
        echo "-mux $1: chaos accuracy $chaosacc fell more than 0.05 below baseline $baseacc"
        exit 1
    fi
    echo "failover chaos (-mux $1): baseline acc $baseacc, chaos acc $chaosacc"
}

# Self-healing works the same whatever the devices role's group size.
failover_chaos 1
failover_chaos 2
echo ok

echo "All checks passed."
