#!/bin/sh
# Full pre-merge gate: gofmt, go vet (the gate-tagged file too),
# staticcheck when on PATH, the build and an arm64/s390x cross-build,
# tier-1 tests, the race detector over four packages and the named
# concurrency tests, the parser fuzz loop, and last the ten process gates
# of gate_test.go, which run the built binaries as real processes.
# One gate alone: go test -tags gate -run TestGateFailover -v .
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
go vet -tags gate .

# Deeper static analysis, availability-gated: the checks run whenever the
# tools exist on PATH. staticcheck is pinned so results are reproducible
# across machines; govulncheck is advisory only — a vulnerable-dependency
# report must not block an offline build.
STATICCHECK_PIN="2025.1"
echo "== staticcheck (pinned $STATICCHECK_PIN) =="
if command -v staticcheck > /dev/null 2>&1; then
    scver=$(staticcheck -version 2>/dev/null || true)
    case "$scver" in
    *"$STATICCHECK_PIN"*) ;;
    *) echo "note: staticcheck is '$scver', pin is $STATICCHECK_PIN — running anyway" ;;
    esac
    staticcheck ./...
    staticcheck -tags gate .
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
# arm64: a simd_amd64.go dispatcher without its simd_generic.go twin. s390x: big-endian;
# fednet picks its payload body at run time (hostLE), so this guards a future endian-tagged file.
for arch in arm64 s390x; do
    GOARCH=$arch go build ./...
    GOARCH=$arch go vet ./internal/tensor ./internal/nn ./internal/fednet ./internal/optim ./internal/simil
done

echo "== go test =="
go test ./...

echo "== go test -race (tensor, hfl, fednet, obs) =="
go test -race ./internal/tensor ./internal/hfl ./internal/fednet ./internal/obs

echo "== selection fan-out + lazy-store parity (-race, 5x) =="
# hfl.Sim calls Strategy.Select for its edges from the worker pool: the
# map-free TOPK against its oracle, the store's private-state bitset
# against the map-only reference, and the per-edge cohorts at
# Parallelism 1 vs 4.
go test -race -count=5 \
    -run 'TestTopKByScoreMatchesOracle|TestLazyStoreMatchesMapReference|TestSelectionIdenticalAcrossParallelism' \
    ./internal/hfl

echo "== one level of parallelism + start-vector alias contract (-race, 3x) =="
# The worker pool is the only parallelism: models, edge models and every
# accuracy at Parallelism 1 vs 4. Engines only read the start vectors
# strategies hand them; two devices of one edge read one at once, so a
# write would also be a reported race. Then per-sample convolution, the
# strided matmul, the in-place re-seed; the step's kernels against the
# loops they replaced under both kernel families; the no-layer-writes-
# its-input rule; and mobility.Model.Step's storage contract.
go test -race -count=3 \
    -run 'TestSimBitIdenticalAcrossParallelism|TestGoldenModelHash|TestTrainPhaseOnlyReadsInitLocalResult|TestAliasingStrategyMatchesCloningStrategy' \
    ./internal/hfl
go test -race -count=3 -run 'TestConv2DBatchedMatchesReference|TestConv1DBatchedMatchesReference' ./internal/nn
go test -race -count=3 -run 'TestMatMulBlockIntoMatchesMatMulInto|TestReseedMatchesSplit' ./internal/tensor
go test -race -count=3 \
    -run 'TestAxpy4x2MatchesTwoAxpy4|TestDot3x1MatchesThreeDotVec|TestMatMulMatchesRowAtATimeKernel|TestMatMulTransBMatchesBlockedKernel|TestReluKernelsMatchScalarLoops|TestMaxPool2x2RowMatchesScalarLoop|TestLoweringMatchesNaiveBitForBit|TestGoldenBenchmarkGeometry' \
    ./internal/tensor
go test -race -count=3 \
    -run 'TestLayersDoNotWriteTheirInput|TestReLUBackwardRepeats|TestNetworkBackwardStopsAtFirstParameterisedLayer' \
    ./internal/nn
go test -race -count=3 -run 'TestStepResultSurvivesTheNextStep|TestStepAllocatesNothing|TestRecordRowsAreDistinct' ./internal/mobility

echo "== step overlap (-race, 3x) =="
# StepOnce draws M^{t+1} on a goroutine beside round t's training and
# splits the population sweep into Parallelism device ranges: the
# candidates every Select sees, the move and flow counts, one Step at a
# time, S+1 Steps for S steps and none outliving its step; then the
# bits at Parallelism 1 vs 4 and lazy vs dense.
go test -race -count=3 \
    -run 'TestSweepMatchesSerialAcrossParallelism|TestRunStepsMobilityExactly|TestSimBitIdenticalAcrossParallelism|TestSelectionIdenticalAcrossParallelism|TestLazyStoreBitIdenticalToDense' \
    ./internal/hfl

echo "== chaos smoke (-race) =="
# Seeded fault injection against the full cluster; a train RPC that ends
# with its round (a shared-connection straggler trains the next round, a
# late reply never reaches it, a stuck request write is cut at the round's
# deadline); and the SLO-breach and forensics gate: a
# cluster that misses quorum every round fires its rule, leaves one flight
# bundle, and middlediag's report names the rule, the counter and the
# phases.
go test -race -count=1 \
    -run 'TestClusterChaosSoak|TestFaultPlanDeterministic|TestClusterQuorumFallback|TestStragglerOnSharedConnectionTrainsNextRound|TestLateReplyNeverReachesTheNextRound|TestStuckRequestWriteEndsWithItsRound|TestQuorumBreachLeavesABundleMiddlediagExplains' \
    ./internal/fednet ./cmd/middlediag

echo "== device client attachment gate (-race, 3x) =="
# At group sizes 1 and 3: the connect storm, a move back after a failed
# move, failover with warm re-homing, rejoin, churn, warm arrivals under
# link faults, a healthy cluster the real-clock detector leaves alone, a
# fleet stopped mid-run, and the acked leave.
go test -race -count=3 \
    -run 'TestDeviceReconnectGenStorm|TestDeviceMoveBackAfterFailedMove|TestClusterFailoverRehome|TestClusterEdgeRejoin|TestClusterChurnMembership|TestClusterMigrationChaos|TestClusterHealthyStaysQuiet|TestFleetStopDetachesMidRun|TestMoveLeavesBeforeConnectReturns' \
    ./internal/fednet

echo "== one algorithm in both engines (-race, 3x) =="
# StartCluster's cloud model equals hfl.Sim's after every sync of a static
# run, both engines' Select seeing the same rounds and candidates; moves
# only at round boundaries; a moving deployment is one model per seed.
go test -race -count=3 \
    -run 'TestClusterMatchesSimulator|TestFleetMovesAtBoundaries|TestClusterMovingRunsBitIdentical' \
    ./internal/fednet

echo "== wire buffer ownership gate (-race, 3x) =="
# Pooled frame buffers, recycled reply vectors, a device's two rotating
# vectors, edge scores audited against the devices, one device under two edges
# at once, a reply held until Eq. 6, a warm move's scores or payload, and an
# optimizer's buffers across Reset.
go test -race -count=3 \
    -run 'TestCodecBuffersNotSharedAcrossConnections|TestEdgeCachedModelsStayOwned|TestFrameBytesGolden|TestDeviceVectorsStayOwned|TestDeviceTrainOnlyReadsPayloadAndCarriedModel|TestDepartedReplyHeldUntilEq6|TestEq6InputsFreedOnce|TestWarmMoveCarriesScoresNotModel|TestWarmMovePayloadFallback' \
    ./internal/fednet
go test -race -count=3 -run 'TestResetKeepsBuffersNotState' ./internal/optim

echo "== parser fuzz (10 s each) =="
# go test replays the committed corpora; this also explores from them.
for t in fednet.FuzzReadMsg checkpoint.FuzzLoadState checkpoint.FuzzDecodeHandover mobility.FuzzReadTrace hfl.FuzzReadHistoryCSV obs/slo.FuzzParseRules obs/flight.FuzzParseCPUProfile obs/tsdb.FuzzReadDump; do
    go test -run '^$' -fuzz "^${t#*.}\$" -fuzztime 10s "./internal/${t%.*}"
done

echo "== start-up race gate (-race, 20x) =="
# StartCluster holds the first round until its devices are attached.
go test -race -count=20 \
    -run 'TestClusterStaticMobility|TestClusterPoisonedUpdatesRejected|TestMuxMoveKeepsCarriedModel' \
    ./internal/fednet

echo "== adversarial smoke (-race) =="
# Sign-flip adversaries against trimmed mean + norm bound, the 20%
# sign-flip simulator run through the command's own flags, and poisoned
# cluster updates rejected, not aggregated.
go test -race -count=1 \
    -run 'TestAdversaryTrimmedMeanResists|TestAdversaryRunDeterministic|TestRobustDefaultsBitIdentical' \
    ./internal/hfl
go test -race -count=1 -run 'TestAdversarialRunSmoke' ./cmd/middlesim
go test -race -count=1 \
    -run 'TestClusterPoisonedUpdatesRejected|TestEdgeCheckpointResume' \
    ./internal/fednet

echo "== process gates (go test -tags gate) =="
go test -tags gate -count=1 -timeout 30m .

echo "All checks passed."
