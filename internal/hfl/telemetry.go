package hfl

import (
	"strconv"

	"middle/internal/obs"
	"middle/internal/simil"
)

// UtilityBuckets spans the [0, 1] range of the paper's similarity
// utilities (Eq. 8/12) with extra resolution near the clip point at 0.
func UtilityBuckets() []float64 {
	return []float64{0.001, 0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1}
}

// NormBuckets spans accumulated-update norms ‖Δw_m‖ from numerically
// zero (a device that trained nothing since the last sync) up to far
// beyond any healthy update magnitude.
func NormBuckets() []float64 {
	return []float64{1e-4, 1e-3, 0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 100}
}

// telemetry records the learning-dynamics quantities that explain a
// run's behaviour: the Eq. 12 selection utility and update-norm
// distributions, the Eq. 9 blend utility on mobility events, per-device
// participation counts (fairness) and the edge→edge mobility flow
// matrix. Like PhaseTimes, the scalar accumulators are always on — they
// are pure reads plus a few adds, keep results bit-identical and feed
// the History CSV columns of every run — while the obs instruments are
// built from cfg.Obs and no-op (allocation-free) when it is nil.
type telemetry struct {
	numEdges int

	// Cumulative sums/counts since the start of the run.
	selUtilSum   float64
	selUtilN     int64
	updNormSum   float64
	blendUtilSum float64
	blendUtilN   int64

	// Per-round sums, reset by beginRound, for the JSONL round event.
	roundSelUtilSum   float64
	roundSelUtilN     int64
	roundUpdNormSum   float64
	roundBlendUtilSum float64
	roundBlendUtilN   int64

	trainCounts []int64 // per-device training rounds (fairness)
	flowCounts  []int64 // numEdges×numEdges move counts, from*numEdges+to
	divScratch  []float64

	// obs instruments; every one is nil (and every method a no-op) when
	// the registry is nil. The flow counter matrix is pre-registered in
	// full so the mobility hot path never registers (allocates) a series.
	selUtilHist  *obs.Histogram
	updNormHist  *obs.Histogram
	blendHist    *obs.Histogram
	edgeDiv      []*obs.Gauge
	fairness     *obs.Gauge
	participants *obs.Gauge
	flow         []*obs.Counter
}

// maxPerEdgeSeries bounds the per-edge obs series families. The flow
// counter matrix is numEdges² series and the divergence gauges numEdges
// more; at population scale (1k+ edges) registering millions of series
// would dominate memory, so beyond this edge count the telemetry keeps
// its in-memory counters (flowCounts, History columns) but registers no
// per-edge instruments.
const maxPerEdgeSeries = 128

func newTelemetry(r *obs.Registry, numEdges, numDevices int) *telemetry {
	tel := &telemetry{
		numEdges:     numEdges,
		trainCounts:  make([]int64, numDevices),
		flowCounts:   make([]int64, numEdges*numEdges),
		divScratch:   make([]float64, numEdges),
		selUtilHist:  r.Histogram("hfl_selection_utility", UtilityBuckets()),
		updNormHist:  r.Histogram("hfl_update_norm", NormBuckets()),
		blendHist:    r.Histogram("hfl_blend_utility", UtilityBuckets()),
		edgeDiv:      make([]*obs.Gauge, numEdges),
		fairness:     r.Gauge("hfl_selection_fairness_jain"),
		participants: r.Gauge("hfl_participating_devices"),
		flow:         make([]*obs.Counter, numEdges*numEdges),
	}
	// Per-edge families are numEdges (divergence) and numEdges² (flow)
	// series; past maxPerEdgeSeries edges neither registers (nil
	// instruments no-op) and the History's edge_div_mean/edge_div_max
	// and the in-memory flowCounts carry the signal.
	if numEdges <= maxPerEdgeSeries {
		for n := 0; n < numEdges; n++ {
			tel.edgeDiv[n] = r.Gauge("hfl_edge_divergence", "edge", strconv.Itoa(n))
			for to := 0; to < numEdges; to++ {
				tel.flow[n*numEdges+to] = r.Counter("hfl_mobility_flow_total", "from", strconv.Itoa(n), "to", strconv.Itoa(to))
			}
		}
	}
	return tel
}

// beginRound resets the per-round accumulators.
func (tel *telemetry) beginRound() {
	tel.roundSelUtilSum = 0
	tel.roundSelUtilN = 0
	tel.roundUpdNormSum = 0
	tel.roundBlendUtilSum = 0
	tel.roundBlendUtilN = 0
}

// recordSelection logs one selected device's Eq. 12 utility and
// accumulated-update norm (computed against the pre-training carried
// model).
func (tel *telemetry) recordSelection(device int, utility, deltaNorm float64) {
	tel.selUtilSum += utility
	tel.selUtilN++
	tel.updNormSum += deltaNorm
	tel.roundSelUtilSum += utility
	tel.roundSelUtilN++
	tel.roundUpdNormSum += deltaNorm
	tel.trainCounts[device]++
	tel.selUtilHist.Observe(utility)
	tel.updNormHist.Observe(deltaNorm)
}

// recordBlend logs the Eq. 9 blend utility of one mobility event (a
// selected device entering a new edge).
func (tel *telemetry) recordBlend(utility float64) {
	tel.blendUtilSum += utility
	tel.blendUtilN++
	tel.roundBlendUtilSum += utility
	tel.roundBlendUtilN++
	tel.blendHist.Observe(utility)
}

// recordMove logs one device crossing from edge `from` to edge `to`.
func (tel *telemetry) recordMove(from, to int) {
	i := from*tel.numEdges + to
	tel.flowCounts[i]++
	tel.flow[i].Inc()
}

// selUtilMean returns the running mean selection utility (0 before any
// selection).
func (tel *telemetry) selUtilMean() float64 { return meanOf(tel.selUtilSum, tel.selUtilN) }

// updNormMean returns the running mean accumulated-update norm.
func (tel *telemetry) updNormMean() float64 { return meanOf(tel.updNormSum, tel.selUtilN) }

// blendUtilMean returns the running mean Eq. 9 blend utility.
func (tel *telemetry) blendUtilMean() float64 { return meanOf(tel.blendUtilSum, tel.blendUtilN) }

func meanOf(sum float64, n int64) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// evalDivergence computes each edge's divergence ‖w_n − w_c‖ from the
// cloud model, mirrors it into the per-edge gauges, and returns the
// (scratch-backed) slice plus its mean and max.
func (tel *telemetry) evalDivergence(cloud []float64, edges [][]float64) (divs []float64, mean, max float64) {
	divs = tel.divScratch
	sum := 0.0
	for n, e := range edges {
		d := simil.DeltaNorm(e, cloud)
		divs[n] = d
		sum += d
		if d > max {
			max = d
		}
		tel.edgeDiv[n].Set(d)
	}
	if len(edges) > 0 {
		mean = sum / float64(len(edges))
	}
	return divs, mean, max
}

// fairnessJain returns Jain's fairness index (Σx)²/(n·Σx²) over the
// per-device training counts: 1 when participation is uniform, → 1/n as
// one device dominates, and 0 before anyone has trained.
func (tel *telemetry) fairnessJain() float64 {
	var sum, sumSq float64
	for _, c := range tel.trainCounts {
		x := float64(c)
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(tel.trainCounts)) * sumSq)
}

// flowMatrix returns the cumulative edge→edge move counts as a nested
// [from][to] matrix (freshly allocated; used by JSONL eval events only).
func (tel *telemetry) flowMatrix() [][]int64 {
	out := make([][]int64, tel.numEdges)
	for n := range out {
		out[n] = append([]int64(nil), tel.flowCounts[n*tel.numEdges:(n+1)*tel.numEdges]...)
	}
	return out
}
