package hfl

import (
	"sync"

	"middle/internal/nn"
)

// evalChunk is how many test samples one evaluation forward classifies:
// at most 64, and no more than a training batch, so an evaluation never
// grows a worker's layer scratch (nn/scratch.go) past what a training
// step needs.
func (s *Sim) evalChunk() int { return min(s.cfg.BatchSize, 64) }

// EvaluateVector measures the accuracy of a model vector on the test set
// (capped at maxSamples; 0 = all). It also returns per-class accuracy
// when perClass is true. The test set is generated round-robin by class,
// so a prefix subset stays class-balanced. The evalChunk-sample chunks
// are classified on the worker pool, each worker on its own network;
// hit counts are integers, so the result does not depend on which worker
// took which chunk.
func (s *Sim) EvaluateVector(vec []float64, maxSamples int, perClass bool) (acc float64, classAcc []float64) {
	n := s.test.Len()
	if maxSamples > 0 && maxSamples < n {
		n = maxSamples
	}
	chunk := s.evalChunk()
	chunks := (n + chunk - 1) / chunk
	for _, tw := range s.trainers[:min(len(s.trainers), chunks)] {
		tw.Net.SetParamVector(vec)
	}
	var mu sync.Mutex // guards the tallies below
	correct := 0
	var perCorrect, perTotal []int
	if perClass {
		perCorrect = make([]int, s.test.Classes)
		perTotal = make([]int, s.test.Classes)
	}
	s.fanOut(chunks, func(w, c int) {
		tw := s.trainers[w]
		tw.idx = tw.idx[:0]
		for i := c * chunk; i < min((c+1)*chunk, n); i++ {
			tw.idx = append(tw.idx, i)
		}
		pred, y := tw.predict(s.test, tw.idx)
		mu.Lock()
		defer mu.Unlock()
		for i, p := range pred {
			if perClass {
				perTotal[y[i]]++
			}
			if p == y[i] {
				correct++
				if perClass {
					perCorrect[y[i]]++
				}
			}
		}
	})
	acc = float64(correct) / float64(n)
	if perClass {
		classAcc = make([]float64, s.test.Classes)
		for c := range classAcc {
			if perTotal[c] > 0 {
				classAcc[c] = float64(perCorrect[c]) / float64(perTotal[c])
			}
		}
	}
	return acc, classAcc
}

// EvaluateVectorOnClasses measures accuracy restricted to a class subset
// (used by the Figure 1 motivation experiment's major/minor split).
func (s *Sim) EvaluateVectorOnClasses(vec []float64, classes []int, maxSamples int) float64 {
	want := make(map[int]bool, len(classes))
	for _, c := range classes {
		want[c] = true
	}
	n := s.test.Len()
	if maxSamples > 0 && maxSamples < n {
		n = maxSamples
	}
	tw := s.trainers[0]
	tw.Net.SetParamVector(vec)
	correct, total := 0, 0
	var idx []int
	for i := 0; i < n; i++ {
		if want[s.test.Label(i)] {
			idx = append(idx, i)
		}
	}
	for lo, chunk := 0, s.evalChunk(); lo < len(idx); lo += chunk {
		pred, y := tw.predict(s.test, idx[lo:min(lo+chunk, len(idx))])
		for i, p := range pred {
			total++
			if p == y[i] {
				correct++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// GlobalLoss computes the weighted global objective F(w) of Eq. 4 for a
// model vector over all device shards (capped per device to keep it
// affordable; 0 = all samples). Used by convergence diagnostics.
func (s *Sim) GlobalLoss(vec []float64, maxPerDevice int) float64 {
	tw := s.trainers[0]
	tw.Net.SetParamVector(vec)
	totalLoss, totalWeight := 0.0, 0.0
	for m := 0; m < s.numDevices; m++ {
		shard := s.part.Shard(m)
		n := len(shard)
		if maxPerDevice > 0 && maxPerDevice < n {
			n = maxPerDevice
		}
		if n == 0 {
			continue
		}
		tw.x, tw.y = s.part.Dataset.BatchInto(shard[:n], tw.x, tw.y)
		loss, _ := nn.SoftmaxCrossEntropy(tw.Net.Forward(tw.x, false), tw.y)
		w := float64(len(shard))
		totalLoss += w * loss
		totalWeight += w
	}
	if totalWeight == 0 {
		return 0
	}
	return totalLoss / totalWeight
}

// recordEval snapshots metrics for the current step into the history.
func (s *Sim) recordEval(t int) {
	perClass := s.cfg.EvalPerClass
	acc, classAcc := s.EvaluateVector(s.cloud, s.cfg.EvalSamples, perClass)
	var edgeAcc []float64
	if s.cfg.EvalEdges {
		edgeAcc = make([]float64, s.numEdges)
		for n := range s.edges {
			edgeAcc[n], _ = s.EvaluateVector(s.edges[n], s.cfg.EvalSamples, false)
		}
	}
	divs, divMean, divMax := s.tel.evalDivergence(s.cloud, s.edges)
	fair := s.tel.fairnessJain()
	s.metrics.globalAcc.Set(acc)
	s.history.AppendPoint(EvalPoint{
		Step: t, GlobalAcc: acc, PerClassAcc: classAcc, EdgeAcc: edgeAcc,
		CommDeviceEdge: s.commDeviceEdge, CommEdgeCloud: s.commEdgeCloud,
		Phases:      s.phases,
		SelUtilMean: s.tel.selUtilMean(), UpdNormMean: s.tel.updNormMean(),
		BlendUtilMean: s.tel.blendUtilMean(),
		EdgeDivMean:   divMean, EdgeDivMax: divMax, FairnessJain: fair,
		RejectRate: s.RejectionRate(),
	})
	if em := s.cfg.Events; em != nil {
		em.Emit("eval",
			"step", t,
			"global_acc", acc,
			"edge_divergence", append([]float64(nil), divs...),
			"fairness_jain", fair,
			"mobility_flow", s.tel.flowMatrix())
	}
}
