package hfl

import (
	"math"

	"middle/internal/data"
	"middle/internal/nn"
	"middle/internal/optim"
	"middle/internal/tensor"
)

// Trainer owns the compute state one local round needs — a network, its
// optimizer and the storage every mini-batch is drawn into — so memory is
// proportional to parallelism, not to the device count, and a round in
// steady state allocates nothing batch-, activation- or model-sized. The
// simulator keeps one per pool worker and evaluates on the same networks
// between rounds; a fednet device or device multiplexer keeps one.
type Trainer struct {
	Net *nn.Network
	Opt optim.Optimizer

	// The current batch: sample indices, inputs and labels, refilled in
	// place (data.Dataset.BatchInto) by every step and evaluation chunk.
	idx []int
	x   *tensor.Tensor
	y   []int

	// rng is the simulator's per-worker generator, re-seeded to each
	// edge's selection stream and each device's batch stream it takes.
	rng *tensor.RNG
}

// LocalRound is the device side of Algorithm 1 line 8: steps mini-batch
// updates (Eq. 5) from start over the device's shard, batches drawn from
// the caller's rng stream. The trained parameters are written into out,
// which may be start itself. With resume set the optimizer is not reset
// first: a device that moved warm just imported the moments it kept, and
// the round continues its own trajectory.
//
// It returns the Oort statistical utility d_m·sqrt(mean per-sample
// loss²) and how many steps the non-finite loss guard skipped. A
// diverged step would write NaN/Inf into the parameters and poison every
// aggregation downstream, so it is dropped (the parameters keep their
// pre-step values) and left out of the utility; with every step skipped
// there is no loss evidence and the utility is zero, not NaN.
func (tw *Trainer) LocalRound(ds *data.Dataset, shard []int, steps, batch int, rng *tensor.RNG,
	start, out []float64, resume bool) (util float64, skipped int) {
	tw.Net.SetParamVector(start)
	if !resume {
		tw.Opt.Reset()
	}
	if batch > len(shard) {
		batch = len(shard)
	}
	if cap(tw.idx) < batch {
		tw.idx = make([]int, batch)
	}
	idx := tw.idx[:batch]
	sumSq, samples := 0.0, 0
	for i := 0; i < steps; i++ {
		for b := range idx {
			idx[b] = shard[rng.Intn(len(shard))]
		}
		tw.x, tw.y = ds.BatchInto(idx, tw.x, tw.y)
		logits := tw.Net.Forward(tw.x, true)
		loss, g, perSample := nn.SoftmaxCrossEntropyPerSample(logits, tw.y)
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			skipped++
			continue
		}
		tw.Net.Backward(g)
		tw.Opt.Step(tw.Net.Params())
		for _, l := range perSample {
			sumSq += l * l
		}
		samples += len(perSample)
	}
	tw.Net.ParamVectorInto(out)
	if samples > 0 {
		util = float64(len(shard)) * math.Sqrt(sumSq/float64(samples))
	}
	return util, skipped
}

// predict classifies the samples idx of ds with the parameters the
// network currently holds (an evaluation-mode forward) and returns the
// predicted and the true class of each; labels is valid until the
// trainer's next batch.
func (tw *Trainer) predict(ds *data.Dataset, idx []int) (pred, labels []int) {
	tw.x, tw.y = ds.BatchInto(idx, tw.x, tw.y)
	return tw.Net.Forward(tw.x, false).ArgMaxRows(), tw.y
}
