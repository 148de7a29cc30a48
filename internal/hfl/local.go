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
// between rounds; a fednet cluster shares one pool of GOMAXPROCS of them
// among all its device clients, and a standalone DeviceMux has a pool of
// one.
type Trainer struct {
	Net *nn.Network
	Opt optim.Optimizer

	// The current batch: sample indices, inputs and labels, refilled in
	// place (data.Dataset.BatchInto) by every step and evaluation chunk.
	idx []int
	x   *tensor.Tensor
	y   []int
	// A step's loss gradient and per-sample losses, rewritten by every
	// step (nn.SoftmaxCrossEntropyInto).
	grad      *tensor.Tensor
	perSample []float64
}

// DeviceUpdater is the simulator's device side of Algorithm 1 line 8:
// device's local round of steps updates from start into out (which may
// be start itself) at rate lr (Config.LRSchedule at this step, else
// Optimizer.LR), drawing randomness only from rng, which the simulator
// re-seeds per (step, device). It returns the Oort statistical utility
// and how many updates it skipped. Each pool worker owns one.
type DeviceUpdater interface {
	UpdateDevice(device int, start, out []float64, steps int, lr float64, rng *tensor.RNG) (util float64, skipped int)
}

// worker is one pool goroutine's updater and the generator it re-seeds
// to each edge's selection stream and each device's stream it takes.
type worker struct {
	dev   DeviceUpdater
	rng   *tensor.RNG
	cands []int // the edge's candidate ids widened for Strategy.Select; grow-only
}

// shardUpdater is New's DeviceUpdater: LocalRound over the device's
// shard. Without a schedule the rate stays the one Optimizer built.
type shardUpdater struct {
	*Trainer
	part     *data.Partition
	batch    int
	schedule bool
}

func (u shardUpdater) UpdateDevice(device int, start, out []float64, steps int, lr float64, rng *tensor.RNG) (float64, int) {
	if u.schedule {
		u.Opt.SetLR(lr)
	}
	return u.LocalRound(u.part.Dataset, u.part.Shard(device), steps, u.batch, rng, start, out)
}

// LocalRound is the device side of Algorithm 1 line 8: steps mini-batch
// updates (Eq. 5) from start over the device's shard, batches drawn from
// the caller's rng stream (BatchStream). The trained parameters are
// written into out, which may be start itself. The optimizer is reset
// first: nothing of a round reaches the next but the model.
//
// It returns the Oort statistical utility d_m·sqrt(mean per-sample
// loss²) and how many steps the non-finite loss guard skipped. A
// diverged step would write NaN/Inf into the parameters and poison every
// aggregation downstream, so it is dropped (the parameters keep their
// pre-step values) and left out of the utility; with every step skipped
// there is no loss evidence and the utility is zero, not NaN.
func (tw *Trainer) LocalRound(ds *data.Dataset, shard []int, steps, batch int, rng *tensor.RNG,
	start, out []float64) (util float64, skipped int) {
	tw.Net.SetParamVector(start)
	tw.Opt.Reset()
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
		var loss float64
		loss, tw.grad, tw.perSample = nn.SoftmaxCrossEntropyInto(tw.grad, tw.perSample, logits, tw.y)
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			skipped++
			continue
		}
		tw.Net.Backward(tw.grad)
		tw.Opt.Step(tw.Net.Params())
		for _, l := range tw.perSample {
			sumSq += l * l
		}
		samples += len(tw.perSample)
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
