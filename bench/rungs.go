package main

import (
	"bytes"
	"io"
	"runtime"
	"sync"
	"time"

	"middle/internal/checkpoint"
	"middle/internal/fednet"
	"middle/internal/nn"
	"middle/internal/optim"
	"middle/internal/robust"
	"middle/internal/simil"
	"middle/internal/tensor"
)

// sink keeps the compiler from discarding a rung's result.
var sink any

// timeOp returns the median time of one call of op: it sizes a batch to
// about a tenth of the budget, then times batches until the budget is
// spent (three at least) and takes the median batch.
func timeOp(budget time.Duration, op func()) time.Duration {
	op() // warm scratch buffers and caches
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		if d := time.Since(start); d >= budget/10 || n >= 1<<20 {
			break
		}
		n *= 2
	}
	var perOp []float64
	for begin := time.Now(); len(perOp) < 3 || time.Since(begin) < budget; {
		start := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		perOp = append(perOp, float64(time.Since(start))/float64(n))
	}
	return time.Duration(median(perOp))
}

// allocsPerOp is the mean number of heap objects one call allocates.
func allocsPerOp(op func()) float64 {
	const runs = 5
	op()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// measureRungs times the layers below a round in isolation, at the
// workload's own model, batch size, local-step count and cohort size, so
// each rung is the cost the workload actually pays for that call.
func measureRungs(w *workload, seed int64) map[string]float64 {
	out := make(map[string]float64)
	budget := w.rungBudget
	in := w.build(seed)
	// The fleet setup brings its own local-step count and batch size.
	steps, batch := in.simCfg.LocalSteps, in.simCfg.BatchSize
	net := in.factory(nil)
	dim := net.NumParams()
	ds, shard := in.part.Dataset, in.part.Indices[0]
	batch = min(batch, len(shard))

	// tensor: one blocked matmul and one BLAS-1 sweep at the model size.
	a, b, c := tensor.New(128, 128), tensor.New(128, 128), tensor.New(128, 128)
	rng := tensor.Split(seed, 0xBE)
	rng.FillNormal(a, 0, 1)
	rng.FillNormal(b, 0, 1)
	mm := timeOp(budget, func() { tensor.MatMulInto(c, a, b) })
	out["tensor.matmul_gflops"] = 2 * 128 * 128 * 128 / float64(mm)
	x1, y1 := tensor.New(dim), tensor.New(dim)
	rng.FillNormal(x1, 0, 1)
	axpy := timeOp(budget, func() { y1.AddScaledInPlace(1e-9, x1) })
	out["tensor.axpy_gbps"] = 3 * 8 * float64(dim) / float64(axpy)

	// data / nn / optim: the pieces of one local SGD step, then the
	// whole local round as a device runs it.
	idx := make([]int, batch)
	for i := range idx {
		idx[i] = shard[rng.Intn(len(shard))]
	}
	out["data.batch_us"] = us(timeOp(budget, func() { sink, _ = ds.Batch(idx) }))
	x, y := ds.Batch(idx)
	out["nn.forward_ms"] = ms(timeOp(budget, func() { sink = net.Forward(x, true) }))
	_, grad := nn.SoftmaxCrossEntropy(net.Forward(x, true), y)
	out["nn.backward_ms"] = ms(timeOp(budget, func() {
		net.ZeroGrad()
		sink = net.Backward(grad)
	}))
	opt := in.optimizer.New()
	out["optim.step_us"] = us(timeOp(budget, func() { opt.Step(net.Params()) }))

	// One wave of local rounds as the engines run them: GOMAXPROCS
	// devices train side by side, each on its own network, and share
	// the tensor kernels' worker pool. ⌈cohort/nproc⌉ waves make a round.
	init := in.factory(nil).ParamVector()
	trained := make([]float64, dim)
	lanes := make([]func(), runtime.GOMAXPROCS(0))
	for l := range lanes {
		lnet, lopt, lrng := in.factory(nil), in.optimizer.New(), tensor.Split(seed, int64(0xC0+l))
		lidx, lout := make([]int, batch), make([]float64, dim)
		if l == 0 {
			lout = trained
		}
		lanes[l] = func() {
			lnet.SetParamVector(init)
			lopt.Reset()
			for i := 0; i < steps; i++ {
				for b := range lidx {
					lidx[b] = shard[lrng.Intn(len(shard))]
				}
				bx, by := ds.Batch(lidx)
				lnet.ZeroGrad()
				_, g, _ := nn.SoftmaxCrossEntropyPerSample(lnet.Forward(bx, true), by)
				lnet.Backward(g)
				lopt.Step(lnet.Params())
			}
			lnet.ParamVectorInto(lout)
		}
	}
	out["nn.local_round_ms"] = ms(timeOp(4*budget, func() {
		var wg sync.WaitGroup
		for _, lane := range lanes[1:] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				lane()
			}()
		}
		lanes[0]()
		wg.Wait()
	}))

	// simil / robust: Eq. 12 utility and Eq. 6 over a cohort of K.
	vecs, weights := make([][]float64, max(w.k, 2)), make([]float64, max(w.k, 2))
	for i := range vecs {
		vecs[i] = make([]float64, dim)
		for j := range vecs[i] {
			vecs[i][j] = trained[j] + 0.01*rng.NormFloat64()
		}
		weights[i] = float64(len(shard))
	}
	dst := make([]float64, dim)
	var util float64
	out["simil.utility_us"] = us(timeOp(budget, func() { util = simil.Utility(init, vecs[0]) }))
	sink = util
	out["simil.weighted_avg_us"] = us(timeOp(budget, func() { simil.WeightedAverageInto(dst, vecs, weights) }))
	var acc simil.Accumulator
	total := weights[0] * float64(len(vecs))
	out["simil.accumulator_add_us"] = us(timeOp(budget, func() {
		acc.Begin(dst, total)
		for i, v := range vecs {
			acc.Add(v, weights[i])
		}
	})) / float64(len(vecs))
	var agg robust.Aggregator
	out["robust.aggregate_us"] = us(timeOp(budget, func() { agg.AggregateInto(dst, vecs, weights, init) }))

	// fednet codec: one model frame through WriteMsg and ReadMsg.
	var frame bytes.Buffer
	reply := fednet.TrainReply{DeviceID: 3, Round: 17, DataSize: len(shard), Utility: 1.5}
	encode := func() {
		frame.Reset()
		if err := fednet.WriteMsg(&frame, fednet.MsgTrainReply, reply, trained); err != nil {
			panic(err)
		}
	}
	enc := timeOp(budget, encode)
	raw := append([]byte(nil), frame.Bytes()...)
	var hdr fednet.TrainReply
	decode := func() {
		_, vec, err := fednet.ReadMsg(bytes.NewReader(raw), &hdr)
		if err != nil {
			panic(err)
		}
		sink = vec
	}
	dec := timeOp(budget, decode)
	out["fednet.frame_encode_us"], out["fednet.frame_decode_us"] = us(enc), us(dec)
	out["fednet.frame_bytes"] = float64(len(raw))
	out["fednet.frame_encode_allocs"], out["fednet.frame_decode_allocs"] = allocsPerOp(encode), allocsPerOp(decode)
	out["fednet.codec_mbps"] = float64(len(raw)) / 1e6 / (enc + dec).Seconds()

	// Move path: what a handover serialises, and a cloud checkpoint.
	exporter := opt.(optim.MomentExporter)
	var flat []float64
	var lens []int
	out["optim.moments_export_us"] = us(timeOp(budget, func() { flat, lens, _ = exporter.ExportMoments() }))
	hov := checkpoint.Handover{
		Device: 3, SrcEdge: 0, DestEdge: 1, Generation: 1, Round: 17, LastSync: 15, LastTrained: 16,
		Steps: steps, DataSize: len(shard), StatUtil: 1.5, Model: trained, MomentLens: lens, Moments: flat,
	}
	var rec []byte
	out["checkpoint.handover_encode_us"] = us(timeOp(budget, func() {
		var err error
		if rec, err = checkpoint.EncodeHandoverBytes(hov); err != nil {
			panic(err)
		}
	}))
	out["checkpoint.handover_decode_us"] = us(timeOp(budget, func() {
		h, err := checkpoint.DecodeHandoverBytes(rec)
		if err != nil {
			panic(err)
		}
		sink = h
	}))
	state := checkpoint.State{Name: "global", Round: 17, Model: trained, EdgeWeights: map[int]float64{0: 1, 1: 2}}
	out["checkpoint.state_save_us"] = us(timeOp(budget, func() {
		if err := checkpoint.SaveState(io.Discard, state); err != nil {
			panic(err)
		}
	}))
	return out
}
