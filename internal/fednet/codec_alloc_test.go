//go:build !race

package fednet

import (
	"bytes"
	"io"
	"reflect"
	"runtime"
	"testing"
	"time"

	"middle/internal/core"
	"middle/internal/hfl"
)

// TestCodecSteadyStateAllocs pins what pooling and the fixed header
// layouts buy (the race detector changes allocation counts, hence the
// build tag): once the pools are warm, writing a frame of any type
// allocates nothing, the caller's header value included, and neither does
// reading one into an owned vector and a reading loop's reused headers.
// The frames' Spans are empty, as every Span is without tracing; a traced
// one costs its string. With JSON headers a write allocated twice and a
// read five to nine times.
func TestCodecSteadyStateAllocs(t *testing.T) {
	vec := make([]float64, 4096)
	reply := TrainReply{DeviceID: 3, Round: 17, DataSize: 100, Utility: 1.5}
	write := func() {
		if err := WriteMsg(io.Discard, MsgTrainReply, reply, vec); err != nil {
			t.Fatal(err)
		}
	}
	write() // warm the pool
	if n := testing.AllocsPerRun(200, write); n != 0 {
		t.Errorf("WriteMsg of a TrainReply value allocates %v times per frame, want 0", n)
	}

	var rd bytes.Reader
	var hs frameHeaders
	owned := make([]float64, len(vec))
	into := func(n int) []float64 { return owned[:n] }
	for _, fc := range frameCases {
		header := fc.header
		switch h := header.(type) {
		case RoundStart:
			h.Span = ""
			header = h
		case TrainRequest:
			h.Span = ""
			header = h
		}
		write := func() {
			if err := WriteMsg(io.Discard, fc.t, header, vec); err != nil {
				t.Fatal(err)
			}
		}
		write()
		if n := testing.AllocsPerRun(200, write); n != 0 {
			t.Errorf("%s: writing a frame allocates %v times, want 0", fc.name, n)
		}
		var frame bytes.Buffer
		if err := WriteMsg(&frame, fc.t, header, vec); err != nil {
			t.Fatal(err)
		}
		read := func() {
			rd.Reset(frame.Bytes())
			if typ, got, _, err := readFrame(&rd, &hs, into); err != nil || typ != fc.t || len(got) != len(vec) {
				t.Fatalf("%s: read type %d, %d values, err %v", fc.name, typ, len(got), err)
			}
		}
		read()
		if n := testing.AllocsPerRun(200, read); n != 0 {
			t.Errorf("%s: reading a frame into an owned vector allocates %v times, want 0", fc.name, n)
		}
		if got := reflect.ValueOf(hs.of(fc.t)); got.IsValid() && !reflect.DeepEqual(got.Elem().Interface(), header) {
			t.Errorf("%s: decoded %+v, want %+v", fc.name, got.Elem().Interface(), header)
		}
	}
}

// TestTrainRPCSteadyStateAllocBytes pins what a hosted device's second
// model vector buys: serving a train request — start model, local round,
// reply frame — allocates nothing model-sized once both vectors, the
// layers' scratch and the frame pool are warm, rounds that reset the
// carried model included. The model is 137 KB; a result vector per
// training, as before the rotation, would be all of that.
func TestTrainRPCSteadyStateAllocBytes(t *testing.T) {
	mx := trainableClient(t, 256, 0)
	trainRPCAllocBytes(t, mx, func(round int) TrainRequest {
		return TrainRequest{Round: round, Moved: true, ResetLocal: round%5 == 0}
	})
}

// TestTrainRPCWithMomentsSteadyStateAllocBytes is the same on a momentum
// optimizer, whose moment buffers every training resets and refills in
// place, every third one a move that keeps the carried model: nothing of
// the optimizer is exported, kept or imported, so a move allocates no more
// than a stay.
func TestTrainRPCWithMomentsSteadyStateAllocBytes(t *testing.T) {
	mx := trainableClient(t, 256, 0)
	mx.cfg.pool.each(func(tw *hfl.Trainer) {
		tw.Opt = hfl.OptimizerSpec{Kind: hfl.OptSGDMomentum, LR: 0.05, Momentum: 0.9}.New()
	})
	trainRPCAllocBytes(t, mx, func(round int) TrainRequest {
		return TrainRequest{Round: round, Moved: round%3 == 0}
	})
}

// trainRPCAllocBytes serves device 0 of mx the requests req builds, after
// four to warm up, and fails when one allocates 1 KB or more on average:
// the frame, the batch-sampling generator, the loss and the layers' views
// all reuse storage, so nothing is left to allocate per RPC. A per-P pool
// hands a goroutine that moved to another P a new model-sized frame
// buffer; at GOMAXPROCS 1 the measurement sees the RPC's own allocations.
func trainRPCAllocBytes(t *testing.T, mx *DeviceMux, req func(round int) TrainRequest) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const device, most = 0, 1 << 10
	payload := make([]float64, mx.cfg.pool.numParams())
	rpc := func(round int) {
		r := req(round)
		r.DeviceID = device
		vec, reply, err := mx.train(r, payload, 0)
		if err == nil {
			err = WriteMsg(io.Discard, MsgTrainReply, reply, vec)
		}
		mx.unpin(device)
		if err != nil {
			t.Fatal(err)
		}
	}
	round := 1
	for ; round <= 4; round++ {
		rpc(round)
	}
	const rpcs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for ; round <= 4+rpcs; round++ {
		rpc(round)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / rpcs
	t.Logf("%d bytes per train RPC, model %d", per, 8*len(payload))
	if per >= most {
		t.Errorf("a steady-state train RPC allocates %d bytes, want < %d (the model is %d)", per, most, 8*len(payload))
	}
}

// TestWarmMoveAllocBytes pins what a move costs in memory: one device
// re-homes back and forth between two live edges under a cloud that holds
// its first round for a fleet that never comes, carrying its trained
// model each time. The client copies the model into a pooled vector and the edges decode it
// into vectors the device freed when it left them, so a move, counted over
// the client and both edges, allocates less than one model; a fresh copy
// on each side would be two.
func TestWarmMoveAllocBytes(t *testing.T) {
	const device, moves = 0, 20
	mx := trainableClient(t, 256, device)
	defer mx.Disconnect()
	dim := mx.cfg.pool.numParams()
	cloud, err := NewCloud(CloudConfig{Addr: "127.0.0.1:0", Edges: 2, Rounds: 1, CloudInterval: 1,
		InitModel: make([]float64, dim), Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// No fleet registers, so no round runs while the device moves.
	cloudErr := make(chan error, 1)
	go func() { cloudErr <- cloud.Run() }()
	var edges []*Edge
	edgeErr := make(chan error, 2)
	for id := range 2 {
		e, err := NewEdge(EdgeConfig{EdgeID: id, CloudAddr: cloud.Addr(), Addr: "127.0.0.1:0", K: 1,
			Strategy: core.NewGeneral(), Seed: 1, Timeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		edges = append(edges, e)
		go func() { edgeErr <- e.Run() }()
	}
	defer func() {
		cloud.Stop()
		if err := <-cloudErr; err != nil {
			t.Error(err)
		}
		for range edges {
			if err := <-edgeErr; err != nil {
				t.Error(err)
			}
		}
	}()

	if _, _, err := mx.train(TrainRequest{Round: 1, DeviceID: device}, make([]float64, dim), 0); err != nil {
		t.Fatal(err)
	}
	mx.unpin(device)
	move := func(i int) {
		e := edges[i%2]
		if err := mx.ConnectRehome(device, e.cfg.EdgeID, e.Addr()); err != nil {
			t.Fatal(err)
		}
		if got := arrivalAt(e, device); got != "ok" {
			t.Fatalf("move %d: the device arrived %q, want ok", i, got)
		}
	}
	for i := range 4 {
		move(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 4; i < 4+moves; i++ {
		move(i)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / moves
	t.Logf("%d bytes per move, model %d", per, 8*dim)
	if per >= uint64(8*dim) {
		t.Errorf("a warm move allocates %d bytes, want < one model (%d)", per, 8*dim)
	}
}
