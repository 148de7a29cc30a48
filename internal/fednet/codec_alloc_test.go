//go:build !race

package fednet

import (
	"bytes"
	"encoding/json"
	"io"
	"runtime"
	"testing"
)

// TestCodecSteadyStateAllocs pins what pooling buys (the race detector
// changes allocation counts, hence the build tag): once the pool is warm
// the codec allocates nothing that grows with the model. A frame write
// allocates only inside json.Marshal; a read into a vector the caller owns
// allocates the five bytes it waits for between frames, plus whatever
// json.Unmarshal does (4 allocations for a TrainReply on go1.24).
func TestCodecSteadyStateAllocs(t *testing.T) {
	vec := make([]float64, 4096)
	reply := TrainReply{DeviceID: 3, Round: 17, DataSize: 100, Utility: 1.5}
	write := func() {
		if err := WriteMsg(io.Discard, MsgTrainReply, reply, vec); err != nil {
			t.Fatal(err)
		}
	}
	write() // warm the pool
	if n := testing.AllocsPerRun(200, write); n > 2 {
		t.Errorf("WriteMsg allocates %v times per frame, want ≤ 2", n)
	}

	var frame bytes.Buffer
	if err := WriteMsg(&frame, MsgTrainReply, reply, vec); err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(reply)
	if err != nil {
		t.Fatal(err)
	}
	var hdr TrainReply
	unmarshal := testing.AllocsPerRun(200, func() {
		if err := json.Unmarshal(js, &hdr); err != nil {
			t.Fatal(err)
		}
	})
	var rd bytes.Reader
	owned := make([]float64, len(vec))
	into := func(n int) []float64 { return owned[:n] }
	for _, c := range []struct {
		name   string
		header any
		most   float64
	}{{"with its header", &hdr, unmarshal + 1}, {"without its header", nil, 1}} {
		read := func() {
			rd.Reset(frame.Bytes())
			if _, got, _, err := readFrame(&rd, c.header, into); err != nil || len(got) != len(vec) {
				t.Fatal(err)
			}
		}
		read()
		if n := testing.AllocsPerRun(200, read); n > c.most {
			t.Errorf("decoding a frame %s into an owned vector allocates %v times, want ≤ %v", c.name, n, c.most)
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
	const device, most = 0, 64 << 10
	mx := trainableClient(t, 256, device)
	payload := make([]float64, mx.cfg.pool.numParams())
	rpc := func(round int) {
		vec, reply, err := mx.train(TrainRequest{Round: round, DeviceID: device, Moved: true, ResetLocal: round%5 == 0}, payload, 0)
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
