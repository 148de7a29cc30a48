//go:build !race

package fednet

import (
	"bytes"
	"encoding/json"
	"io"
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
