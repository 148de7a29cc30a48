package fednet

// Eq. 12 at the edge without device models: an edge keeps two numbers per
// device, scored once when it accepts the device's model, zeroes them at
// each sync (Algorithm 1 pushes w_c down to every device), and a warm move
// carries them in its registration header instead of the model, which
// travels only when the device holds no scores of its last training.

import (
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"middle/internal/core"
	"middle/internal/hfl"
	"middle/internal/mobility"
	"middle/internal/simil"
	"middle/internal/tensor"
)

// rankRecorder is MIDDLE that records, at one round, what Eq. 12 reads of
// every candidate: its last training round and (U, ‖Δw‖).
type rankRecorder struct {
	hfl.Strategy
	at   int
	mu   sync.Mutex
	seen map[int]rankedAt
}

type rankedAt struct {
	lastTrained int
	u, dn       float64
}

func (r *rankRecorder) Select(v hfl.View, edge int, candidates []int, k int, rng *tensor.RNG) []int {
	if v.Step() == r.at {
		r.mu.Lock()
		info := hfl.SelectionInfo(v)
		for _, m := range candidates {
			u, dn := info(m)
			r.seen[m] = rankedAt{v.LastTrained(m), u, dn}
		}
		r.mu.Unlock()
	}
	return r.Strategy.Select(v, edge, candidates, k, rng)
}

// TestClusterRanksSyncedDevicesAtCloudModel: Algorithm 1 overwrites every
// device's model with w_c at a sync, one that trained in the sync round
// included. Two static edges sync at round 2 (T_c 2); at round 3 a device
// that trained in round 2 and one that last trained in round 1 both hold
// w_c, so Eq. 12 ranks each at (U, ‖Δw‖) = (0, 0).
func TestClusterRanksSyncedDevicesAtCloudModel(t *testing.T) {
	rec := &rankRecorder{Strategy: core.NewMiddle(), at: 3, seen: map[int]rankedAt{}}
	cfg := membershipClusterConfig(t, 3, mobility.NewStatic(2, 8))
	cfg.Strategy, cfg.CloudInterval, cfg.LeaseInterval = rec, 2, 0
	c, err := StartCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	inSync, before := 0, 0
	for m, r := range rec.seen {
		switch r.lastTrained {
		case 2:
			inSync++
		case 1:
			before++
		default:
			continue
		}
		if r.u != 0 || r.dn != 0 {
			t.Errorf("device %d, last trained in round %d, ranked at round 3 with (U, ‖Δw‖) = (%v, %v), want (0, 0)", m, r.lastTrained, r.u, r.dn)
		}
	}
	if inSync == 0 || before == 0 {
		t.Fatalf("ranked %d devices trained in the sync round and %d before it, want both", inSync, before)
	}
}

// TestClusterMovingRunsBitIdentical: with devices moving warm every round,
// a deployment still computes one global model per seed, and arrives at it
// by the same moves. A move carries the device's scores or, when it has
// none yet, its model, which the destination scores; either way Eq. 12
// reads the same bits, so which one won the race never changes a model.
func TestClusterMovingRunsBitIdentical(t *testing.T) {
	for _, group := range []int{1, 2} {
		var first []float64
		var firstOK, firstFallback, firstRejected int
		for run := range 3 {
			cfg := membershipClusterConfig(t, 12, mobility.NewMarkovRing(2, 24, 0.6, 5))
			cfg.K, cfg.CloudInterval, cfg.LeaseInterval = 5, 2, 0
			cfg.LiveMigration, cfg.Mux = true, group
			c, err := StartCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Wait(); err != nil {
				t.Fatal(err)
			}
			got := c.GlobalModel()
			ok, fallback, rejected := c.Migrations()
			if run == 0 {
				first, firstOK, firstFallback, firstRejected = got, ok, fallback, rejected
				if ok == 0 {
					t.Fatalf("group of %d: no warm arrival", group)
				}
				continue
			}
			if ok != firstOK || fallback != firstFallback || rejected != firstRejected {
				t.Fatalf("group of %d: run %d moved %d/%d/%d (ok/fallback/rejected), run 0 %d/%d/%d",
					group, run, ok, fallback, rejected, firstOK, firstFallback, firstRejected)
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(first[i]) {
					t.Fatalf("group of %d: run %d's global model differs from run 0's at %d: %v vs %v",
						group, run, i, got[i], first[i])
				}
			}
		}
	}
}

// scoredEdge is an edge under a cloud the test plays, synced at round 1 to
// w_c = model, with a client whose device 5 trained there in round 2 and
// holds the scores the edge sent it. It returns the edge, the cloud's end
// of its connection and the scores.
func scoredEdge(t *testing.T, mx *DeviceMux, model []float64) (*Edge, net.Conn, Drift) {
	t.Helper()
	edge, cc, edgeErr := edgeUnderFakeCloud(t, EdgeConfig{EdgeID: 1, K: 1, Strategy: core.NewMiddle(), Seed: 1, Timeout: 3 * time.Second})
	t.Cleanup(func() {
		WriteMsg(cc, MsgShutdown, struct{}{}, nil)
		if err := <-edgeErr; err != nil {
			t.Errorf("edge exited with %v", err)
		}
	})
	syncedEdge(t, edge, cc, model)
	if err := mx.Connect(5, 1, edge.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := WriteMsg(cc, MsgRoundStart, RoundStart{Round: 2}, nil); err != nil {
		t.Fatal(err)
	}
	if mt, _, err := ReadMsg(cc, &RoundDone{}); err != nil || mt != MsgRoundDone {
		t.Fatalf("round done: type %d, %v", mt, err)
	}
	var dr Drift
	waitFor(t, 5*time.Second, "the device to hold its scores", func() bool {
		mx.mu.Lock()
		defer mx.mu.Unlock()
		v := mx.virts[5]
		dr = v.drift
		return v.scored && v.lastTrained == 2
	})
	edge.mu.Lock()
	kept := edge.devices[5].drift
	edge.mu.Unlock()
	var want Drift
	want.U, want.DeltaNorm = simil.SelectionUtilityNorm(model, localModel(mx, 5))
	if dr != kept || kept != want || want.DeltaNorm == 0 {
		t.Fatalf("device holds scores %+v, edge %+v, of its model %+v; want all equal and nonzero", dr, kept, want)
	}
	return edge, cc, dr
}

// syncedEdge plays the cloud's sync at round 1, which makes model the
// edge's model and its w_c.
func syncedEdge(t *testing.T, edge *Edge, cc net.Conn, model []float64) {
	t.Helper()
	if err := WriteMsg(cc, MsgRoundStart, RoundStart{Round: 1, Sync: true}, nil); err != nil {
		t.Fatal(err)
	}
	if mt, _, err := ReadMsg(cc, &RoundDone{}); err != nil || mt != MsgRoundDone {
		t.Fatalf("round done: type %d, %v", mt, err)
	}
	if err := WriteMsg(cc, MsgGlobalModel, struct{}{}, model); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "the edge to take the global model", func() bool {
		edge.mu.Lock()
		defer edge.mu.Unlock()
		return edge.lastSync == 1
	})
}

// globalModel is a model of n values for the test's cloud to sync.
func globalModel(n int) []float64 {
	model := make([]float64, n)
	for i := range model {
		model[i] = 0.01 * float64(i%7-3)
	}
	return model
}

// TestWarmMoveCarriesScoresNotModel: a device that trained and holds its
// edge's scores moves warm with a registration header carrying them, its
// round and its utility, and no vector.
func TestWarmMoveCarriesScoresNotModel(t *testing.T) {
	mx := trainableClient(t, 8, 5)
	defer mx.Disconnect()
	_, _, dr := scoredEdge(t, mx, globalModel(mx.cfg.pool.numParams()))

	dst := newHandEdge(t, 2)
	if err := mx.ConnectRehome(5, 2, dst.ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	mx.Disconnect()
	for range dst.replies { // closed once the edge has read its connection to the end
	}
	if len(dst.registered) != 1 {
		t.Fatalf("%d registrations arrived, want 1", len(dst.registered))
	}
	reg := dst.registered[0]
	if len(reg.vec) != 0 || len(reg.Devices) != 1 {
		t.Fatalf("a warm move with scores sent %d values for %d devices, want 0 for 1", len(reg.vec), len(reg.Devices))
	}
	rd := reg.Devices[0]
	if !rd.Rehome || rd.LastTrained != 2 || rd.PrevEdge != 1 || rd.Drift == nil || *rd.Drift != dr {
		t.Fatalf("registration %+v (drift %v), want a re-home from edge 1, round 2, drift %+v", rd, rd.Drift, dr)
	}
}

// TestWarmMovePayloadFallback: when a device's scores frame has not
// arrived before it moves — here it is withheld — its registration carries
// the model instead, and the destination's scores of it equal the withheld
// ones bit for bit, in the same sync era.
func TestWarmMovePayloadFallback(t *testing.T) {
	mx := trainableClient(t, 8, 5)
	defer mx.Disconnect()
	model := globalModel(mx.cfg.pool.numParams())
	_, _, withheld := scoredEdge(t, mx, model)
	mx.mu.Lock()
	mx.virts[5].scored = false
	mx.mu.Unlock()

	dst, cc, edgeErr := edgeUnderFakeCloud(t, EdgeConfig{EdgeID: 2, K: 1, Strategy: core.NewMiddle(), Seed: 1, Timeout: 3 * time.Second})
	syncedEdge(t, dst, cc, model)
	// A round at the destination moves its edge model off w_c: a payload
	// scored against anything but w_c differs from the source's scores.
	other, err := net.Dial("tcp", dst.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	other.SetDeadline(time.Now().Add(5 * time.Second))
	if err := WriteMsg(other, MsgRegisterMux, RegisterMux{Devices: []RegisterDevice{{DeviceID: 9, DataSize: 1, PrevEdge: -1}}}, nil); err != nil {
		t.Fatal(err)
	}
	if mt, _, err := ReadMsg(other, &RegisterAck{}); err != nil || mt != MsgRegisterAck {
		t.Fatalf("register ack: type %d, %v", mt, err)
	}
	if err := WriteMsg(cc, MsgRoundStart, RoundStart{Round: 2}, nil); err != nil {
		t.Fatal(err)
	}
	if mt, _, err := ReadMsg(other, &TrainRequest{}); err != nil || mt != MsgTrainRequest {
		t.Fatalf("train request: type %d, %v", mt, err)
	}
	if err := WriteMsg(other, MsgTrainReply, TrainReply{DeviceID: 9, Round: 2, DataSize: 1}, make([]float64, len(model))); err != nil {
		t.Fatal(err)
	}
	if mt, _, err := ReadMsg(cc, &RoundDone{}); err != nil || mt != MsgRoundDone {
		t.Fatalf("round done: type %d, %v", mt, err)
	}
	if err := mx.ConnectRehome(5, 2, dst.Addr()); err != nil {
		t.Fatal(err)
	}
	if got := arrivalAt(dst, 5); got != "ok" {
		t.Fatalf("the device arrived %q, want ok", got)
	}
	dst.mu.Lock()
	d := dst.devices[5]
	got, lastTrained := d.drift, d.lastTrained
	dst.mu.Unlock()
	if math.Float64bits(got.U) != math.Float64bits(withheld.U) || math.Float64bits(got.DeltaNorm) != math.Float64bits(withheld.DeltaNorm) || lastTrained != 2 {
		t.Fatalf("destination scores %+v of round %d, withheld %+v of round 2", got, lastTrained, withheld)
	}
	dst.replies.mu.Lock()
	freed := len(dst.replies.free)
	dst.replies.mu.Unlock()
	if freed != 1 {
		t.Errorf("%d vectors on the destination's free list, want the payload back once scored", freed)
	}
	if err := WriteMsg(cc, MsgShutdown, struct{}{}, nil); err != nil {
		t.Fatal(err)
	}
	if err := <-edgeErr; err != nil {
		t.Fatalf("edge exited with %v", err)
	}
}
