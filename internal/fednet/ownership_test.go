package fednet

import (
	"math"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"middle/internal/core"
	"middle/internal/data"
	"middle/internal/hfl"
	"middle/internal/mobility"
	"middle/internal/nn"
	"middle/internal/robust"
	"middle/internal/simil"
	"middle/internal/tensor"
)

// cacheAudit is a mobility model that, each time the cloud asks it for the
// next step — between two rounds — compares every edge's Eq. 12 scores of
// its devices with what the devices themselves hold. The edges decode
// replies and payloads into recycled vectors and score them there, so the
// scores are where a buffer recycled while still referenced would show.
type cacheAudit struct {
	mobility.Model
	t       *testing.T
	cluster atomic.Pointer[Cluster]
	// scored counts devices audited against their carried model, relayed
	// those whose own copy of the scores was audited too, synced those
	// that have not trained since the last sync.
	scored, relayed, synced int
}

func (a *cacheAudit) Step() []int {
	if c := a.cluster.Load(); c != nil {
		for i := range c.edges {
			a.audit(c, c.edgeAt(i))
		}
	}
	return a.Model.Step()
}

func (a *cacheAudit) audit(c *Cluster, e *Edge) {
	e.mu.Lock()
	defer e.mu.Unlock()
	view := &edgeView{edge: e}
	for id, d := range e.devices {
		u, dn, known := view.DriftInfo(id)
		if !trainedSince(d.lastTrained, e.lastSync) {
			// Synced since its last training: by Algorithm 1 it holds w_c.
			a.synced++
			if u != 0 || dn != 0 || !known {
				a.t.Errorf("round %d: edge %d ranks device %d, synced since round %d, at (%v, %v)", e.curRound, e.cfg.EdgeID, id, d.lastTrained, u, dn)
			}
			continue
		}
		// The scores of the model it trained in lastTrained — its reply here
		// or the state it carried in — which is the model it carries now.
		mx := c.fleet.clients[id/c.fleet.group]
		var want Drift
		want.U, want.DeltaNorm = simil.SelectionUtilityNorm(e.cloudSeen, localModel(mx, id))
		a.scored++
		if math.Float64bits(u) != math.Float64bits(want.U) || math.Float64bits(dn) != math.Float64bits(want.DeltaNorm) {
			a.t.Errorf("round %d: edge %d scores device %d (%v, %v), its carried model (%v, %v)", e.curRound, e.cfg.EdgeID, id, u, dn, want.U, want.DeltaNorm)
		}
		mx.mu.Lock()
		v := mx.virts[id]
		if v.scored && v.lastTrained == d.lastTrained {
			a.relayed++
			if v.drift != d.drift {
				a.t.Errorf("round %d: device %d holds scores %+v, edge %d %+v", e.curRound, id, v.drift, e.cfg.EdgeID, d.drift)
			}
		}
		mx.mu.Unlock()
	}
}

// TestEdgeCachedModelsStayOwned runs a two-edge live-migration cluster
// under heavy mobility and audits the edges' device state after every
// round: the scores an edge keeps of a device are those of the model the
// device carries, bit for bit, whatever was decoded into the vector they
// were scored from since; the device's own copy, if it has one, is the
// same; and a device synced since its training ranks at zero.
func TestEdgeCachedModelsStayOwned(t *testing.T) {
	audit := &cacheAudit{Model: mobility.NewMarkovRing(2, 6, 0.5, 11), t: t}
	c, err := StartCluster(migrationClusterConfig(t, 10, audit))
	if err != nil {
		t.Fatal(err)
	}
	audit.cluster.Store(c)
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if audit.scored == 0 || audit.relayed == 0 || audit.synced == 0 {
		t.Fatalf("audited %d scored devices (%d relayed) and %d synced, want all", audit.scored, audit.relayed, audit.synced)
	}
	t.Logf("audited %d scored devices (%d relayed) and %d synced", audit.scored, audit.relayed, audit.synced)
}

// handEdge is an edge played by the test: it acknowledges whatever the
// device client registers and passes train replies to the test, which
// sends the requests itself.
type handEdge struct {
	id      int
	ln      net.Listener
	wmu     sync.Mutex
	conn    net.Conn
	ready   chan struct{} // closed once the client's connection is accepted
	replies chan handReply
	// registered holds the registrations that arrived, with their
	// payloads; it is the test's to read once replies is closed.
	registered []handRegistration
}

type handReply struct {
	TrainReply
	vec []float64
}

type handRegistration struct {
	RegisterMux
	vec []float64
}

func newHandEdge(t *testing.T, id int) *handEdge {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	e := &handEdge{id: id, ln: ln, ready: make(chan struct{}), replies: make(chan handReply, 1)}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		e.conn = conn
		close(e.ready)
		defer close(e.replies)
		for {
			var h frameHeaders // fresh per frame: registered keeps what it decodes
			typ, vec, err := ReadMsg(conn, &h)
			switch {
			case err != nil:
				return
			case typ == MsgRegisterMux:
				e.registered = append(e.registered, handRegistration{h.registerMux, vec})
				e.write(MsgRegisterAck, RegisterAck{EdgeID: id}, nil)
			case typ == MsgTrainReply:
				e.replies <- handReply{h.trainReply, vec}
			}
		}
	}()
	return e
}

func (e *handEdge) write(t MsgType, header any, vec []float64) error {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	return WriteMsg(e.conn, t, header, vec)
}

// trainableClient is testClient with a model its devices can train, which
// testClient's is not (no Flatten in front of the images): an MLP with one
// hidden layer, 67·hidden + 2 parameters.
func trainableClient(t *testing.T, hidden int, ids ...int) *DeviceMux {
	t.Helper()
	train := data.GenerateImagesSplit(data.FastImageProfile(2), 20, 5, 5)
	var hosted []MuxDevice
	for _, id := range ids {
		hosted = append(hosted, MuxDevice{DeviceID: id, Indices: []int{0, 1, 2}})
	}
	mx, err := NewDeviceMux(DeviceMuxConfig{
		Devices: hosted, Dataset: train,
		pool: solo(func(rng *tensor.RNG) *nn.Network {
			mlp := nn.NewMLP(nn.MLPConfig{In: train.SampleSize(), Classes: 2, Hidden: []int{hidden}}, rng)
			return nn.NewNetwork(append([]nn.Layer{nn.NewFlatten()}, mlp.Layers...)...)
		}, hfl.OptimizerSpec{Kind: hfl.OptSGD, LR: 0.1}.New()),
		Timeout: 2 * time.Second, population: slices.Max(ids) + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return mx
}

// TestDeviceVectorsStayOwned is the device side of the audit above. A
// hosted device rotates two model vectors, so a training writes a vector
// that was carried, and sent, two trainings ago — safe only if nothing
// still reads it. Here one device is trained through two edges at once
// while it moves between them: every device→edge write may be held back
// by the fault injector, so reply writes queue behind delayed
// registrations on one connection while the other connection trains the
// device again and again, every other move registers warm with the
// carried model as its payload, and a reader copies LocalModel throughout.
// Every reply must be the training of its own request — a pure function
// of (round, payload), taken from a second client served one request at
// a time — and every re-home payload and LocalModel copy one of those
// replies, whole. Under
// -race any vector written while a frame write or a copy reads it is
// reported as well.
func TestDeviceVectorsStayOwned(t *testing.T) {
	const trained, perEdge = 0, 40
	faults := NewFaultInjector(FaultConfig{Seed: 5, DeviceEdge: FaultRates{Delay: 0.6}, MaxDelay: 8 * time.Millisecond})
	mx, ref := trainableClient(t, 32, 0, 1, 2), trainableClient(t, 32, 0, 1, 2)
	mx.cfg.Faults = faults
	edges := []*handEdge{newHandEdge(t, 0), newHandEdge(t, 1)}
	for i, e := range edges {
		// A sibling that never moves keeps the connection to each edge up.
		if err := mx.Connect(1+i, e.id, e.ln.Addr().String()); err != nil {
			t.Fatal(err)
		}
		<-e.ready
	}

	// The expected reply of every request, and the set of them.
	request := func(edge, i int) (TrainRequest, []float64) {
		round := 2*i + edge + 1
		payload := make([]float64, ref.cfg.pool.numParams())
		for j := range payload {
			payload[j] = 0.01 * float64((j+round)%17-8)
		}
		return TrainRequest{Round: round, DeviceID: trained, Moved: i%3 == 0, ResetLocal: i%5 == 4}, payload
	}
	want := map[int][]float64{}
	for edge := range edges {
		for i := 0; i < perEdge; i++ {
			req, payload := request(edge, i)
			vec, _, err := ref.train(req, payload, edge)
			ref.unpin(trained)
			if err != nil {
				t.Fatal(err)
			}
			want[req.Round] = append([]float64(nil), vec...)
		}
	}
	isReply := func(model []float64) bool {
		for _, w := range want {
			if sameBits(model, w) {
				return true
			}
		}
		return false
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(2)
	go func() { // the device moves between the edges for as long as it is trained
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			e := edges[i%2]
			if err := mx.connect(trained, e.id, e.ln.Addr().String(), i%4 < 2); err != nil {
				t.Errorf("move %d: %v", i, err)
				return
			}
		}
	}()
	copies := 0
	go func() { // and its carried model is read
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if model := localModel(mx, trained); model != nil {
				copies++
				if !isReply(model) {
					t.Error("LocalModel returned a vector that is no training's result")
					return
				}
			}
		}
	}()
	var drivers sync.WaitGroup
	for edge, e := range edges {
		drivers.Add(1)
		go func() {
			defer drivers.Done()
			for i := 0; i < perEdge; i++ {
				req, payload := request(edge, i)
				if err := e.write(MsgTrainRequest, req, payload); err != nil {
					t.Errorf("edge %d request %d: %v", edge, i, err)
					return
				}
				select {
				case reply, ok := <-e.replies:
					if !ok || reply.Round != req.Round || !sameBits(reply.vec, want[req.Round]) {
						t.Errorf("edge %d: reply to round %d (arrived %v, round %d) is not that round's training", edge, req.Round, ok, reply.Round)
						return
					}
				case <-time.After(10 * time.Second):
					t.Errorf("edge %d: no reply to round %d", edge, req.Round)
					return
				}
			}
		}()
	}
	drivers.Wait()
	close(stop)
	wg.Wait()
	mx.Disconnect()
	rehomes := 0
	for _, e := range edges {
		for range e.replies { // closed when the edge has read its connection to the end
		}
		for _, reg := range e.registered {
			model := reg.vec
			if model == nil {
				continue
			}
			rehomes++
			if !isReply(model) {
				t.Errorf("edge %d: a re-home registration carried a vector that is no training's result", e.id)
			}
		}
	}
	if copies == 0 || rehomes == 0 {
		t.Errorf("%d LocalModel copies and %d re-home payloads checked, want both", copies, rehomes)
	}
}

// TestDepartedReplyHeldUntilEq6: a device that answered round r and leaves
// before that round's Eq. 6 leaves behind a vector that is still one of
// Eq. 6's inputs. It goes back to the edge's free list only once Eq. 6 has
// returned — a warm registration decoded meanwhile must not land in it —
// and then it does, with the other reply. Devices and cloud are played by
// the test: A replies and leaves, C registers with a poison payload, which
// the edge scores on receipt, B replies last.
func TestDepartedReplyHeldUntilEq6(t *testing.T) {
	const a, b, c = 1, 2, 3
	edge, cc, _ := edgeUnderFakeCloud(t, EdgeConfig{EdgeID: 0, K: 2, Strategy: core.NewGeneral(), Seed: 1, Timeout: 5 * time.Second})
	reply, poison := []float64{0.25, 0.25, 0.25}, []float64{1e9, 1e9, 1e9}
	arrive := func(id int, payload []float64) net.Conn {
		t.Helper()
		conn, err := net.Dial("tcp", edge.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		rd := RegisterDevice{DeviceID: id, DataSize: 1, PrevEdge: -1}
		if payload != nil {
			rd = RegisterDevice{DeviceID: id, DataSize: 1, PrevEdge: 7, Rehome: true, LastTrained: 1}
		}
		if err := WriteMsg(conn, MsgRegisterMux, RegisterMux{Devices: []RegisterDevice{rd}}, payload); err != nil {
			t.Fatal(err)
		}
		if mt, _, err := ReadMsg(conn, &RegisterAck{}); err != nil || mt != MsgRegisterAck {
			t.Fatalf("device %d registration: type %d, %v", id, mt, err)
		}
		return conn
	}
	request := func(conn net.Conn, id int) {
		t.Helper()
		var req TrainRequest
		if mt, _, err := ReadMsg(conn, &req); err != nil || mt != MsgTrainRequest || req.DeviceID != id {
			t.Fatalf("device %d: type %d, request %+v, %v", id, mt, req, err)
		}
	}
	connA, connB := arrive(a, nil), arrive(b, nil)
	waitFor(t, 5*time.Second, "the edge to take the cloud model", func() bool {
		edge.mu.Lock()
		defer edge.mu.Unlock()
		return len(edge.edgeModel) == len(reply)
	})
	if err := WriteMsg(cc, MsgRoundStart, RoundStart{Round: 1, Sync: true}, nil); err != nil {
		t.Fatal(err)
	}
	request(connA, a)
	request(connB, b)
	if err := WriteMsg(connA, MsgTrainReply, TrainReply{DeviceID: a, Round: 1, DataSize: 1}, reply); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "the edge to accept A's reply", func() bool {
		edge.mu.Lock()
		defer edge.mu.Unlock()
		d := edge.devices[a]
		return d != nil && d.lastTrained == 1
	})
	connA.Close()
	waitFor(t, 5*time.Second, "A to leave", func() bool { return !registered(edge)[a] })
	arrive(c, poison)
	if err := WriteMsg(connB, MsgTrainReply, TrainReply{DeviceID: b, Round: 1, DataSize: 1}, reply); err != nil {
		t.Fatal(err)
	}

	var done RoundDone
	mt, model, err := ReadMsg(cc, &done)
	if err != nil || mt != MsgRoundDone || done.Trained != 2 {
		t.Fatalf("round done: type %d, %+v, %v", mt, done, err)
	}
	for i, v := range model {
		if math.Abs(v-0.25) > 1e-12 {
			t.Fatalf("Eq. 6 gave %v at %d, want 0.25: a vector it read was handed on before it returned", v, i)
		}
	}
	var want Drift
	want.U, want.DeltaNorm = simil.SelectionUtilityNorm([]float64{1, 2, 3}, poison)
	edge.mu.Lock()
	arrived := edge.devices[c]
	intact := arrived != nil && arrived.drift == want
	edge.mu.Unlock()
	edge.replies.mu.Lock()
	freed := 0
	for _, v := range edge.replies.free {
		if sameBits(v, reply) {
			freed++
		}
	}
	edge.replies.mu.Unlock()
	if !intact || freed < 2 {
		t.Errorf("after Eq. 6: C's scores intact %v, %d replies back on the free list; want true, 2", intact, freed)
	}
	if err := WriteMsg(cc, MsgGlobalModel, struct{}{}, model); err != nil {
		t.Fatal(err)
	}
}

// TestEq6InputsFreedOnce: the validator drops a norm outlier from Eq. 6's
// inputs, and the round still gives every reply vector back to the free
// list exactly once — the outlier's too —
// so no vector is handed to two decoders. Four devices played by the test
// reply distinct models, one of them far from the edge model.
func TestEq6InputsFreedOnce(t *testing.T) {
	edge, cc, edgeErr := edgeUnderFakeCloud(t, EdgeConfig{EdgeID: 0, K: 4, Strategy: core.NewGeneral(), Seed: 1,
		Timeout: 5 * time.Second, Validate: robust.ValidatorConfig{Enabled: true, NormBound: 3}})
	replies := map[int][]float64{1: {1e6, 1e6, 1e6}, 2: {1.1, 2, 3}, 3: {1, 2.2, 3}, 4: {1, 2, 3.3}}
	conns := map[int]net.Conn{}
	for id := range replies {
		conn, err := net.Dial("tcp", edge.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		if err := WriteMsg(conn, MsgRegisterMux, RegisterMux{Devices: []RegisterDevice{{DeviceID: id, DataSize: 1, PrevEdge: -1}}}, nil); err != nil {
			t.Fatal(err)
		}
		if mt, _, err := ReadMsg(conn, &RegisterAck{}); err != nil || mt != MsgRegisterAck {
			t.Fatalf("device %d registration: type %d, %v", id, mt, err)
		}
		conns[id] = conn
	}
	if err := WriteMsg(cc, MsgRoundStart, RoundStart{Round: 1}, nil); err != nil {
		t.Fatal(err)
	}
	for id, conn := range conns {
		var req TrainRequest
		if mt, _, err := ReadMsg(conn, &req); err != nil || mt != MsgTrainRequest || req.DeviceID != id {
			t.Fatalf("device %d: type %d, request %+v, %v", id, mt, req, err)
		}
		if err := WriteMsg(conn, MsgTrainReply, TrainReply{DeviceID: id, Round: 1, DataSize: 1}, replies[id]); err != nil {
			t.Fatal(err)
		}
	}
	var done RoundDone
	if mt, _, err := ReadMsg(cc, &done); err != nil || mt != MsgRoundDone || done.Trained != 3 {
		t.Fatalf("round done: type %d, %+v, %v; want 3 kept of 4", mt, done, err)
	}
	edge.replies.mu.Lock()
	free := append([][]float64(nil), edge.replies.free...)
	edge.replies.mu.Unlock()
	seen := map[*float64]bool{}
	for _, v := range free {
		seen[&v[:1][0]] = true
	}
	for id, want := range replies {
		if !slices.ContainsFunc(free, func(v []float64) bool { return sameBits(v, want) }) {
			t.Errorf("device %d's reply is not back on the free list", id)
		}
	}
	if len(free) != len(replies) || len(seen) != len(free) {
		t.Errorf("free list holds %d vectors, %d distinct; want each of the %d replies once", len(free), len(seen), len(replies))
	}
	if err := WriteMsg(cc, MsgShutdown, struct{}{}, nil); err != nil {
		t.Fatal(err)
	}
	if err := <-edgeErr; err != nil {
		t.Fatalf("edge exited with %v", err)
	}
}
