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
	"middle/internal/tensor"
)

// cacheAudit is a mobility model that, each time the cloud asks it for the
// next step — between two rounds, when no edge is aggregating — compares
// every edge's cached device models with what the devices themselves hold.
// The edges decode replies into recycled vectors, so the cache is where a
// buffer recycled while still referenced would show.
type cacheAudit struct {
	mobility.Model
	t       *testing.T
	cluster atomic.Pointer[Cluster]
	// seen remembers, per edge and device, the cached model last verified
	// and the device state it belonged to.
	seen         map[[2]int]cachedModel
	fresh, stale int
}

type cachedModel struct {
	state *deviceState
	model []float64
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
	for id, d := range e.devices {
		key := [2]int{e.cfg.EdgeID, id}
		was, known := a.seen[key]
		switch {
		case d.lastModel == nil:
			delete(a.seen, key)
			continue
		case d.trainedHere && d.lastTrained == e.curRound:
			// It answered this round: the cache is its reply, and its reply
			// is the model it carries now.
			a.fresh++
			if !sameBits(d.lastModel, c.clients[id/c.group].LocalModel(id)) {
				a.t.Errorf("round %d: edge %d caches a model for device %d that differs from the one it sent", e.curRound, e.cfg.EdgeID, id)
			}
		case known && was.state == d:
			// It did not: nothing may have touched the cached vector.
			a.stale++
			if !sameBits(d.lastModel, was.model) {
				a.t.Errorf("round %d: edge %d's cached model of idle device %d changed", e.curRound, e.cfg.EdgeID, id)
			}
			continue
		}
		a.seen[key] = cachedModel{state: d, model: append([]float64(nil), d.lastModel...)}
	}
}

// TestEdgeCachedModelsStayOwned runs a two-edge live-migration cluster
// under heavy mobility and audits the edges' device caches after every
// round: a reply vector belongs to its device's cache entry until that
// device's next reply replaces it, whatever was decoded in between.
func TestEdgeCachedModelsStayOwned(t *testing.T) {
	audit := &cacheAudit{Model: mobility.NewMarkovRing(2, 6, 0.5, 11), t: t, seen: map[[2]int]cachedModel{}}
	c, err := StartCluster(migrationClusterConfig(t, 10, audit))
	if err != nil {
		t.Fatal(err)
	}
	audit.cluster.Store(c)
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if audit.fresh == 0 || audit.stale == 0 {
		t.Fatalf("audited %d fresh and %d idle cache entries, want both", audit.fresh, audit.stale)
	}
	t.Logf("audited %d fresh and %d idle cache entries", audit.fresh, audit.stale)
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
	// rehomed holds the models warm re-home registrations carried; it is
	// the test's to read once replies is closed.
	rehomed [][]float64
}

type handReply struct {
	TrainReply
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
			var reply TrainReply
			typ, vec, err := ReadMsg(conn, &reply)
			switch {
			case err != nil:
				return
			case typ == MsgRegisterMux:
				if vec != nil {
					e.rehomed = append(e.rehomed, vec)
				}
				e.write(MsgRegisterAck, RegisterAck{EdgeID: id}, nil)
			case typ == MsgTrainReply:
				e.replies <- handReply{reply, vec}
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
		Factory: func(rng *tensor.RNG) *nn.Network {
			mlp := nn.NewMLP(nn.MLPConfig{In: train.SampleSize(), Classes: 2, Hidden: []int{hidden}}, rng)
			return nn.NewNetwork(append([]nn.Layer{nn.NewFlatten()}, mlp.Layers...)...)
		},
		Optimizer: hfl.OptimizerSpec{Kind: hfl.OptSGD, LR: 0.1}.New(),
		Timeout:   2 * time.Second,
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
			if model := mx.LocalModel(trained); model != nil {
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
		for _, model := range e.rehomed {
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
// and then it does. Devices and cloud are played by the test: A replies
// and leaves, C registers with a poison payload, B replies last.
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
			rd = RegisterDevice{DeviceID: id, DataSize: 1, PrevEdge: 7, Rehome: true}
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
	var left []float64 // the vector A's reply was decoded into
	waitFor(t, 5*time.Second, "the edge to cache A's reply", func() bool {
		edge.mu.Lock()
		defer edge.mu.Unlock()
		if d := edge.devices[a]; d != nil && d.lastTrained == 1 {
			left = d.lastModel
		}
		return left != nil
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
	edge.mu.Lock()
	arrived := edge.devices[c]
	intact := arrived != nil && sameBits(arrived.lastModel, poison)
	edge.mu.Unlock()
	edge.replies.mu.Lock()
	freed := slices.ContainsFunc(edge.replies.free, func(v []float64) bool { return &v[:1][0] == &left[0] })
	edge.replies.mu.Unlock()
	if !intact || !freed {
		t.Errorf("after Eq. 6: C's carried model intact %v, A's vector back on the free list %v; want both", intact, freed)
	}
	if err := WriteMsg(cc, MsgGlobalModel, struct{}{}, model); err != nil {
		t.Fatal(err)
	}
}
