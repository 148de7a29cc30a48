package fednet

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"middle/internal/data"
	"middle/internal/hfl"
	"middle/internal/mobility"
	"middle/internal/nn"
	"middle/internal/obs"
	"middle/internal/tensor"
)

// FleetConfig configures a fleet: the devices of one devices process
// (middled -role devices, or StartCluster's).
type FleetConfig struct {
	// CloudAddr is the cloud whose round boundaries the fleet moves at.
	CloudAddr string
	// Edges are the edges by mobility's edge ids (entry e is edge e), and
	// every device's failover candidates.
	Edges []EdgeAddr
	// Mobility moves the fleet's devices: its device i is device First+i,
	// which trains on Partition.Shard(First+i).
	Mobility  mobility.Model
	First     int
	Partition *data.Partition
	// Factory and Optimizer build the one trainer pool every client
	// shares: a network and an optimizer per core (GOMAXPROCS, at most one
	// per device), so a cohort trains in parallel up to the cores.
	Factory   func(rng *tensor.RNG) *nn.Network
	Optimizer hfl.OptimizerSpec
	// Mux is the group size of the clients: each hosts that many devices,
	// with one connection per edge (≤ 1: a client per device).
	Mux int
	// LiveMigration makes a mover arrive warm (ConnectRehome): it keeps its
	// model, which Eq. 9 blends at the next edge, and that edge adopts its
	// Eq. 12 scores. Without it the mover registers cold, and the edge
	// resets its carried model.
	LiveMigration bool
	// DeviceMuxConfig configures every client; the fleet sets Devices,
	// Dataset, Failover and the population (the partition's device count),
	// and a nil pool is one it builds (trainers).
	DeviceMuxConfig
}

// trainers builds the fleet's trainer pool. Every network is drawn from
// Split(Seed, 0), so each holds the initial global model.
func (cfg FleetConfig) trainers() trainerPool {
	return newTrainerPool(max(1, min(runtime.GOMAXPROCS(0), cfg.Mobility.NumDevices())),
		func() *nn.Network { return cfg.Factory(tensor.Split(cfg.Seed, 0)) }, cfg.Optimizer.New)
}

// Fleet moves its devices as Algorithm 1 does, between time steps: after
// every round the cloud sends it a boundary, the fleet steps its mobility
// model once, makes that step's moves concurrently and echoes the
// boundary, and only then does the next round start. A move is an
// acknowledged leave — the device is off its edge's candidate set — then a
// registration at the next edge; a device that neither that edge nor any
// failover candidate takes is a failed move, stranded until its next.
type Fleet struct {
	cfg        FleetConfig
	clients    []*DeviceMux // device First+i rides clients[i/group]
	group      int
	conn       net.Conn // to the cloud
	link       linkMetrics
	at         []int // mobility's last membership, its own slice
	moveErrs   atomic.Int64
	moveErrCtr *obs.Counter
	stopped    atomic.Bool
}

// NewFleet builds the fleet's clients, attaches every device at the
// mobility model's first membership and then announces the fleet to the
// cloud, which holds round 1 until a fleet has. Run serves the boundaries.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.pool == nil {
		cfg.pool = cfg.trainers()
	}
	cfg.population = cfg.Partition.NumDevices()
	f := &Fleet{cfg: cfg, group: max(1, cfg.Mux), link: newLinkMetrics(cfg.Obs, linkEdgeCloud),
		moveErrCtr: cfg.Obs.Counter("fednet_move_errors_total")}
	n := cfg.Mobility.NumDevices()
	for lo := 0; lo < n; lo += f.group {
		var hosted []MuxDevice
		for m := cfg.First + lo; m < cfg.First+min(lo+f.group, n); m++ {
			hosted = append(hosted, MuxDevice{DeviceID: m, Indices: cfg.Partition.Shard(m)})
		}
		mcfg := cfg.DeviceMuxConfig
		mcfg.Devices, mcfg.Dataset, mcfg.Failover = hosted, cfg.Partition.Dataset, cfg.Edges
		mx, err := NewDeviceMux(mcfg)
		if err != nil {
			return nil, err
		}
		f.clients = append(f.clients, mx)
	}
	cfg.Mobility.Reset()
	f.at = cfg.Mobility.Step()
	var err error
	for i, e := range f.at {
		if err = f.clients[i/f.group].Connect(cfg.First+i, e, cfg.Edges[e].Addr); err != nil {
			break
		}
		cfg.Logf("fleet: device %d attached to edge %d", cfg.First+i, e)
	}
	if err == nil {
		f.conn, err = net.Dial("tcp", cfg.CloudAddr)
	}
	if err == nil {
		f.conn.SetWriteDeadline(time.Now().Add(cfg.Timeout))
		if err = f.link.writeMsg(f.conn, MsgBoundary, Boundary{}, nil); err != nil {
			f.conn.Close()
		}
	}
	if err != nil {
		f.disconnect()
		return nil, fmt.Errorf("fednet: fleet of devices %d..%d: %w", cfg.First, cfg.First+n-1, err)
	}
	return f, nil
}

// Run serves the cloud's boundaries until the cloud ends the run — a
// shutdown, or a connection it closed (a cloud that failed reports that
// itself) — or Stop is called, and then detaches every device. A
// boundary's moves run beside the reader, so a shutdown arriving
// meanwhile cuts them short instead of failing them.
func (f *Fleet) Run() error {
	var moving sync.WaitGroup
	defer func() {
		f.disconnect()
		moving.Wait()
	}()
	var b Boundary
	for {
		f.conn.SetReadDeadline(time.Time{})
		t, _, err := f.link.readMsg(f.conn, &b)
		switch {
		case f.stopped.Load() || t == MsgShutdown:
			return nil
		case err != nil:
			f.cfg.Logf("fleet: the cloud connection ended: %v", err)
			return nil
		case t != MsgBoundary:
			return fmt.Errorf("fednet: fleet got message type %d from the cloud", t)
		}
		moving.Wait() // the cloud sends a boundary only after the last echo
		moving.Add(1)
		go func(r int) {
			defer moving.Done()
			f.step()
			f.conn.SetWriteDeadline(time.Now().Add(f.cfg.Timeout))
			_ = f.link.writeMsg(f.conn, MsgBoundary, Boundary{Round: r}, nil) // a failure ends the reader too
		}(b.Round)
	}
}

// step steps mobility once and makes its moves concurrently.
func (f *Fleet) step() {
	next := f.cfg.Mobility.Step()
	var moves sync.WaitGroup
	for i, e := range next {
		if e != f.at[i] {
			moves.Add(1)
			go func() {
				defer moves.Done()
				f.move(f.cfg.First+i, e)
			}()
		}
	}
	moves.Wait()
	f.at = next // valid until the second following Step
}

// move takes device m to edge e, warm with live migration. A move cut
// short by the fleet's shutdown is no failed move.
func (f *Fleet) move(m, e int) {
	mx := f.clients[(m-f.cfg.First)/f.group]
	connect := mx.Connect
	if f.cfg.LiveMigration {
		connect = mx.ConnectRehome
	}
	if err := connect(m, e, f.cfg.Edges[e].Addr); err != nil && !errors.Is(err, errMuxClosed) && !f.stopped.Load() {
		f.moveErrs.Add(1)
		f.moveErrCtr.Inc()
		f.cfg.Logf("fleet: device %d failed to move to edge %d (stranded until its next move): %v", m, e, err)
	}
}

// Stop ends Run: the devices detach, and the cloud drops the fleet.
func (f *Fleet) Stop() {
	f.stopped.Store(true)
	f.conn.Close()
}

func (f *Fleet) disconnect() {
	f.stopped.Store(true)
	for _, mx := range f.clients {
		mx.Disconnect()
	}
}
