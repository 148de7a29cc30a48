package fednet

// Deterministic, seedable fault injection for the fednet stack. A
// FaultInjector wraps the client end of a connection and perturbs whole
// frames on the write path: because WriteMsgCount emits each message as
// exactly one Write call, every Write the wrapper sees is one protocol
// frame, so drop/delay/corrupt/reset/partition decisions apply
// per-message, matching the paper's lossy-wireless device model.
//
// Determinism: the decision for a message is a pure function of
// (seed, link class, link id, message index). Message indices are kept
// per link in the injector — not per connection — so a reconnect
// continues the sequence instead of replaying it, and the set of
// injected faults for a given seed is identical across runs regardless
// of goroutine interleaving. PlanFaults exposes the same function for
// tests to pin that property.

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"net"
	"sync"
	"time"

	"middle/internal/obs"
	"middle/internal/tensor"
)

// ErrInjected marks an error that was caused by the fault injector
// rather than a real failure; Cluster.Wait tolerates these.
var ErrInjected = errors.New("fednet: injected fault")

// FaultKind classifies one injected fault decision.
type FaultKind int

// Fault decisions, in cumulative-probability order. The last two model
// Byzantine senders rather than a lossy wire: the frame is rewritten
// with a corrupted payload and a recomputed CRC, so it decodes cleanly
// at the receiver and must be caught by model validation, not by the
// transport.
const (
	FaultNone FaultKind = iota
	FaultDrop
	FaultDelay
	FaultCorrupt
	FaultReset
	FaultPartition
	FaultPoisonUpdate
	FaultNaNUpdate
)

// String names the fault kind for metric labels and test output.
func (k FaultKind) String() string {
	switch k {
	case FaultDrop:
		return "drop"
	case FaultDelay:
		return "delay"
	case FaultCorrupt:
		return "corrupt"
	case FaultReset:
		return "reset"
	case FaultPartition:
		return "partition"
	case FaultPoisonUpdate:
		return "poison"
	case FaultNaNUpdate:
		return "nan"
	default:
		return "none"
	}
}

// FaultRates holds per-message fault probabilities for one link class.
// The probabilities are cumulative-exclusive: a message suffers at most
// one fault, and the sum of all rates must be ≤ 1.
type FaultRates struct {
	Drop      float64 // message silently lost
	Delay     float64 // message held back up to MaxDelay before sending
	Corrupt   float64 // one payload byte flipped (CRC catches it)
	Reset     float64 // connection closed mid-conversation
	Partition float64 // one-way partition: this and the next PartitionMsgs writes vanish
	Poison    float64 // model payload negated, CRC recomputed (decodes cleanly)
	NaNUpdate float64 // model payload set to NaN, CRC recomputed (decodes cleanly)
}

func (fr FaultRates) zero() bool {
	return fr.Drop == 0 && fr.Delay == 0 && fr.Corrupt == 0 && fr.Reset == 0 &&
		fr.Partition == 0 && fr.Poison == 0 && fr.NaNUpdate == 0
}

// FaultConfig configures a FaultInjector.
type FaultConfig struct {
	// Seed drives every fault decision; same seed → same faults.
	Seed int64
	// DeviceEdge applies to device→edge writes, EdgeCloud to edge→cloud.
	DeviceEdge FaultRates
	EdgeCloud  FaultRates
	// MaxDelay bounds injected delays (default 25ms).
	MaxDelay time.Duration
	// PartitionMsgs is how many subsequent writes a partition swallows
	// (default 4).
	PartitionMsgs int
	// Obs receives fednet_injected_faults_total{kind} counters (may be nil).
	Obs *obs.Registry
}

// FaultInjector wraps connections to apply a FaultConfig. A nil
// injector is valid and wraps nothing.
type FaultInjector struct {
	cfg FaultConfig

	mu    sync.Mutex
	state map[linkKey]*linkFaultState

	counters [FaultNaNUpdate + 1]*obs.Counter
}

type linkKey struct {
	link string
	id   int
}

type linkFaultState struct {
	nextMsg       int // next message index on this link
	partitionLeft int // writes still swallowed by an open partition window
}

// NewFaultInjector builds an injector; returns nil when cfg injects
// nothing, so callers can pass the result around unconditionally.
func NewFaultInjector(cfg FaultConfig) *FaultInjector {
	if cfg.DeviceEdge.zero() && cfg.EdgeCloud.zero() {
		return nil
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 25 * time.Millisecond
	}
	if cfg.PartitionMsgs <= 0 {
		cfg.PartitionMsgs = 4
	}
	f := &FaultInjector{cfg: cfg, state: make(map[linkKey]*linkFaultState)}
	for k := FaultDrop; k <= FaultNaNUpdate; k++ {
		f.counters[k] = cfg.Obs.Counter("fednet_injected_faults_total", "kind", k.String())
	}
	return f
}

// WrapDeviceLink wraps a device's connection to its edge (link id =
// device id). Nil-safe: a nil injector returns conn unchanged.
func (f *FaultInjector) WrapDeviceLink(conn net.Conn, deviceID int) net.Conn {
	if f == nil {
		return conn
	}
	return f.wrap(conn, linkDeviceEdge, deviceID, f.rates(linkDeviceEdge))
}

// WrapEdgeLink wraps an edge's connection to the cloud (link id =
// edge id). Nil-safe.
func (f *FaultInjector) WrapEdgeLink(conn net.Conn, edgeID int) net.Conn {
	if f == nil {
		return conn
	}
	return f.wrap(conn, linkEdgeCloud, edgeID, f.rates(linkEdgeCloud))
}

func (f *FaultInjector) rates(link string) FaultRates {
	if link == linkEdgeCloud {
		return f.cfg.EdgeCloud
	}
	return f.cfg.DeviceEdge
}

func (f *FaultInjector) wrap(conn net.Conn, link string, id int, rates FaultRates) net.Conn {
	if f == nil || rates.zero() {
		return conn
	}
	return &faultConn{Conn: conn, inj: f, link: link, id: id, rates: rates}
}

// linkState returns (creating if needed) the persistent per-link state.
func (f *FaultInjector) linkState(link string, id int) *linkFaultState {
	k := linkKey{link, id}
	st := f.state[k]
	if st == nil {
		st = &linkFaultState{}
		f.state[k] = st
	}
	return st
}

// decide consumes one message index on the link and returns the fault
// decision plus the state needed to act on it.
func (f *FaultInjector) decide(link string, id int, rates FaultRates) (kind FaultKind, delay time.Duration) {
	f.mu.Lock()
	st := f.linkState(link, id)
	idx := st.nextMsg
	st.nextMsg++
	if st.partitionLeft > 0 {
		st.partitionLeft--
		f.mu.Unlock()
		f.counters[FaultDrop].Inc()
		return FaultDrop, 0
	}
	kind, frac := decideFault(f.cfg.Seed, rates, link, id, idx)
	if kind == FaultPartition {
		st.partitionLeft = f.cfg.PartitionMsgs
	}
	f.mu.Unlock()
	if kind != FaultNone {
		f.counters[kind].Inc()
	}
	if kind == FaultDelay {
		delay = time.Duration(frac * float64(f.cfg.MaxDelay))
	}
	return kind, delay
}

// linkCode gives each link class a disjoint id-space region for Split.
func linkCode(link string) int64 {
	if link == linkEdgeCloud {
		return 2
	}
	return 1
}

// decideFault is the pure decision function: same (seed, rates, link,
// id, msg) → same outcome. frac is a uniform [0,1) value callers may
// use to size the fault (delay duration).
func decideFault(seed int64, rates FaultRates, link string, id, msg int) (FaultKind, float64) {
	rng := tensor.Split(seed, linkCode(link)<<40|int64(id)<<20|int64(msg))
	u := rng.Float64()
	frac := rng.Float64()
	switch {
	case u < rates.Drop:
		return FaultDrop, frac
	case u < rates.Drop+rates.Delay:
		return FaultDelay, frac
	case u < rates.Drop+rates.Delay+rates.Corrupt:
		return FaultCorrupt, frac
	case u < rates.Drop+rates.Delay+rates.Corrupt+rates.Reset:
		return FaultReset, frac
	case u < rates.Drop+rates.Delay+rates.Corrupt+rates.Reset+rates.Partition:
		return FaultPartition, frac
	case u < rates.Drop+rates.Delay+rates.Corrupt+rates.Reset+rates.Partition+rates.Poison:
		return FaultPoisonUpdate, frac
	case u < rates.Drop+rates.Delay+rates.Corrupt+rates.Reset+rates.Partition+rates.Poison+rates.NaNUpdate:
		return FaultNaNUpdate, frac
	default:
		return FaultNone, frac
	}
}

// PlanFaults returns the fault decisions for the first n messages of a
// link under the given seed and rates — the exact sequence a run with
// that seed will apply, independent of timing or interleaving.
func PlanFaults(seed int64, rates FaultRates, link string, id, n int) []FaultKind {
	plan := make([]FaultKind, n)
	for i := range plan {
		plan[i], _ = decideFault(seed, rates, link, id, i)
	}
	return plan
}

// faultConn applies per-message write faults to one connection.
type faultConn struct {
	net.Conn
	inj   *FaultInjector
	link  string
	id    int
	rates FaultRates
}

func (c *faultConn) Write(b []byte) (int, error) {
	kind, delay := c.inj.decide(c.link, c.id, c.rates)
	switch kind {
	case FaultDrop, FaultPartition:
		// Pretend success; the peer never sees the frame and its read
		// deadline (or the edge round deadline) handles the loss.
		return len(b), nil
	case FaultDelay:
		time.Sleep(delay)
	case FaultCorrupt:
		// Flip a bit inside the JSON header region so the frame still
		// parses structurally and the receiver's CRC check trips.
		if len(b) > 5 {
			mb := make([]byte, len(b))
			copy(mb, b)
			mb[5] ^= 0x01
			b = mb
		}
	case FaultPoisonUpdate:
		b = rewriteVector(b, func(v float64) float64 { return -v })
	case FaultNaNUpdate:
		b = rewriteVector(b, func(float64) float64 { return math.NaN() })
	case FaultReset:
		c.Conn.Close()
		return 0, &injectedErr{op: "write", kind: FaultReset}
	}
	return c.Conn.Write(b)
}

// rewriteVector returns a copy of frame b with every float of its
// vector payload transformed by fn and the CRC trailer recomputed, so
// the frame decodes cleanly at the receiver: a Byzantine sender signs
// its own lies. Frames without a vector (or that don't parse as exactly
// one frame) pass through unchanged.
func rewriteVector(b []byte, fn func(float64) float64) []byte {
	if len(b) < 1+4+4+4 {
		return b
	}
	jsonLen := int(binary.LittleEndian.Uint32(b[1:5]))
	off := 5 + jsonLen
	if jsonLen < 0 || off+4 > len(b)-4 {
		return b
	}
	vecLen := int(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	end := off + 8*vecLen
	if vecLen <= 0 || end+4 != len(b) {
		return b
	}
	mb := make([]byte, len(b))
	copy(mb, b)
	for i := 0; i < vecLen; i++ {
		p := off + 8*i
		v := math.Float64frombits(binary.LittleEndian.Uint64(mb[p:]))
		binary.LittleEndian.PutUint64(mb[p:], math.Float64bits(fn(v)))
	}
	binary.LittleEndian.PutUint32(mb[end:], crc32.ChecksumIEEE(mb[:end]))
	return mb
}

// injectedErr is returned by injected resets; errors.Is(err, ErrInjected)
// reports true so harnesses can tolerate it.
type injectedErr struct {
	op   string
	kind FaultKind
}

func (e *injectedErr) Error() string {
	return "fednet: injected " + e.kind.String() + " on " + e.op
}

func (e *injectedErr) Unwrap() error { return ErrInjected }
