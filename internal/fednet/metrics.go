package fednet

import (
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"middle/internal/obs"
)

// Link classes label the traffic series, matching the simulation's
// communication accounting (device–edge vs edge–cloud).
const (
	linkDeviceEdge = "device_edge"
	linkEdgeCloud  = "edge_cloud"
)

// linkMetrics counts the protocol traffic of one link class. Instruments
// registered per (family, link) are shared across every component in the
// process, so a daemon hosting several edges reports aggregate series.
// Built from a nil registry every counter is nil and recording no-ops.
type linkMetrics struct {
	sentBytes *obs.Counter
	recvBytes *obs.Counter
	sentMsgs  *obs.Counter
	recvMsgs  *obs.Counter
	corrupt   *obs.Counter
}

func newLinkMetrics(r *obs.Registry, link string) linkMetrics {
	return linkMetrics{
		sentBytes: r.Counter("fednet_sent_bytes_total", "link", link),
		recvBytes: r.Counter("fednet_recv_bytes_total", "link", link),
		sentMsgs:  r.Counter("fednet_sent_msgs_total", "link", link),
		recvMsgs:  r.Counter("fednet_recv_msgs_total", "link", link),
		corrupt:   r.Counter("fednet_corrupt_frames_total", "link", link),
	}
}

// writeMsg writes one framed message and records the bytes that made it
// onto the wire (partial writes on error are still counted).
func (lm linkMetrics) writeMsg(w io.Writer, t MsgType, header any, vec []float64) error {
	n, err := WriteMsgCount(w, t, header, vec)
	lm.sentBytes.Add(int64(n))
	if err == nil {
		lm.sentMsgs.Inc()
	}
	return err
}

// writeShared is writeMsg onto a connection several goroutines write to:
// mu serialises the frames and timeout bounds this one.
func (lm linkMetrics) writeShared(mu *sync.Mutex, conn net.Conn, timeout time.Duration, t MsgType, header any, vec []float64) error {
	mu.Lock()
	defer mu.Unlock()
	conn.SetWriteDeadline(time.Now().Add(timeout))
	defer conn.SetWriteDeadline(time.Time{})
	return lm.writeMsg(conn, t, header, vec)
}

// readMsg reads one framed message into a vector the caller owns and
// records the bytes consumed.
func (lm linkMetrics) readMsg(r io.Reader, headerOut any) (MsgType, []float64, error) {
	return lm.readMsgInto(r, headerOut, nil)
}

// readMsgInto is readMsg decoding the vector into vecFor's storage (see
// readFrame).
func (lm linkMetrics) readMsgInto(r io.Reader, headerOut any, vecFor func(n int) []float64) (MsgType, []float64, error) {
	t, vec, n, err := readFrame(r, headerOut, vecFor)
	lm.recvBytes.Add(int64(n))
	if err == nil {
		lm.recvMsgs.Inc()
	} else if errors.Is(err, ErrCorruptFrame) {
		lm.corrupt.Inc()
	}
	return t, vec, err
}

// cloudMetrics instruments the cloud coordinator.
type cloudMetrics struct {
	link        linkMetrics
	rounds      *obs.Counter
	syncs       *obs.Counter
	timeouts    *obs.Counter
	edgeDrops   *obs.Counter
	checkpoints *obs.Counter
	roundSpan   *obs.Span
	// Membership / failure-detector accounting: edges declared dead by
	// the lease detector (or an RPC failure), rejoins admitted at a
	// bumped epoch, the current membership epoch, missed lease intervals
	// and frames fenced off for carrying a stale incarnation epoch.
	failovers   *obs.Counter
	rejoins     *obs.Counter
	epochGauge  *obs.Gauge
	leaseMisses *obs.Counter
	staleFrames *obs.Counter
}

func newCloudMetrics(r *obs.Registry) cloudMetrics {
	return cloudMetrics{
		link:        newLinkMetrics(r, linkEdgeCloud),
		rounds:      r.Counter("fednet_rounds_total"),
		syncs:       r.Counter("fednet_cloud_syncs_total"),
		timeouts:    r.Counter("fednet_timeouts_total"),
		edgeDrops:   r.Counter("fednet_edge_drops_total"),
		checkpoints: r.Counter("fednet_checkpoints_total"),
		roundSpan:   r.Span("fednet_rpc_seconds", "op", "cloud_round"),
		failovers:   r.Counter("fednet_edge_failovers_total"),
		rejoins:     r.Counter("fednet_edge_rejoins_total"),
		epochGauge:  r.Gauge("fednet_membership_epoch"),
		leaseMisses: r.Counter("fednet_lease_misses_total"),
		staleFrames: r.Counter("fednet_stale_frames_total"),
	}
}

// edgeMetrics instruments one edge server (cloud-facing and
// device-facing traffic separately).
type edgeMetrics struct {
	cloudLink    linkMetrics
	deviceLink   linkMetrics
	drops        *obs.Counter
	timeouts     *obs.Counter
	retries      *obs.Counter
	quorumMisses *obs.Counter
	stragglers   *obs.Counter
	checkpoints  *obs.Counter
	// virtualDevices gauges how many devices are registered at the edge
	// (fednet_virtual_devices), whatever the group size of their clients.
	virtualDevices *obs.Gauge
	roundSpan      *obs.Span
	trainSpan      *obs.Span
}

func newEdgeMetrics(r *obs.Registry) edgeMetrics {
	return edgeMetrics{
		cloudLink:      newLinkMetrics(r, linkEdgeCloud),
		deviceLink:     newLinkMetrics(r, linkDeviceEdge),
		drops:          r.Counter("fednet_device_drops_total"),
		timeouts:       r.Counter("fednet_timeouts_total"),
		retries:        r.Counter("fednet_retries_total"),
		quorumMisses:   r.Counter("fednet_quorum_misses_total"),
		stragglers:     r.Counter("fednet_excluded_stragglers_total"),
		checkpoints:    r.Counter("fednet_checkpoints_total"),
		virtualDevices: r.Gauge("fednet_virtual_devices"),
		roundSpan:      r.Span("fednet_rpc_seconds", "op", "edge_round"),
		trainSpan:      r.Span("fednet_rpc_seconds", "op", "train_rpc"),
	}
}

// deviceMetrics instruments one device client. reconnects counts devices
// re-registered at their edge after their connection was lost, rehomed
// those that failed over to another edge when theirs died.
type deviceMetrics struct {
	link       linkMetrics
	retries    *obs.Counter
	reconnects *obs.Counter
	rehomed    *obs.Counter
	nonfinite  *obs.Counter
	trainSpan  *obs.Span
}

func newDeviceMetrics(r *obs.Registry) deviceMetrics {
	return deviceMetrics{
		link:       newLinkMetrics(r, linkDeviceEdge),
		retries:    r.Counter("fednet_retries_total"),
		reconnects: r.Counter("fednet_device_reconnects_total"),
		rehomed:    r.Counter("fednet_rehomed_devices_total"),
		nonfinite:  r.Counter("hfl_nonfinite_steps_total"),
		trainSpan:  r.Span("fednet_rpc_seconds", "op", "device_train"),
	}
}

// countTimeout increments c when err is a network timeout (deadline
// exceeded); other errors are left to the caller's handling.
func countTimeout(c *obs.Counter, err error) {
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		c.Inc()
	}
}
