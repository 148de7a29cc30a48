package fednet

import "strconv"

// Chrome-trace process-id layout: each component renders as its own
// Perfetto process row. Edge pids assume fewer than 90 edges, which is
// an order of magnitude beyond the paper's deployments.
const (
	tracePidCloud      = 1
	tracePidEdgeBase   = 10
	tracePidDeviceBase = 100
)

// Round/RPC span-id scheme. Ids are globally unique strings carried in
// the protocol envelope (RoundStart.Span, TrainRequest.Span) so the
// device→edge→cloud spans of one round parent into a single tree even
// across process boundaries:
//
//	c.r<N>            cloud round N (root)
//	c.r<N>.sync       cloud aggregation + broadcast on sync rounds
//	e<E>.r<N>         edge E's round N, parent c.r<N>
//	e<E>.r<N>.d<M>    edge E's train RPC to device M, parent e<E>.r<N>
//	e<E>.r<N>.d<M>.t  device M's local training, parent the RPC span
//
// In a distributed deployment each process records only its own spans,
// so a per-process trace file may reference a parent recorded by
// another process; merge the files (or run in-process with a shared
// Trace) to validate the full tree.
func cloudRoundSpan(round int) string { return "c.r" + strconv.Itoa(round) }

func edgeRoundSpan(edge, round int) string {
	return "e" + strconv.Itoa(edge) + ".r" + strconv.Itoa(round)
}

func trainRPCSpan(edgeSpan string, device int) string {
	return edgeSpan + ".d" + strconv.Itoa(device)
}
