package tensor

import "sync/atomic"

// Kernel invocation statistics. Collection is off by default and gated
// on one atomic flag, so the only hot-path cost when disabled is a
// relaxed bool load per instrumented call — the package stays free of
// any dependency on the observability layer, which bridges these
// numbers into its registry via gauge functions (see cmd/middled).

// KernelStats is a snapshot of the kernel counters.
type KernelStats struct {
	// MatMulCalls counts all matrix-multiply entry points (plain,
	// transposed-A, transposed-B).
	MatMulCalls int64
	// Im2ColCalls / Col2ImCalls count convolution lowering calls (2-D and
	// 1-D, including the strided batch variants).
	Im2ColCalls int64
	Col2ImCalls int64
}

var kernelStatsOn atomic.Bool

var kernelStats struct {
	matMul atomic.Int64
	im2col atomic.Int64
	col2im atomic.Int64
}

// EnableKernelStats switches collection on or off, returning the
// previous state. Counters keep their values across toggles; use
// ResetKernelStats for a clean slate.
func EnableKernelStats(on bool) bool {
	return kernelStatsOn.Swap(on)
}

// KernelStatsEnabled reports whether collection is on.
func KernelStatsEnabled() bool { return kernelStatsOn.Load() }

// ReadKernelStats returns a snapshot of the counters.
func ReadKernelStats() KernelStats {
	return KernelStats{
		MatMulCalls: kernelStats.matMul.Load(),
		Im2ColCalls: kernelStats.im2col.Load(),
		Col2ImCalls: kernelStats.col2im.Load(),
	}
}

// ResetKernelStats zeroes all counters.
func ResetKernelStats() {
	kernelStats.matMul.Store(0)
	kernelStats.im2col.Store(0)
	kernelStats.col2im.Store(0)
}

func countMatMul() {
	if kernelStatsOn.Load() {
		kernelStats.matMul.Add(1)
	}
}

func countIm2Col() {
	if kernelStatsOn.Load() {
		kernelStats.im2col.Add(1)
	}
}

func countCol2Im() {
	if kernelStatsOn.Load() {
		kernelStats.col2im.Add(1)
	}
}
