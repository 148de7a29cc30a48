package tensor

import "testing"

func TestKernelStatsDisabledByDefault(t *testing.T) {
	prev := EnableKernelStats(false)
	defer EnableKernelStats(prev)
	ResetKernelStats()

	a := New(4, 4)
	b := New(4, 4)
	fill(a, 1)
	fill(b, 2)
	MatMul(a, b)
	cols := make([]float64, 1*3*3*4*4) // C*KH*KW rows of OH*OW = 4*4
	Im2Col(make([]float64, 16), 1, 4, 4, 3, 3, 1, 1, cols)
	Col2Im(cols, 1, 4, 4, 3, 3, 1, 1, make([]float64, 16))

	if got := ReadKernelStats(); got != (KernelStats{}) {
		t.Fatalf("counters advanced while disabled: %+v", got)
	}
}

func TestKernelStatsCounts(t *testing.T) {
	prev := EnableKernelStats(true)
	defer EnableKernelStats(prev)
	ResetKernelStats()

	a := New(4, 4)
	b := New(4, 4)
	fill(a, 1)
	fill(b, 2)
	MatMul(a, b) // delegates to MatMulInto: one count, not two
	MatMulTransA(a, b)
	MatMulTransB(a, b)
	cols := make([]float64, 1*3*3*4*4) // C*KH*KW rows of OH*OW = 4*4
	Im2Col(make([]float64, 16), 1, 4, 4, 3, 3, 1, 1, cols)
	cols1d := make([]float64, 1*3*4)
	Im2Col1D(make([]float64, 6), 1, 6, 3, 1, 0, cols1d)
	Col2Im(cols, 1, 4, 4, 3, 3, 1, 1, make([]float64, 16))
	Col2Im1D(cols1d, 1, 6, 3, 1, 0, make([]float64, 6))

	s := ReadKernelStats()
	if s.MatMulCalls != 3 {
		t.Fatalf("MatMulCalls = %d, want 3", s.MatMulCalls)
	}
	if s.Im2ColCalls != 2 {
		t.Fatalf("Im2ColCalls = %d, want 2", s.Im2ColCalls)
	}
	if s.Col2ImCalls != 2 {
		t.Fatalf("Col2ImCalls = %d, want 2", s.Col2ImCalls)
	}

	ResetKernelStats()
	if got := ReadKernelStats(); got != (KernelStats{}) {
		t.Fatalf("ResetKernelStats left %+v", got)
	}
}

func TestEnableKernelStatsReturnsPrevious(t *testing.T) {
	orig := KernelStatsEnabled()
	defer EnableKernelStats(orig)

	EnableKernelStats(false)
	if prev := EnableKernelStats(true); prev {
		t.Fatal("EnableKernelStats(true) reported previous=true after disable")
	}
	if !KernelStatsEnabled() {
		t.Fatal("stats not enabled")
	}
	if prev := EnableKernelStats(false); !prev {
		t.Fatal("EnableKernelStats(false) reported previous=false after enable")
	}
}
