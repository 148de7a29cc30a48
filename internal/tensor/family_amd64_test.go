//go:build amd64

package tensor

import "testing"

// forEachKernelFamily runs f as a subtest under each kernel family this
// box can execute — "avx2" when the CPU has it, then "portable" — by
// flipping useAVX2 for the duration. Tests in this package do not run in
// parallel, so nothing else observes the flip.
func forEachKernelFamily(t *testing.T, f func(t *testing.T)) {
	detected := useAVX2
	defer func() { useAVX2 = detected }()
	if detected {
		t.Run("avx2", f)
	}
	useAVX2 = false
	t.Run("portable", f)
}
