//go:build !amd64

package tensor

import "testing"

// forEachKernelFamily runs f under the only kernel family this
// architecture has.
func forEachKernelFamily(t *testing.T, f func(t *testing.T)) {
	t.Run("portable", f)
}
