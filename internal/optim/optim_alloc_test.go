//go:build !race

package optim

import (
	"testing"

	"middle/internal/nn"
	"middle/internal/tensor"
)

// raceDetector is true under -race, whose instrumentation allocates.
const raceDetector = false

// TestResetStepDoesNotAllocate: a local round is Reset followed by Steps,
// and after the first one neither may allocate — Reset used to drop the
// moment buffers and the next Step made them again, every round.
func TestResetStepDoesNotAllocate(t *testing.T) {
	params := []*nn.Param{
		{Name: "w", Value: tensor.New(64, 8), Grad: tensor.New(64, 8)},
		{Name: "b", Value: tensor.New(8), Grad: tensor.New(8)},
	}
	for name, mk := range statefulOptimizers() {
		opt := mk()
		round := func() {
			opt.Reset()
			opt.Step(params)
			opt.Step(params)
		}
		round()
		if n := testing.AllocsPerRun(50, round); n != 0 {
			t.Errorf("%s: Reset+Step allocates %v times per round after the first", name, n)
		}
	}
}
