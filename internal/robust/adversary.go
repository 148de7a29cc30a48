package robust

import (
	"fmt"

	"middle/internal/tensor"
)

// Adversary configures the seeded adversary harness: a persistent subset
// of devices sign-flips its trained model before upload. The zero value
// is no adversaries.
type Adversary struct {
	// Fraction of devices that are adversarial, in [0, 1]. Membership
	// is a pure function of (Seed, device): the same seed marks the
	// same devices in every run and every round.
	Fraction float64
	// Scale is the attack amplitude; 0 means 1.
	Scale float64
	// Seed derives membership.
	Seed int64
}

// Enabled reports whether any device is corrupted.
func (a Adversary) Enabled() bool { return a.Fraction > 0 }

// advMemberStream salts the membership draws.
const advMemberStream = int64(0x5eed<<32) + 1

// IsAdversary reports whether device m is adversarial — a pure function
// of (Seed, Fraction, m), independent of round, matching the threat
// model of a persistently compromised device.
func (a Adversary) IsAdversary(m int) bool {
	if a.Fraction <= 0 {
		return false
	}
	return tensor.Split(a.Seed, advMemberStream+int64(m)*2).Float64() < a.Fraction
}

// Corrupt overwrites w in place with its sign-flip around ref, the model
// the device started the round from: w' = ref − Scale·(w − ref), i.e.
// the update's sign is flipped (and amplified by Scale). The classic
// gradient-inversion attack; pure in (Scale, w, ref).
func (a Adversary) Corrupt(w, ref []float64) {
	if len(w) != len(ref) {
		panic(fmt.Sprintf("robust: Corrupt length mismatch %d vs %d", len(w), len(ref)))
	}
	scale := a.Scale
	if scale == 0 {
		scale = 1
	}
	for i, r := range ref {
		w[i] = r - scale*(w[i]-r)
	}
}
