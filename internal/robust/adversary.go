package robust

import (
	"fmt"

	"middle/internal/tensor"
)

// AdversaryMode selects the corruption an adversarial device applies to
// its trained model before upload.
type AdversaryMode string

const (
	// AdvSignFlip reflects the trained model around the reference:
	// w' = ref − Scale·(w − ref), i.e. the update's sign is flipped
	// (and amplified by Scale). The classic gradient-inversion attack.
	AdvSignFlip AdversaryMode = "sign-flip"
	// AdvNoise adds scaled Gaussian noise: w'ᵢ = wᵢ + Scale·gᵢ with g
	// drawn from the device+round stream.
	AdvNoise AdversaryMode = "noise"
	// AdvSameValue is collusion: every adversary uploads the identical
	// vector w'ᵢ = refᵢ + Scale·gᵢ with g drawn from the round-only
	// stream, stacking weight behind one malicious point.
	AdvSameValue AdversaryMode = "same-value"
)

// ParseAdversaryMode maps a CLI/config string to an AdversaryMode. The
// empty string is sign-flip (the default attack).
func ParseAdversaryMode(s string) (AdversaryMode, error) {
	switch AdversaryMode(s) {
	case "", AdvSignFlip:
		return AdvSignFlip, nil
	case AdvNoise:
		return AdvNoise, nil
	case AdvSameValue:
		return AdvSameValue, nil
	}
	return "", fmt.Errorf("robust: unknown adversary mode %q (want sign-flip, noise or same-value)", s)
}

// UnmarshalText is ParseAdversaryMode for flag.TextVar and
// encoding/json, so a bad name fails where it is parsed.
func (m *AdversaryMode) UnmarshalText(text []byte) (err error) {
	*m, err = ParseAdversaryMode(string(text))
	return err
}

// MarshalText returns the mode's name ("" for an unset mode).
func (m AdversaryMode) MarshalText() ([]byte, error) { return []byte(m), nil }

// Adversary configures the seeded adversary harness. The zero value is
// no adversaries.
type Adversary struct {
	// Fraction of devices that are adversarial, in [0, 1]. Membership
	// is a pure function of (Seed, device): the same seed marks the
	// same devices in every run and every round.
	Fraction float64
	// Mode is the corruption applied; "" means AdvSignFlip.
	Mode AdversaryMode
	// Scale is the attack amplitude; 0 means 1.
	Scale float64
	// Seed derives both membership and corruption streams.
	Seed int64
}

// Enabled reports whether any device is corrupted.
func (a Adversary) Enabled() bool { return a.Fraction > 0 }

// stream-id salts keeping membership and corruption draws independent.
const (
	advMemberStream  = int64(0x5eed<<32) + 1
	advCorruptStream = int64(0x5eed<<32) + 2
)

// IsAdversary reports whether device m is adversarial — a pure function
// of (Seed, Fraction, m), independent of round, matching the threat
// model of a persistently compromised device.
func (a Adversary) IsAdversary(m int) bool {
	if a.Fraction <= 0 {
		return false
	}
	return tensor.Split(a.Seed, advMemberStream+int64(m)*2).Float64() < a.Fraction
}

// Corrupt overwrites w in place with the Mode corruption for (device m,
// round t), given ref, the model the device started the round from (for
// AdvSameValue pass the cloud/edge model so colluders agree). Pure in
// (Seed, Mode, Scale, m, t, w, ref).
func (a Adversary) Corrupt(w, ref []float64, m, t int) {
	if len(w) != len(ref) {
		panic(fmt.Sprintf("robust: Corrupt length mismatch %d vs %d", len(w), len(ref)))
	}
	scale := a.Scale
	if scale == 0 {
		scale = 1
	}
	switch a.Mode {
	case "", AdvSignFlip:
		for i, r := range ref {
			w[i] = r - scale*(w[i]-r)
		}
	case AdvNoise:
		rng := tensor.Split(a.Seed, advCorruptStream+int64(m)*1_000_003+int64(t)*7)
		for i := range w {
			w[i] += scale * rng.NormFloat64()
		}
	case AdvSameValue:
		// Round-only stream: every adversary draws the same values.
		rng := tensor.Split(a.Seed, advCorruptStream+int64(t)*7)
		for i, r := range ref {
			w[i] = r + scale*rng.NormFloat64()
		}
	default:
		panic(fmt.Sprintf("robust: unknown adversary mode %q", a.Mode))
	}
}
