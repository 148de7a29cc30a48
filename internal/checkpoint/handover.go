package checkpoint

// The v3 handover record: the state one edge shipped to another for a
// moving device, with a per-device generation and its own CRC. No
// deployment path writes it any more — a moving device carries its own
// state (fednet's warm registration) — and the codec stays only because
// the benchmark's checkpoint.handover_* rungs time it.
// EncodeHandoverBytes is the field list (DESIGN.md "Record formats" has it
// as a table).

import "fmt"

// Handover is the state of one moving device as the v3 record holds it.
type Handover struct {
	Device     int
	SrcEdge    int
	DestEdge   int
	Generation int
	// Round, LastSync and LastTrained pin the source edge's timeline so
	// the destination can tell whether the record belongs to its own
	// cloud-sync era (resume) or a stale one (discard).
	Round       int
	LastSync    int
	LastTrained int
	// Steps is the device optimizer's step counter at handover.
	Steps    int
	DataSize int
	StatUtil float64
	Model    []float64
	// Moments is the flattened optimizer moment state; MomentLens gives
	// the per-group split (see optim.ExportMoments).
	MomentLens []int
	Moments    []float64
}

// ints lists the header integers in wire order, for both directions.
func (h *Handover) ints() [9]*int {
	return [9]*int{&h.Device, &h.SrcEdge, &h.DestEdge, &h.Generation, &h.Round,
		&h.LastSync, &h.LastTrained, &h.Steps, &h.DataSize}
}

// EncodeHandoverBytes serialises h.
func EncodeHandoverBytes(h Handover) ([]byte, error) {
	total := 0
	for _, n := range h.MomentLens {
		if n < 0 {
			return nil, fmt.Errorf("checkpoint: negative moment group length %d", n)
		}
		total += n
	}
	if total != len(h.Moments) {
		return nil, fmt.Errorf("checkpoint: moment lengths sum %d but %d values", total, len(h.Moments))
	}
	e := newEnc(versionHandover, 9*8+8+8+8*len(h.Model)+4+4*len(h.MomentLens)+8*len(h.Moments))
	for _, v := range h.ints() {
		e.u64(uint64(*v))
	}
	e.f64(h.StatUtil)
	e.u64(uint64(len(h.Model)))
	e.f64s(h.Model)
	e.u32(uint32(len(h.MomentLens)))
	for _, n := range h.MomentLens {
		e.u32(uint32(n))
	}
	e.f64s(h.Moments)
	return e.finish(), nil
}

// DecodeHandoverBytes parses a record produced by EncodeHandoverBytes,
// verifying its checksum.
func DecodeHandoverBytes(p []byte) (Handover, error) {
	d, _, err := open(p, versionHandover)
	if err != nil {
		return Handover{}, err
	}
	var h Handover
	for _, v := range h.ints() {
		*v = int(int64(d.u64()))
	}
	h.StatUtil = d.f64()
	h.Model = d.f64s(d.u64())
	total := uint64(0)
	if groups := d.count(uint64(d.u32()), 4); groups > 0 {
		h.MomentLens = make([]int, groups)
		for i := range h.MomentLens {
			h.MomentLens[i] = int(d.u32())
			total += uint64(h.MomentLens[i])
		}
	}
	h.Moments = d.f64s(total)
	if err := d.done(); err != nil {
		return Handover{}, err
	}
	return h, nil
}
