package checkpoint

// Live-migration handover: the state a source edge ships to a
// destination edge when a device moves mid-round, with a per-device
// generation so the destination can reject a record that arrives after
// a newer move. The record carries its own CRC although the fednet frame
// around it has one: the fault injector's Byzantine rewrites recompute
// the frame CRC, so only this inner checksum catches a rewritten
// payload. EncodeHandoverBytes is the field list (DESIGN.md "Record
// formats" has it as a table). Journal files end in ".hov", which
// LoadLatest's ".ckpt" scan skips.

import (
	"fmt"
	"os"
	"path/filepath"
)

// Handover is the state transferred edge-to-edge for one moving device.
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
	// the per-group split (see optim.ExportMoments). fednet writes both
	// empty: a device keeps its own moments, and Steps > 0 offers the
	// destination their resume.
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

// SaveHandoverFile journals the encoded record of (device, generation)
// as dir/"handover-d<device>-g<generation>.hov", atomically: a source
// edge crash mid-migration leaves a complete journal or nothing.
func SaveHandoverFile(dir string, device, generation int, rec []byte) (string, error) {
	return writeFileAtomic(dir, handoverFileName(device, generation), rec)
}

// RemoveHandoverFile deletes the journal for (device, generation);
// missing files are not an error (the journal may already be resolved).
func RemoveHandoverFile(dir string, device, generation int) error {
	err := os.Remove(filepath.Join(dir, handoverFileName(device, generation)))
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// LoadHandovers returns every valid handover journal under dir, torn or
// corrupt files skipped, in file-name order (device then generation).
func LoadHandovers(dir string) ([]Handover, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: reading dir: %w", err)
	}
	var out []Handover
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".hov" {
			continue
		}
		// An unreadable journal is no bytes, skipped like a torn or corrupt one.
		p, _ := os.ReadFile(filepath.Join(dir, e.Name()))
		if h, err := DecodeHandoverBytes(p); err == nil {
			out = append(out, h)
		}
	}
	return out, nil
}

func handoverFileName(device, generation int) string {
	return fmt.Sprintf("handover-d%06d-g%06d.hov", device, generation)
}
