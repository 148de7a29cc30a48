package flight

import (
	"compress/gzip"
	"fmt"
	"io"
	"math"
	"strings"
)

// CPUByPhase is the result of attributing a CPU profile to phases: the
// total sampled CPU time and its split by the "phase" pprof label.
// Samples taken outside any phase land under PhaseUnattributed.
type CPUByPhase struct {
	// TotalNanos is the summed CPU time of every sample.
	TotalNanos int64
	// Phases maps phase label → summed CPU nanoseconds.
	Phases map[string]int64
}

// PhaseUnattributed is the bucket for samples carrying no "phase"
// label: runtime background work, unlabeled goroutines, GC.
const PhaseUnattributed = "unattributed"

// ParseCPUProfile reads a pprof CPU profile (the gzipped protobuf
// written by runtime/pprof.StartCPUProfile) and attributes its samples
// to the "phase" label. It is a purpose-built minimal decoder — only
// the sample types, sample values and string table are touched — so
// both the profiler and middlediag stay dependency-free.
func ParseCPUProfile(data []byte) (CPUByPhase, error) {
	out := CPUByPhase{Phases: map[string]int64{}}
	data, err := ungzip(data)
	if err != nil {
		return out, err
	}
	p, err := readProfile(data)
	if err != nil {
		return out, err
	}
	cpuIdx := p.cpuColumn()
	if cpuIdx < 0 {
		return out, fmt.Errorf("flight: profile has no sample types")
	}
	for _, sb := range p.samples {
		values, phase, err := p.readSample(sb)
		if err != nil {
			return out, err
		}
		if cpuIdx >= len(values) {
			continue
		}
		ns := values[cpuIdx]
		if ns <= 0 {
			continue
		}
		if ns > math.MaxInt64-out.TotalNanos {
			return out, fmt.Errorf("flight: profile's CPU time overflows int64 nanoseconds")
		}
		out.TotalNanos += ns
		if phase == "" {
			phase = PhaseUnattributed
		}
		out.Phases[phase] += ns
	}
	return out, nil
}

// ungzip returns data inflated when it starts with the gzip magic, else
// data itself.
func ungzip(data []byte) ([]byte, error) {
	if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
		return data, nil
	}
	zr, err := gzip.NewReader(strings.NewReader(string(data)))
	if err != nil {
		return nil, fmt.Errorf("flight: ungzip profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("flight: ungzip profile: %w", err)
	}
	return raw, nil
}

// profile is what ParseCPUProfile reads of a profile's top level: its
// string table, and its sample types and samples still encoded.
type profile struct {
	table       []string
	sampleTypes [][]byte
	samples     [][]byte
}

// readProfile splits a decoded profile into its string table, sample
// types and samples, skipping every other field.
func readProfile(data []byte) (profile, error) {
	var p profile
	r := protoReader{b: data}
	for !r.done() {
		num, wire, err := r.tag()
		if err != nil {
			return p, err
		}
		var dst *[][]byte
		switch {
		case num == 1 && wire == 2: // sample_type: ValueType
			dst = &p.sampleTypes
		case num == 2 && wire == 2: // sample: Sample
			dst = &p.samples
		case num == 6 && wire == 2: // string_table
		default:
			if err := r.skip(wire); err != nil {
				return p, err
			}
			continue
		}
		b, err := r.bytes()
		if err != nil {
			return p, err
		}
		if dst == nil {
			p.table = append(p.table, string(b))
		} else {
			*dst = append(*dst, b)
		}
	}
	return p, nil
}

// str returns string i of the table, "" when there is none.
func (p *profile) str(i int64) string {
	if i >= 0 && int(i) < len(p.table) {
		return p.table[i]
	}
	return ""
}

// cpuColumn returns the index of the value column measured in CPU
// nanoseconds ("cpu" / "nanoseconds"), falling back to the last column,
// which is where the runtime puts it; -1 when there are no columns.
func (p *profile) cpuColumn() int {
	cpuIdx := len(p.sampleTypes) - 1
	for i, stb := range p.sampleTypes {
		tr := protoReader{b: stb}
		var typ, unit int64
		for !tr.done() {
			num, wire, err := tr.tag()
			if err != nil {
				break
			}
			switch {
			case num == 1 && wire == 0:
				v, _ := tr.varint()
				typ = int64(v)
			case num == 2 && wire == 0:
				v, _ := tr.varint()
				unit = int64(v)
			default:
				_ = tr.skip(wire) // a bad field ends the scan at the next tag, if at all
			}
		}
		if p.str(typ) == "cpu" && p.str(unit) == "nanoseconds" {
			cpuIdx = i
		}
	}
	return cpuIdx
}

// readSample decodes one sample's values and its "phase" label.
func (p *profile) readSample(sb []byte) (values []int64, phase string, err error) {
	sr := protoReader{b: sb}
	for !sr.done() {
		num, wire, err := sr.tag()
		if err != nil {
			return nil, "", err
		}
		switch {
		case num == 2 && wire == 2: // value: packed int64
			b, err := sr.bytes()
			if err != nil {
				return nil, "", err
			}
			vr := protoReader{b: b}
			for !vr.done() {
				v, err := vr.varint()
				if err != nil {
					return nil, "", err
				}
				values = append(values, int64(v))
			}
		case num == 2 && wire == 0: // value: unpacked
			v, err := sr.varint()
			if err != nil {
				return nil, "", err
			}
			values = append(values, int64(v))
		case num == 3 && wire == 2: // label: Label
			b, err := sr.bytes()
			if err != nil {
				return nil, "", err
			}
			key, sv, err := readLabel(b)
			if err != nil {
				return nil, "", err
			}
			if p.str(key) == "phase" {
				phase = p.str(sv)
			}
		default:
			if err := sr.skip(wire); err != nil {
				return nil, "", err
			}
		}
	}
	return values, phase, nil
}

// readLabel decodes a Label's key and string value (table indices).
func readLabel(b []byte) (key, str int64, err error) {
	lr := protoReader{b: b}
	for !lr.done() {
		num, wire, err := lr.tag()
		if err != nil {
			return 0, 0, err
		}
		switch {
		case num == 1 && wire == 0:
			v, _ := lr.varint()
			key = int64(v)
		case num == 2 && wire == 0:
			v, _ := lr.varint()
			str = int64(v)
		default:
			if err := lr.skip(wire); err != nil {
				return 0, 0, err
			}
		}
	}
	return key, str, nil
}

// protoReader is a minimal protobuf wire-format cursor.
type protoReader struct {
	b []byte
	i int
}

func (r *protoReader) done() bool { return r.i >= len(r.b) }

func (r *protoReader) varint() (uint64, error) {
	var v uint64
	var shift uint
	for {
		if r.i >= len(r.b) {
			return 0, fmt.Errorf("flight: truncated varint")
		}
		c := r.b[r.i]
		r.i++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
		shift += 7
		if shift >= 64 {
			return 0, fmt.Errorf("flight: varint overflow")
		}
	}
}

// tag reads one field tag, returning field number and wire type.
func (r *protoReader) tag() (int, int, error) {
	v, err := r.varint()
	if err != nil {
		return 0, 0, err
	}
	return int(v >> 3), int(v & 7), nil
}

// bytes reads one length-delimited payload.
func (r *protoReader) bytes() ([]byte, error) {
	n, err := r.varint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.b)-r.i) {
		return nil, fmt.Errorf("flight: truncated field (%d > %d)", n, len(r.b)-r.i)
	}
	b := r.b[r.i : r.i+int(n)]
	r.i += int(n)
	return b, nil
}

// skip advances past one field of the given wire type.
func (r *protoReader) skip(wire int) error {
	switch wire {
	case 0:
		_, err := r.varint()
		return err
	case 1:
		if len(r.b)-r.i < 8 {
			return fmt.Errorf("flight: truncated fixed64")
		}
		r.i += 8
		return nil
	case 2:
		_, err := r.bytes()
		return err
	case 5:
		if len(r.b)-r.i < 4 {
			return fmt.Errorf("flight: truncated fixed32")
		}
		r.i += 4
		return nil
	}
	return fmt.Errorf("flight: unsupported wire type %d", wire)
}
