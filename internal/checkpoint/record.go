// Package checkpoint serialises the repository's crash-recovery and
// migration records: the coordinator state a cloud or edge resumes from
// (state.go) and the per-device handover one edge ships to another
// (handover.go). Every record is "MIDL", a version byte (3 handover,
// 4 state; 2 an older state, read only; 1 retired and refused), the
// version's fields, and a CRC-32 (IEEE) over everything before it, all
// little-endian. That envelope is written and read in this file alone:
// a reader verifies the checksum over the whole buffer before it decodes
// one field, and sizes every vector and table from the bytes that are
// there, never from the count a record claims.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

const (
	magic    = "MIDL"
	envelope = len(magic) + 1 + 4 // the bytes around the fields: magic, version, CRC
	maxName  = 1 << 12            // bound on the record-name field

	versionStateV2  = 2 // state without the membership section: read only
	versionHandover = 3
	versionState    = 4
)

var le = binary.LittleEndian

// enc appends a record's fields to one buffer sized by its caller.
type enc struct{ b []byte }

// newEnc starts a record whose fields take size bytes: one allocation.
func newEnc(version byte, size int) *enc {
	b := make([]byte, 0, envelope+size)
	return &enc{b: append(append(b, magic...), version)}
}

func (e *enc) u32(v uint32)  { e.b = le.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64)  { e.b = le.AppendUint64(e.b, v) }
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }

func (e *enc) str(s string) {
	e.b = append(le.AppendUint16(e.b, uint16(len(s))), s...)
}

// f64s appends the values alone: a count is its own field.
func (e *enc) f64s(v []float64) {
	for _, x := range v {
		e.f64(x)
	}
}

func (e *enc) finish() []byte { return le.AppendUint32(e.b, crc32.ChecksumIEEE(e.b)) }

var errTruncated = errors.New("checkpoint: record ends inside a field")

// dec reads a verified record's fields in order. A field that does not
// fit sets err and every later read returns zero, so only done checks.
type dec struct {
	b   []byte // fields not yet read
	err error
}

// open checks p's envelope — magic, the checksum over all of p, then a
// version the caller reads — and returns a decoder over the fields.
func open(p []byte, versions ...byte) (*dec, byte, error) {
	if len(p) < envelope || string(p[:len(magic)]) != magic {
		return nil, 0, fmt.Errorf("checkpoint: not a record (%d bytes, magic %q)", len(p), p[:min(len(p), len(magic))])
	}
	body := len(p) - 4
	if got, want := le.Uint32(p[body:]), crc32.ChecksumIEEE(p[:body]); got != want {
		return nil, 0, fmt.Errorf("checkpoint: checksum mismatch: record %08x, computed %08x", got, want)
	}
	version := p[len(magic)]
	if !slices.Contains(versions, version) {
		return nil, 0, fmt.Errorf("checkpoint: record version %d, want one of %v (version 1 model files are retired)", version, versions)
	}
	return &dec{b: p[len(magic)+1 : body]}, version, nil
}

// fail keeps the first error and makes every later read fail too.
func (d *dec) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.b = nil
}

// take returns the next n bytes, or nil once the record is exhausted.
func (d *dec) take(n int) []byte {
	if d.err != nil || n > len(d.b) {
		d.fail(errTruncated)
		return nil
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

// uint reads an n-byte little-endian integer (zero once failed).
func (d *dec) uint(n int) (v uint64) {
	for i, b := range d.take(n) {
		v |= uint64(b) << (8 * i)
	}
	return v
}

func (d *dec) u16() uint16  { return uint16(d.uint(2)) }
func (d *dec) u32() uint32  { return uint32(d.uint(4)) }
func (d *dec) u64() uint64  { return d.uint(8) }
func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *dec) str() string {
	n := int(d.u16())
	if n > maxName {
		d.fail(fmt.Errorf("checkpoint: implausible name length %d", n))
	}
	return string(d.take(n))
}

// count checks a claimed number of size-byte entries against the bytes
// left, so nothing is allocated for entries that never arrived.
func (d *dec) count(n uint64, size int) int {
	if n > uint64(len(d.b)/size) {
		d.fail(errTruncated)
		return 0
	}
	return int(n)
}

// f64s reads n values (nil for none).
func (d *dec) f64s(n uint64) []float64 {
	p := d.take(8 * d.count(n, 8))
	if len(p) == 0 {
		return nil
	}
	v := make([]float64, len(p)/8)
	for i := range v {
		v[i] = math.Float64frombits(le.Uint64(p[8*i:]))
	}
	return v
}

// done reports the first decoding error, or fields left unread.
func (d *dec) done() error {
	if d.err == nil && len(d.b) > 0 {
		return fmt.Errorf("checkpoint: %d bytes after the last field", len(d.b))
	}
	return d.err
}

// sortedKeys returns m's keys ascending: equal tables, equal bytes.
func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// writeFileAtomic persists rec as dir/name: written to a temp file,
// fsynced and renamed into place, so a crash mid-write leaves at most a
// stray temp file that no scan considers. Returns the final path.
func writeFileAtomic(dir, name string, rec []byte) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("checkpoint: creating dir: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return "", fmt.Errorf("checkpoint: temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	_, err = tmp.Write(rec)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	final := filepath.Join(dir, name)
	if err == nil {
		err = os.Rename(tmp.Name(), final)
	}
	if err != nil {
		return "", fmt.Errorf("checkpoint: writing %s: %w", final, err)
	}
	return final, nil
}
