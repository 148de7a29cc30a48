package checkpoint

// Fuzz targets for the two record parsers. The committed corpora
// (testdata/fuzz/...) hold a valid record of every version, one
// truncation per field class and single-bit flips in the version byte, a
// count, a value and the checksum; the seeds added below are every
// truncation and every single-bit flip of the golden records a target
// reads, and the other versions' goldens as they are.

import (
	"bytes"
	"hash/crc32"
	"slices"
	"testing"
)

// addMutations seeds f with raw, each of its prefixes and each of its
// single-bit flips.
func addMutations(f *testing.F, raw []byte) {
	for cut := 0; cut <= len(raw); cut++ {
		f.Add(append([]byte(nil), raw[:cut]...))
	}
	for bit := 0; bit < 8*len(raw); bit++ {
		flipped := append([]byte(nil), raw...)
		flipped[bit/8] ^= 1 << (bit % 8)
		f.Add(flipped)
	}
}

// seed adds the golden record of every version to f, and every mutation
// of those whose version byte the target reads.
func seed(f *testing.F, reads ...byte) {
	for _, elem := range [][]string{
		{"model_v1.golden"}, {"resume", "global-r000042.ckpt"},
		{"handover_v3.golden"}, {"resume", "global-r000057.ckpt"},
	} {
		if raw := readGolden(f, elem...); slices.Contains(reads, raw[4]) {
			addMutations(f, raw)
		} else {
			f.Add(raw)
		}
	}
}

// checkAccepted holds for every record either parser accepts: the
// checksum really matches and no vector outgrew the input.
func checkAccepted(t *testing.T, data []byte, values int) {
	t.Helper()
	if n := len(data); n < envelope || le.Uint32(data[n-4:]) != crc32.ChecksumIEEE(data[:n-4]) {
		t.Fatalf("accepted a %d-byte record whose checksum does not match", n)
	}
	if 8*values > len(data) {
		t.Fatalf("%d values decoded from %d bytes", values, len(data))
	}
}

// FuzzLoadState: LoadState never panics, accepts only records whose CRC
// verifies, and what it accepts survives a save and a second load.
func FuzzLoadState(f *testing.F) {
	seed(f, versionStateV2, versionState)
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := LoadState(bytes.NewReader(data))
		if err != nil {
			if st.Name != "" || st.Model != nil || st.EdgeWeights != nil || st.Assignment != nil {
				t.Fatalf("error %v came with state %+v", err, st)
			}
			return
		}
		checkAccepted(t, data, len(st.Model))
		var again bytes.Buffer
		if err := SaveState(&again, st); err != nil {
			t.Fatalf("saving an accepted state: %v", err)
		}
		st2, err := LoadState(&again)
		if err != nil || !statesSameBits(st, st2) {
			t.Fatalf("saved and loaded again: %+v (err %v), first %+v", st2, err, st)
		}
	})
}

// FuzzDecodeHandover is FuzzLoadState for the handover record, which a
// peer edge delivers over the network.
func FuzzDecodeHandover(f *testing.F) {
	seed(f, versionHandover)
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := DecodeHandoverBytes(data)
		if err != nil {
			if h.Model != nil || h.Moments != nil || h.MomentLens != nil {
				t.Fatalf("error %v came with record %+v", err, h)
			}
			return
		}
		checkAccepted(t, data, len(h.Model)+len(h.Moments))
		again, err := EncodeHandoverBytes(h)
		if err != nil {
			t.Fatalf("encoding an accepted record: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted record does not re-encode to itself\n got %x\nfrom %x", again, data)
		}
		if h2, err := DecodeHandoverBytes(again); err != nil || !handoversEqual(h, h2) {
			t.Fatalf("decoded again: %+v (err %v), first %+v", h2, err, h)
		}
	})
}
