package flight

import (
	"encoding/binary"
	"testing"
)

// FuzzParseCPUProfile throws arbitrary bytes at the pprof decoder. The
// committed corpus (testdata/fuzz/FuzzParseCPUProfile) holds a CPU profile
// with "phase" labels as the runtime writes it, gzipped, and the protobuf
// inside it; the seeds added here are the garbage the tests reject and two
// samples whose CPU times add up past int64.
//
// Properties: the decoder never panics, and what it accepts is what its
// consumers (the profiler's per-phase gauges, middlediag's CPU-by-phase
// shares) take as given: a phase map, every phase a positive share, and
// the shares adding up to the total.
func FuzzParseCPUProfile(f *testing.F) {
	f.Add([]byte("not a profile"))
	f.Add([]byte(nil))
	overflow := []byte{0x0a, 0} // one unnamed sample type: the value column
	for i := 0; i < 2; i++ {
		sample := binary.AppendUvarint([]byte{0x10}, 3<<61) // value, unpacked
		overflow = append(append(overflow, 0x12, byte(len(sample))), sample...)
	}
	f.Add(overflow)
	f.Fuzz(func(t *testing.T, data []byte) {
		prof, err := ParseCPUProfile(data)
		if err != nil {
			return
		}
		if prof.Phases == nil {
			t.Fatal("accepted profile without a phase map")
		}
		sum := int64(0)
		for phase, ns := range prof.Phases {
			if ns <= 0 || ns > prof.TotalNanos {
				t.Fatalf("phase %q holds %d ns of a %d ns total", phase, ns, prof.TotalNanos)
			}
			sum += ns
		}
		if sum != prof.TotalNanos {
			t.Fatalf("phases add up to %d ns, total %d", sum, prof.TotalNanos)
		}
	})
}
