package checkpoint

// Memory follows the bytes received, not the count a record claims: a
// few dozen bytes announcing 2^30 values must not allocate for them —
// not with a stale checksum (a torn file) and not with a valid one (a
// peer that computes it).

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// allocatedBy reports the bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// claims are records that end right after a count nothing backs, each
// sealed with a valid checksum.
func claims() map[string][]byte {
	handover := func(fill func(e *enc)) []byte {
		e := newEnc(versionHandover, 128)
		for i := 0; i < 9; i++ {
			e.u64(uint64(i))
		}
		e.f64(1.5)
		fill(e)
		return e.finish()
	}
	state := func(fill func(e *enc)) []byte {
		e := newEnc(versionState, 128)
		e.str("global")
		e.u64(3)
		fill(e)
		return e.finish()
	}
	return map[string][]byte{
		"handover model":   handover(func(e *enc) { e.u64(1 << 30) }),
		"handover groups":  handover(func(e *enc) { e.u64(0); e.u32(1 << 30) }),
		"handover moments": handover(func(e *enc) { e.u64(0); e.u32(2); e.u32(1 << 30); e.u32(1 << 30) }),
		"state model":      state(func(e *enc) { e.u64(1 << 30) }),
		"state model 2^62": state(func(e *enc) { e.u64(1 << 62) }),
		"state edges":      state(func(e *enc) { e.u64(0); e.u32(1 << 30) }),
		"state devices":    state(func(e *enc) { e.u64(0); e.u32(0); e.u64(1); e.u32(1 << 30) }),
	}
}

func TestDecodersAllocateFromBytesReceived(t *testing.T) {
	dir := t.TempDir()
	for name, sealed := range claims() {
		torn := sealed[:len(sealed)-4] // the claim with no checksum behind it
		for kind, rec := range map[string][]byte{"sealed": sealed, "torn": torn} {
			ckpt := filepath.Join(dir, "global-r000003.ckpt")
			hov := filepath.Join(dir, "handover-d000001-g000001.hov")
			for _, path := range []string{ckpt, hov} {
				if err := os.WriteFile(path, rec, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			for entry, decode := range map[string]func() bool{
				"DecodeHandoverBytes": func() bool { _, err := DecodeHandoverBytes(rec); return err == nil },
				"LoadState":           func() bool { _, err := LoadState(bytes.NewReader(rec)); return err == nil },
				"LoadLatestNamed":     func() bool { _, ok, _ := LoadLatestNamed(dir, "global"); return ok },
				"LoadHandovers":       func() bool { hs, _ := LoadHandovers(dir); return len(hs) > 0 },
			} {
				var accepted bool
				if got := allocatedBy(func() { accepted = decode() }); got >= 1<<20 {
					t.Errorf("%s (%s) through %s allocated %d bytes for a %d-byte record", name, kind, entry, got, len(rec))
				}
				if accepted {
					t.Errorf("%s (%s) accepted by %s", name, kind, entry)
				}
			}
		}
	}
}
