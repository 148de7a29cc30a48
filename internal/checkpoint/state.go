package checkpoint

// Coordinator state: the record a cloud ("global") or an edge ("edgeN")
// resumes from after a crash. encode is the field list (DESIGN.md
// "Record formats" has it as a table). SaveState writes version 4 only —
// an edge's state carries epoch 0 and no devices — and LoadState also
// reads version 2, which ends before the epoch.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// State is a cloud or edge coordinator snapshot.
type State struct {
	Name  string
	Round int
	Model []float64
	// EdgeWeights holds the d̂_n accumulators reported by each edge at
	// the sync round this state was taken (diagnostics on resume).
	EdgeWeights map[int]float64
	// Epoch is the cloud's membership epoch at checkpoint time; zero in
	// an edge's record and in a version-2 file.
	Epoch int
	// Assignment maps device id → edge id as last reported to the cloud
	// on a sync round; nil in an edge's record and in a version-2 file.
	Assignment map[int]int
}

// encode serialises st. Tables are written in ascending id order so
// identical states produce identical bytes.
func (st State) encode() ([]byte, error) {
	if len(st.Name) > maxName {
		return nil, fmt.Errorf("checkpoint: name too long (%d bytes)", len(st.Name))
	}
	e := newEnc(versionState, 2+len(st.Name)+8+8+8*len(st.Model)+4+12*len(st.EdgeWeights)+8+4+8*len(st.Assignment))
	e.str(st.Name)
	e.u64(uint64(st.Round))
	e.u64(uint64(len(st.Model)))
	e.f64s(st.Model)
	e.u32(uint32(len(st.EdgeWeights)))
	for _, id := range sortedKeys(st.EdgeWeights) {
		e.u32(uint32(id))
		e.f64(st.EdgeWeights[id])
	}
	e.u64(uint64(st.Epoch))
	e.u32(uint32(len(st.Assignment)))
	for _, dev := range sortedKeys(st.Assignment) {
		e.u32(uint32(dev))
		e.u32(uint32(st.Assignment[dev]))
	}
	return e.finish(), nil
}

// decodeState parses a version 2 or 4 record.
func decodeState(p []byte) (State, error) {
	d, version, err := open(p, versionState, versionStateV2)
	if err != nil {
		return State{}, err
	}
	var st State
	st.Name = d.str()
	st.Round = int(d.u64())
	st.Model = d.f64s(d.u64())
	if n := d.count(uint64(d.u32()), 12); n > 0 {
		st.EdgeWeights = make(map[int]float64, n)
		for i := 0; i < n; i++ {
			id := d.u32()
			st.EdgeWeights[int(id)] = d.f64()
		}
	}
	if version == versionState {
		st.Epoch = int(d.u64())
		if n := d.count(uint64(d.u32()), 8); n > 0 {
			st.Assignment = make(map[int]int, n)
			for i := 0; i < n; i++ {
				dev := d.u32()
				st.Assignment[int(dev)] = int(d.u32())
			}
		}
	}
	if err := d.done(); err != nil {
		return State{}, err
	}
	return st, nil
}

// SaveState writes a coordinator snapshot to w.
func SaveState(w io.Writer, st State) error {
	rec, err := st.encode()
	if err != nil {
		return err
	}
	_, err = w.Write(rec)
	return err
}

// LoadState reads one coordinator snapshot: all of r.
func LoadState(r io.Reader) (State, error) {
	p, err := io.ReadAll(r)
	if err != nil {
		return State{}, fmt.Errorf("checkpoint: reading record: %w", err)
	}
	return decodeState(p)
}

// SaveStateFile atomically persists st under dir as the round-stamped
// "<name>-r<round>.ckpt" and returns the final path.
func SaveStateFile(dir string, st State) (string, error) {
	rec, err := st.encode()
	if err != nil {
		return "", err
	}
	return writeFileAtomic(dir, fmt.Sprintf("%s-r%06d.ckpt", st.Name, st.Round), rec)
}

// LoadLatestNamed is LoadLatest over one component's checkpoints, for a
// directory the cloud and one or more edges share.
func LoadLatestNamed(dir, name string) (st State, ok bool, err error) {
	return loadLatest(dir, func(n string) bool { return n == name })
}

// LoadLatest returns the valid state with the highest round (ties broken
// by file name) among the "<name>-r<round>.ckpt" files SaveStateFile left
// in dir, skipping torn or corrupt ones; ok is false when there is none.
func LoadLatest(dir string) (st State, ok bool, err error) {
	return loadLatest(dir, func(string) bool { return true })
}

// loadLatest tries the kept files newest round first and stops at the
// first record that verifies: a resume decodes one file, not them all.
func loadLatest(dir string, keep func(name string) bool) (State, bool, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return State{}, false, nil
	}
	if err != nil {
		return State{}, false, fmt.Errorf("checkpoint: reading dir: %w", err)
	}
	type candidate struct {
		file, name string
		round      int
	}
	var cands []candidate
	for _, e := range entries {
		base, isCkpt := strings.CutSuffix(e.Name(), ".ckpt")
		cut := strings.LastIndex(base, "-r")
		if !isCkpt || cut < 0 {
			continue
		}
		if round, err := strconv.Atoi(base[cut+2:]); err == nil && keep(base[:cut]) {
			cands = append(cands, candidate{e.Name(), base[:cut], round})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].round != cands[j].round {
			return cands[i].round > cands[j].round
		}
		return cands[i].file > cands[j].file
	})
	for _, c := range cands {
		// A file that is unreadable (no bytes), torn, corrupt or not the
		// record its name announces is skipped for the next newest.
		p, _ := os.ReadFile(filepath.Join(dir, c.file))
		if st, err := decodeState(p); err == nil && st.Name == c.name && st.Round == c.round {
			return st, true, nil
		}
	}
	return State{}, false, nil
}
