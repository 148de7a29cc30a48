package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"middle/internal/core"
	"middle/internal/data"
	"middle/internal/experiments"
	"middle/internal/fednet"
	"middle/internal/hfl"
	"middle/internal/mobility"
	"middle/internal/nn"
	"middle/internal/obs/flight"
	"middle/internal/tensor"
)

// heldMobility blocks the cluster at a round boundary: its second Step
// (the cloud's, after round 1) announces itself on held and waits for
// release.
type heldMobility struct {
	mobility.Model
	calls         int
	held, release chan struct{}
}

func (h *heldMobility) Step() []int {
	if h.calls++; h.calls == 2 {
		close(h.held)
		<-h.release
	}
	return h.Model.Step()
}

// within waits for ch, failing the test after a generous bound.
func within(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// TestQuorumBreachLeavesABundleMiddlediagExplains is the SLO-breach and
// forensics gate on the deployment. A fednet cluster whose quorum (2)
// exceeds its cohort (one device) misses quorum every round by itself,
// so under experiments.CLI — the bootstrap middled and middlesim share —
// a rule that forbids quorum misses must fire, stream an slo_breach
// event, leave one complete flight bundle, and middlediag's report on
// that bundle must name the rule, the fault counter and where the CPU
// went. The run is held after round 1 until the tsdb has scraped the
// counter, so the rule's delta has a point before the later misses.
func TestQuorumBreachLeavesABundleMiddlediagExplains(t *testing.T) {
	flightDir := t.TempDir()
	var events bytes.Buffer
	c := &experiments.CLI{Name: "middlediag-test", Logf: t.Logf, EventSink: &events}
	fs := flag.NewFlagSet("middlediag-test", flag.ContinueOnError)
	c.RegisterFlags(fs)
	if err := fs.Parse([]string{
		"-tsdb-interval", "5ms", "-flight-dir", flightDir, "-profile-interval", "1h",
		"-slo", "quorum_misses: delta(fednet_quorum_misses_total) <= 0",
	}); err != nil {
		t.Fatal(err)
	}
	stop := c.Start("role", "cluster")
	defer stop()
	reg := c.M.Registry()
	scraped := make(chan struct{}, 1)
	reg.GaugeFunc("middlediag_test_scrapes", func() float64 {
		select {
		case scraped <- struct{}{}:
		default:
		}
		return 0
	})

	prof := data.FastImageProfile(4)
	train := data.GenerateImagesSplit(prof, 400, 3, 5)
	part := data.PartitionMajorClass(train, 1, 200, 0.85, 6)
	mob := &heldMobility{Model: mobility.NewStatic(1, 1), held: make(chan struct{}), release: make(chan struct{})}
	cl, err := fednet.StartCluster(fednet.ClusterConfig{
		Rounds: 4, K: 2, LocalSteps: 200, BatchSize: 32, CloudInterval: 2,
		Strategy: core.NewGeneral(), Partition: part,
		Factory: func(rng *tensor.RNG) *nn.Network {
			return nn.NewNetwork(nn.NewFlatten(), nn.NewLinear(train.SampleSize(), 512, rng), nn.NewReLU(),
				nn.NewLinear(512, train.Classes, rng))
		},
		Optimizer: hfl.OptimizerSpec{Kind: hfl.OptSGD, LR: 0.05},
		Mobility:  mob, Seed: 3,
		Quorum: 2, // one device can never meet it
		Obs:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	within(t, mob.held, "the round-1 boundary")
	// Three scrapes while held: at least one started and finished inside
	// the hold, so the store has the counter before rounds 2–4 move it.
	for i := 0; i < 3; i++ {
		within(t, scraped, "a tsdb scrape")
	}
	close(mob.release)
	if err := cl.Wait(); err != nil {
		t.Fatal(err)
	}

	if breached := c.Finish(nil); !reflect.DeepEqual(breached, []string{"quorum_misses"}) {
		t.Fatalf("Finish reported breached rules %v, want exactly [quorum_misses]", breached)
	}
	if !strings.Contains(events.String(), `"event":"slo_breach"`) {
		t.Fatalf("no slo_breach event reached the event sink:\n%s", events.String())
	}

	bundles, err := filepath.Glob(filepath.Join(flightDir, "bundle-*slo_breach_quorum_misses*"))
	if err != nil || len(bundles) != 1 {
		t.Fatalf("breach bundles %v (err %v), want exactly one", bundles, err)
	}
	for _, f := range []string{"cpu.pprof", "heap.pprof", "goroutines.txt", "tsdb.json", "events.jsonl", "slo.json", "manifest.json"} {
		if st, err := os.Stat(filepath.Join(bundles[0], f)); err != nil || st.Size() == 0 {
			t.Errorf("bundle is missing %s (err %v)", f, err)
		}
	}
	if partial, _ := filepath.Glob(filepath.Join(flightDir, "*.partial")); len(partial) > 0 {
		t.Errorf("non-atomic capture left %v behind", partial)
	}
	if all, err := flight.Bundles(flightDir); err != nil || len(all) != 1 {
		t.Errorf("flight dir holds bundles %v (err %v), want only the breach's", all, err)
	}

	var out bytes.Buffer
	report(&out, bundles[0], 5, 20)
	rep := out.String()
	if !strings.Contains(rep, "breached: quorum_misses") {
		t.Errorf("report does not name the breached rule:\n%s", rep)
	}
	faults := rep[strings.Index(rep, "== fault / retry / reject counters =="):]
	if end := strings.Index(faults[1:], "\n== "); end >= 0 {
		faults = faults[:end+1]
	}
	if !strings.Contains(faults, "fednet_quorum_misses_total") {
		t.Errorf("fault counters do not list fednet_quorum_misses_total:\n%s", rep)
	}
	if !regexp.MustCompile(`(?m)^(local_train|edge_agg|cloud_sync|comm|unattributed) +[0-9.]+s +[0-9.]+%$`).MatchString(rep) {
		t.Errorf("report attributes no CPU to a phase:\n%s", rep)
	}
}

// TestReportKeepsLastFiniteValue: a gauge whose last scrape was
// non-finite ends its dump series with null. The report must show the
// series' last finite value, not read the null as 0.
func TestReportKeepsLastFiniteValue(t *testing.T) {
	dir := t.TempDir()
	dump := `{"tsdb":1,"interval_ms":1000,"series":[` +
		`{"name":"fednet_membership_epoch","points":[[1000,2],[2000,3],[3000,null]]},` +
		`{"name":"fednet_stranded_devices","points":[[1000,0],[2000,0],[3000,0]]}]}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "tsdb.json"), []byte(dump), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	report(&out, dir, 5, 20)
	rep := out.String()
	membership := rep[strings.Index(rep, "== membership / self-healing =="):]
	if !regexp.MustCompile(`(?m)^fednet_membership_epoch +3$`).MatchString(membership) {
		t.Fatalf("membership section does not give the epoch's last finite value 3:\n%s", rep)
	}
}
