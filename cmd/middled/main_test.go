package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"middle/internal/fednet"
	"middle/internal/robust"
)

func TestCheckDevicesArgs(t *testing.T) {
	cases := []struct {
		name     string
		cloud    string // "" = c:1, "-" = none
		edges    string
		strategy string
		from, to int
		mux      int
		wantErr  string // "" = accepted
	}{
		{name: "ok", edges: "a:1,b:2", strategy: "FedMes", from: 0, to: 9, mux: 1},
		{name: "ok mux", edges: "a:1", strategy: "MIDDLE", from: 2, to: 5, mux: 4},
		{name: "candidates at any mux", edges: "a:1,b:2,c:3", strategy: "MIDDLE", to: 9, mux: 4},
		{name: "no edges", edges: "", strategy: "MIDDLE", to: 9, mux: 1, wantErr: "-edgeaddrs"},
		{name: "no cloud", cloud: "-", edges: "a:1", strategy: "MIDDLE", to: 9, mux: 1, wantErr: "-cloud"},
		{name: "unknown strategy", edges: "a:1", strategy: "Middle", to: 9, mux: 1, wantErr: "unknown strategy"},
		{name: "mux zero", edges: "a:1", strategy: "MIDDLE", to: 9, mux: 0, wantErr: "-mux"},
		{name: "range past partition", edges: "a:1", strategy: "MIDDLE", from: 0, to: 10, mux: 1, wantErr: "device range"},
		{name: "negative from", edges: "a:1", strategy: "MIDDLE", from: -1, to: 3, mux: 1, wantErr: "device range"},
		{name: "inverted range", edges: "a:1", strategy: "MIDDLE", from: 5, to: 3, mux: 1, wantErr: "device range"},
	}
	for _, c := range cases {
		d := devicesOpts{edgeList: c.edges, from: c.from, to: c.to, mux: c.mux}
		cloud := map[string]string{"": "c:1", "-": ""}[c.cloud]
		strat, candidates, err := d.check(cloud, c.strategy, 10)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("%s: error %v, want one naming %q", c.name, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		addrs := strings.Split(c.edges, ",")
		if strat.Name() != c.strategy {
			t.Errorf("%s: got strategy %s", c.name, strat.Name())
		}
		// Every listed edge is a candidate, under its index as id.
		for e, cand := range candidates {
			if cand != (fednet.EdgeAddr{ID: e, Addr: addrs[e]}) {
				t.Errorf("%s: candidate %d is %+v, want edge %d at %s", c.name, e, cand, e, addrs[e])
			}
		}
		if len(candidates) != len(addrs) {
			t.Errorf("%s: %d failover candidates for %d edges", c.name, len(candidates), len(addrs))
		}
	}
}

// TestFlagSurface pins every flag's name and default against the list
// captured before the flags were bound into the fednet configs
// (testdata/flags.golden: name, tab, default). Help text is free.
func TestFlagSurface(t *testing.T) {
	golden, err := os.ReadFile("testdata/flags.golden")
	if err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("middled", flag.ContinueOnError)
	registerFlags(fs)
	var got strings.Builder
	fs.VisitAll(func(f *flag.Flag) { fmt.Fprintf(&got, "%s\t%s\n", f.Name, f.DefValue) })
	if got.String() != string(golden) {
		t.Fatalf("flag surface moved\n--- got\n%s--- want\n%s", got.String(), golden)
	}
}

func parse(t *testing.T, args ...string) *options {
	t.Helper()
	fs := flag.NewFlagSet("middled", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o := registerFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return o
}

// TestFlagsLandInConfigs: each role's flags arrive in the config struct
// that role hands to fednet.
func TestFlagsLandInConfigs(t *testing.T) {
	o := parse(t, "-role", "edge", "-id", "3", "-cloud", "c:1", "-addr", ":7103", "-k", "7",
		"-aggregator", "trimmed-mean", "-norm-bound", "2", "-sel-norm-cap", "9", "-checkpoint-dir", "ck",
		"-seed", "11", "-metrics-addr", ":0", "-slo", "default")
	wantEdge := fednet.EdgeConfig{
		EdgeID: 3, CloudAddr: "c:1", Addr: ":7103", K: 7, Aggregator: robust.AggTrimmedMean,
		Validate:         robust.ValidatorConfig{Enabled: true, NormBound: 2},
		SelectionNormCap: 9, CheckpointDir: "ck",
	}
	if !reflect.DeepEqual(o.edge, wantEdge) {
		t.Errorf("edge config\n got %+v\nwant %+v", o.edge, wantEdge)
	}
	if o.role != "edge" || o.Seed != 11 || o.Metrics.Addr != ":0" || o.Metrics.SLORules != "default" {
		t.Errorf("shared flags: role %q seed %d metrics %+v", o.role, o.Seed, o.Metrics)
	}

	o = parse(t, "-role", "cloud", "-edges", "4", "-rounds", "9", "-tc", "3", "-lease-interval", "250ms")
	wantCloud := fednet.CloudConfig{Edges: 4, Rounds: 9, CloudInterval: 3, LeaseInterval: 250 * time.Millisecond}
	if !reflect.DeepEqual(o.cloud, wantCloud) {
		t.Errorf("cloud config\n got %+v\nwant %+v", o.cloud, wantCloud)
	}
	if o.edge.Validate != (robust.ValidatorConfig{}) || o.edge.Aggregator != "" {
		t.Errorf("defaults: validator %+v aggregator %q, want both zero", o.edge.Validate, o.edge.Aggregator)
	}

	o = parse(t, "-role", "devices", "-cloud", "c:1", "-edgeaddrs", "a:1,b:2", "-from", "2", "-to", "5", "-p", "0.3", "-mux", "2",
		"-live-migration")
	if want := (devicesOpts{edgeList: "a:1,b:2", from: 2, to: 5, p: 0.3, mux: 2, liveMigration: true}); o.devices != want || o.edge.CloudAddr != "c:1" {
		t.Errorf("devices flags\n got %+v, cloud %q\nwant %+v, cloud c:1", o.devices, o.edge.CloudAddr, want)
	}
}

func TestBadAggregatorFailsAtParse(t *testing.T) {
	fs := flag.NewFlagSet("middled", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	registerFlags(fs)
	if err := fs.Parse([]string{"-aggregator", "bogus"}); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("-aggregator bogus: parse error %v, want one naming the value", err)
	}
}
