package main

import (
	"strings"
	"testing"
)

func TestCheckDevicesArgs(t *testing.T) {
	cases := []struct {
		name     string
		edges    string
		strategy string
		from, to int
		mux      int
		failover bool
		wantErr  string // "" = accepted
	}{
		{name: "ok", edges: "a:1,b:2", strategy: "FedMes", from: 0, to: 9, mux: 1},
		{name: "ok mux", edges: "a:1", strategy: "MIDDLE", from: 2, to: 5, mux: 4},
		{name: "failover at any mux", edges: "a:1,b:2", strategy: "MIDDLE", to: 9, mux: 4, failover: true},
		{name: "no edges", edges: "", strategy: "MIDDLE", to: 9, mux: 1, wantErr: "-edgeaddrs"},
		{name: "unknown strategy", edges: "a:1", strategy: "Middle", to: 9, mux: 1, wantErr: "unknown strategy"},
		{name: "mux zero", edges: "a:1", strategy: "MIDDLE", to: 9, mux: 0, wantErr: "-mux"},
		{name: "range past partition", edges: "a:1", strategy: "MIDDLE", from: 0, to: 10, mux: 1, wantErr: "device range"},
		{name: "negative from", edges: "a:1", strategy: "MIDDLE", from: -1, to: 3, mux: 1, wantErr: "device range"},
		{name: "inverted range", edges: "a:1", strategy: "MIDDLE", from: 5, to: 3, mux: 1, wantErr: "device range"},
	}
	for _, c := range cases {
		addrs, strat, candidates, err := checkDevicesArgs(c.edges, c.strategy, c.from, c.to, 10, c.mux, c.failover)
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
		if strat.Name() != c.strategy || len(addrs) != strings.Count(c.edges, ",")+1 {
			t.Errorf("%s: got strategy %s and %d edges", c.name, strat.Name(), len(addrs))
		}
		want := 0 // every listed edge is a candidate, but only with -failover
		if c.failover {
			want = len(addrs)
		}
		if len(candidates) != want {
			t.Errorf("%s: %d failover candidates for %d edges with -failover=%v", c.name, len(candidates), len(addrs), c.failover)
		}
	}
}
