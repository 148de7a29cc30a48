package main

import (
	"strings"
	"testing"
)

func TestValidateScale(t *testing.T) {
	ok := scaleOpts{devices: 1000, edges: 10, k: 2, tc: 5, mux: 1}
	if err := validateScale(ok); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	cap := ok
	cap.residentCap = 20 // == cohort: allowed
	if err := validateScale(cap); err != nil {
		t.Fatalf("cap == cohort rejected: %v", err)
	}

	for name, tc := range map[string]struct {
		mutate func(*scaleOpts)
		want   string
	}{
		"cap below cohort":                  {func(o *scaleOpts) { o.residentCap = 19 }, "cohort"},
		"more edges":                        {func(o *scaleOpts) { o.edges = 2000 }, "exceed"},
		"zero k":                            {func(o *scaleOpts) { o.k = 0 }, "positive"},
		"zero mux":                          {func(o *scaleOpts) { o.mux = 0 }, "≥ 1"},
		"huge deployment":                   {func(o *scaleOpts) { o.mux = 4; o.devices = 100000 }, "cap -devices"},
		"cap with deployment":               {func(o *scaleOpts) { o.mux = 2; o.residentCap = 100 }, "cannot combine"},
		"live migration without deployment": {func(o *scaleOpts) { o.liveMigration = true }, "requires the deployment path"},
	} {
		o := ok
		tc.mutate(&o)
		err := validateScale(o)
		if err == nil {
			t.Errorf("%s: accepted %+v", name, o)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.want)
		}
	}
}
