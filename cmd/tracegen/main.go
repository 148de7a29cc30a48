// Command tracegen generates, inspects and converts device-mobility
// traces — the role the ONE simulator plays for the paper's evaluation.
//
//	tracegen -model markov -edges 10 -devices 100 -p 0.5 -steps 1500 -out trace.txt
//	tracegen -model waypoint -gridw 5 -gridh 2 -devices 100 -steps 1500 -out trace.txt
//	tracegen -inspect trace.txt
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"middle"
	"middle/internal/obs"
)

func main() {
	var (
		model    = flag.String("model", "markov", "mobility model: markov|waypoint")
		edges    = flag.Int("edges", 10, "number of edges (markov)")
		gridW    = flag.Int("gridw", 5, "grid width in edges (waypoint)")
		gridH    = flag.Int("gridh", 2, "grid height in edges (waypoint)")
		devices  = flag.Int("devices", 100, "number of devices")
		p        = flag.Float64("p", 0.5, "global mobility P (markov)")
		speedMin = flag.Float64("speedmin", 0.02, "min speed per step (waypoint)")
		speedMax = flag.Float64("speedmax", 0.08, "max speed per step (waypoint)")
		pause    = flag.Int("pause", 2, "max pause steps at waypoints (waypoint)")
		steps    = flag.Int("steps", 1500, "trace length in time steps")
		seed     = flag.Int64("seed", 1, "random seed")
		out      = flag.String("out", "", "output file (default stdout)")
		inspect  = flag.String("inspect", "", "inspect an existing trace file instead of generating")
		manifest = flag.String("manifest", "", "also write a reproducibility manifest (seed, flags, build revision) to this JSON file")
	)
	flag.Parse()

	if *inspect != "" {
		inspectTrace(*inspect)
		return
	}

	// The mobility constructors panic on these; a flag typo deserves one
	// line and the usage exit code.
	var bad string
	switch waypoint := *model == "waypoint"; {
	case *devices < 1:
		bad = fmt.Sprintf("-devices must be ≥ 1, got %d", *devices)
	case *steps < 0:
		bad = fmt.Sprintf("-steps must be ≥ 0, got %d", *steps)
	case !waypoint && *edges < 1:
		bad = fmt.Sprintf("-edges must be ≥ 1, got %d", *edges)
	case !waypoint && !(*p >= 0 && *p <= 1):
		bad = fmt.Sprintf("-p must be in [0, 1], got %v", *p)
	case waypoint && (*gridW < 1 || *gridH < 1):
		bad = fmt.Sprintf("-gridw and -gridh must be ≥ 1, got %d×%d", *gridW, *gridH)
	case waypoint && !(*speedMin >= 0 && *speedMax >= *speedMin):
		bad = fmt.Sprintf("need 0 ≤ -speedmin ≤ -speedmax, got [%v, %v]", *speedMin, *speedMax)
	}
	if bad != "" {
		fmt.Fprintln(os.Stderr, "tracegen:", bad)
		os.Exit(2)
	}

	var mob middle.MobilityModel
	switch *model {
	case "markov":
		mob = middle.NewMarkovMobility(*edges, *devices, *p, *seed)
	case "waypoint":
		mob = middle.NewRandomWaypointMobility(*gridW, *gridH, *devices, *speedMin, *speedMax, *pause, *seed)
	default:
		fatalf("unknown model %q (markov|waypoint)", *model)
	}
	tr := middle.RecordTrace(mob, *steps)

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatalf("creating %s: %v", *out, err)
		}
		defer f.Close()
		w = f
	}
	if err := tr.Write(w); err != nil {
		fatalf("writing trace: %v", err)
	}
	fmt.Fprintf(os.Stderr, "tracegen: %d steps, %d devices, %d edges, empirical mobility %.4f\n",
		tr.Steps(), tr.NumDevices(), tr.Edges, tr.EmpiricalMobility())
	if *manifest != "" {
		writeManifest(*manifest, *out, *seed, tr.EmpiricalMobility())
	}
}

// writeManifest records everything needed to regenerate the trace: the
// full flag set (defaults included), the seed, the trace destination,
// the generation time and the binary's VCS revision as embedded by the
// Go toolchain (empty outside a VCS build).
func writeManifest(path, out string, seed int64, empiricalP float64) {
	flags := map[string]string{}
	flag.VisitAll(func(f *flag.Flag) { flags[f.Name] = f.Value.String() })
	m := map[string]any{
		"command":     os.Args,
		"flags":       flags,
		"seed":        seed,
		"out":         out,
		"empirical_p": empiricalP,
		"generated":   time.Now().Format(time.RFC3339),
	}
	for k, v := range obs.ReadBuild().Map() {
		m[k] = v
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		fatalf("encoding manifest: %v", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatalf("writing manifest %s: %v", path, err)
	}
	fmt.Fprintf(os.Stderr, "tracegen: wrote manifest %s\n", path)
}

func inspectTrace(path string) {
	f, err := os.Open(path)
	if err != nil {
		fatalf("opening %s: %v", path, err)
	}
	defer f.Close()
	tr, err := middle.ReadTrace(f)
	if err != nil {
		fatalf("parsing %s: %v", path, err)
	}
	fmt.Printf("trace: %d steps, %d devices, %d edges\n", tr.Steps(), tr.NumDevices(), tr.Edges)
	fmt.Printf("empirical mobility P: %.4f\n", tr.EmpiricalMobility())
	fmt.Printf("mean edge sojourn: %.2f steps\n", tr.MeanSojourn())
	fmt.Println("edge occupancy:")
	for e, share := range tr.OccupancyShares() {
		fmt.Printf("  edge %2d: %5.2f%%\n", e, 100*share)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tracegen: "+format+"\n", args...)
	os.Exit(1)
}
