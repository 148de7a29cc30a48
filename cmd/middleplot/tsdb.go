package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"strings"

	"middle"
	"middle/internal/obs/tsdb"
)

// isTSDBDump sniffs a tsdb dump file: Store.WriteDump always leads
// with {"tsdb" (the version tag is the first struct field).
func isTSDBDump(raw []byte) bool {
	return bytes.HasPrefix(bytes.TrimLeft(raw, " \t\r\n"), []byte(`{"tsdb"`))
}

// plotTSDB charts the series matching seriesGlobs, or with none given
// every panel of tsdb.Panels the dump has a series for.
func plotTSDB(raw []byte, path, title, seriesGlobs string, width, height, smooth int) {
	dump, err := tsdb.ReadDump(bytes.NewReader(raw))
	if err != nil {
		fmt.Fprintf(os.Stderr, "middleplot: parsing %s: %v\n", path, err)
		os.Exit(1)
	}
	toSeries := func(patterns []string) []middle.Series {
		var out []middle.Series
		for _, sd := range dump {
			matched := false
			for _, p := range patterns {
				if tsdb.Match(p, sd.Name) {
					matched = true
					break
				}
			}
			if !matched || len(sd.Points) == 0 {
				continue
			}
			s := middle.Series{Name: sd.Name}
			for _, pt := range sd.Points {
				if math.IsNaN(pt.V) { // a non-finite sample
					continue
				}
				// X is seconds since the series' first sample.
				s.X = append(s.X, int((pt.T-sd.Points[0].T)/1000))
				s.Y = append(s.Y, pt.V)
			}
			if len(s.X) > 0 {
				out = append(out, s)
			}
		}
		return out
	}
	panels := tsdb.Panels
	if seriesGlobs != "" {
		patterns := strings.Split(seriesGlobs, ",")
		for i := range patterns {
			patterns[i] = strings.TrimSpace(patterns[i])
		}
		panels = []tsdb.Panel{{Series: patterns}}
	}
	plotted := 0
	for _, p := range panels {
		if sel := toSeries(p.Series); len(sel) > 0 {
			heading := title
			if p.Title != "" {
				heading += ": " + p.Title
			}
			fmt.Print(middle.LineChart(heading+" (seconds since start)", smoothAll(sel, smooth), width, height))
			plotted++
		}
	}
	if plotted == 0 {
		fmt.Fprintf(os.Stderr, "middleplot: no matching series in %s (%d stored; try -series '*')\n", path, len(dump))
		os.Exit(1)
	}
}
