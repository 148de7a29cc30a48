// Command middleplot renders experiment data files as ASCII line charts
// in the terminal. It reads every format the toolchain writes: series
// CSVs (middlesim -csv), per-run history CSVs (History.WriteCSV), and
// tsdb dumps (middlesim -tsdb-out), auto-detected from the leading
// bytes. History files additionally get phase-time, communication and
// learning-dynamics telemetry charts; tsdb dumps chart the dashboard's
// panels (tsdb.Panels), or exactly the series matching -series globs.
//
//	middleplot -in results/fig6_mnist.csv -smooth 5
//	middleplot -in results/run_mnist.history.csv
//	middleplot -in results/run.tsdb.json -series 'hfl_*'
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"

	"middle"
)

func main() {
	var (
		in       = flag.String("in", "", "series CSV, history CSV, or tsdb dump file (required)")
		width    = flag.Int("width", 78, "chart width")
		height   = flag.Int("height", 18, "chart height")
		smooth   = flag.Int("smooth", 1, "smoothing window")
		title    = flag.String("title", "", "chart title (default: file name)")
		selGlobs = flag.String("series", "", "tsdb dumps: comma-separated series name globs to chart (default: the dashboard panels)")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "middleplot: -in is required")
		flag.Usage()
		os.Exit(2)
	}
	raw, err := os.ReadFile(*in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "middleplot: %v\n", err)
		os.Exit(1)
	}
	t := *title
	if t == "" {
		t = *in
	}
	if isTSDBDump(raw) {
		plotTSDB(raw, *in, t, *selGlobs, *width, *height, *smooth)
		return
	}
	if isHistoryCSV(raw) {
		plotHistory(raw, *in, t, *width, *height, *smooth)
		return
	}
	series, err := middle.ReadSeriesCSV(bytes.NewReader(raw))
	if err != nil {
		fmt.Fprintf(os.Stderr, "middleplot: parsing %s: %v\n", *in, err)
		os.Exit(1)
	}
	fmt.Print(middle.LineChart(t, smoothAll(series, *smooth), *width, *height))
}

// isHistoryCSV sniffs the header line: History.WriteCSV always leads
// with "step,global_acc", which no series CSV does (those lead with a
// "step" column per series pair).
func isHistoryCSV(raw []byte) bool {
	return bytes.HasPrefix(raw, []byte("step,global_acc"))
}

func plotHistory(raw []byte, path, title string, width, height, smooth int) {
	h, err := middle.ReadHistoryCSV(bytes.NewReader(raw))
	if err != nil {
		fmt.Fprintf(os.Stderr, "middleplot: parsing %s: %v\n", path, err)
		os.Exit(1)
	}
	mk := func(name string, y []float64) middle.Series {
		return middle.Series{Name: name, X: h.Steps, Y: y}
	}
	nonzero := func(ys ...[]float64) bool {
		for _, y := range ys {
			for _, v := range y {
				if v != 0 {
					return true
				}
			}
		}
		return false
	}
	fmt.Print(middle.LineChart(title+": accuracy",
		smoothAll([]middle.Series{mk("global_acc", h.GlobalAcc)}, smooth), width, height))
	if nonzero(h.PhaseSelect, h.PhaseTrain, h.PhaseEdgeAgg, h.PhaseCloudSync, h.PhaseEval) {
		fmt.Print(middle.LineChart(title+": cumulative phase seconds", []middle.Series{
			mk("select", h.PhaseSelect), mk("train", h.PhaseTrain),
			mk("edge_agg", h.PhaseEdgeAgg), mk("cloud_sync", h.PhaseCloudSync),
			mk("eval", h.PhaseEval),
		}, width, height))
	}
	if nonzero(toFloat(h.CommDeviceEdge), toFloat(h.CommEdgeCloud)) {
		fmt.Print(middle.LineChart(title+": cumulative model transfers", []middle.Series{
			mk("device_edge", toFloat(h.CommDeviceEdge)),
			mk("edge_cloud", toFloat(h.CommEdgeCloud)),
		}, width, height))
	}
	if nonzero(h.SelUtilMean, h.UpdNormMean, h.BlendUtilMean) {
		fmt.Print(middle.LineChart(title+": learning dynamics (running means)", []middle.Series{
			mk("sel_util", h.SelUtilMean), mk("upd_norm", h.UpdNormMean),
			mk("blend_util", h.BlendUtilMean),
		}, width, height))
	}
	if nonzero(h.EdgeDivMean, h.EdgeDivMax, h.FairnessJain) {
		fmt.Print(middle.LineChart(title+": divergence and fairness", []middle.Series{
			mk("edge_div_mean", h.EdgeDivMean), mk("edge_div_max", h.EdgeDivMax),
			mk("fairness_jain", h.FairnessJain),
		}, width, height))
	}
}

func toFloat(in []int64) []float64 {
	out := make([]float64, len(in))
	for i, v := range in {
		out[i] = float64(v)
	}
	return out
}

func smoothAll(series []middle.Series, window int) []middle.Series {
	if window <= 1 {
		return series
	}
	for i := range series {
		series[i].Y = middle.Smooth(series[i].Y, window)
	}
	return series
}
