package hfl

import (
	"bytes"
	"strings"
	"testing"
)

func TestHistoryCSVRoundTrip(t *testing.T) {
	h := &History{Strategy: "middle"}
	h.AppendPoint(EvalPoint{
		Step: 5, GlobalAcc: 0.25,
		PerClassAcc:    []float64{0.5, 0.125},
		EdgeAcc:        []float64{0.25, 0.375, 0.5},
		CommDeviceEdge: 20, CommEdgeCloud: 0,
		Phases:      PhaseTimes{Select: 0.125, Train: 1.5, EdgeAgg: 0.0625, CloudSync: 0, Eval: 0},
		SelUtilMean: 0.25, UpdNormMean: 1.5, BlendUtilMean: 0.125,
		EdgeDivMean: 0.5, EdgeDivMax: 0.75, FairnessJain: 0.875,
	})
	h.AppendPoint(EvalPoint{
		Step: 10, GlobalAcc: 0.625,
		PerClassAcc:    []float64{0.75, 0.5},
		EdgeAcc:        []float64{0.625, 0.5, 0.75},
		CommDeviceEdge: 40, CommEdgeCloud: 6,
		Phases:      PhaseTimes{Select: 0.25, Train: 3, EdgeAgg: 0.125, CloudSync: 0.5, Eval: 0.0625},
		SelUtilMean: 0.5, UpdNormMean: 2.25, BlendUtilMean: 0.25,
		EdgeDivMean: 0.25, EdgeDivMax: 0.375, FairnessJain: 0.9375,
	})

	var buf bytes.Buffer
	if err := h.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	header := strings.SplitN(buf.String(), "\n", 2)[0]
	for _, want := range []string{
		"comm_device_edge", "comm_edge_cloud",
		"phase_select_s", "phase_train_s", "phase_edge_agg_s",
		"phase_cloud_sync_s", "phase_eval_s",
		"sel_util_mean", "upd_norm_mean", "blend_util_mean",
		"edge_div_mean", "edge_div_max", "fairness_jain",
	} {
		if !strings.Contains(header, want) {
			t.Fatalf("header missing %q: %s", want, header)
		}
	}

	got, err := ReadHistoryCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("round-trip rows %d, want 2", got.Len())
	}
	for i := range h.Steps {
		if got.Steps[i] != h.Steps[i] || got.GlobalAcc[i] != h.GlobalAcc[i] {
			t.Fatalf("row %d step/acc: %d/%v, want %d/%v", i, got.Steps[i], got.GlobalAcc[i], h.Steps[i], h.GlobalAcc[i])
		}
		if got.CommDeviceEdge[i] != h.CommDeviceEdge[i] || got.CommEdgeCloud[i] != h.CommEdgeCloud[i] {
			t.Fatalf("row %d comm: %d/%d", i, got.CommDeviceEdge[i], got.CommEdgeCloud[i])
		}
		for _, pair := range [][2][]float64{
			{got.PhaseSelect, h.PhaseSelect},
			{got.PhaseTrain, h.PhaseTrain},
			{got.PhaseEdgeAgg, h.PhaseEdgeAgg},
			{got.PhaseCloudSync, h.PhaseCloudSync},
			{got.PhaseEval, h.PhaseEval},
			{got.SelUtilMean, h.SelUtilMean},
			{got.UpdNormMean, h.UpdNormMean},
			{got.BlendUtilMean, h.BlendUtilMean},
			{got.EdgeDivMean, h.EdgeDivMean},
			{got.EdgeDivMax, h.EdgeDivMax},
			{got.FairnessJain, h.FairnessJain},
		} {
			if pair[0][i] != pair[1][i] {
				t.Fatalf("row %d phase column: %v, want %v", i, pair[0][i], pair[1][i])
			}
		}
		for c := range h.PerClassAcc[i] {
			if got.PerClassAcc[i][c] != h.PerClassAcc[i][c] {
				t.Fatalf("row %d class %d: %v", i, c, got.PerClassAcc[i][c])
			}
		}
		for e := range h.EdgeAcc[i] {
			if got.EdgeAcc[i][e] != h.EdgeAcc[i][e] {
				t.Fatalf("row %d edge %d: %v", i, e, got.EdgeAcc[i][e])
			}
		}
	}
}

// Histories assembled via the pre-phase Append API must still write
// valid CSV (zero-filled new columns).
func TestHistoryCSVLegacyAppend(t *testing.T) {
	h := &History{}
	h.Append(5, 0.5, nil, nil)
	h.AppendComm(10, 0.75, nil, nil, 12, 2)
	var buf bytes.Buffer
	if err := h.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadHistoryCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || got.CommDeviceEdge[0] != 0 || got.CommDeviceEdge[1] != 12 || got.PhaseTrain[1] != 0 {
		t.Fatalf("legacy round-trip: %+v", got)
	}
}

// parentLayoutCSV is a history CSV as written before the stragglers
// column was dropped: the same columns plus "stragglers" after the
// communication counters.
const parentLayoutCSV = "step,global_acc,class0_acc,class1_acc,edge0_acc,comm_device_edge,comm_edge_cloud,stragglers," +
	"phase_select_s,phase_train_s,phase_edge_agg_s,phase_cloud_sync_s,phase_eval_s,sel_util_mean,upd_norm_mean," +
	"blend_util_mean,edge_div_mean,edge_div_max,fairness_jain,reject_rate\n" +
	"5,0.25000,0.50000,0.12500,0.37500,20,2,3,0.12500,1.50000,0.00000,0.00000,0.00000,0.50000,0.00000," +
	"0.00000,0.00000,0.00000,0.87500,0.06250\n" +
	"10,0.62500,0.75000,0.50000,0.62500,40,6,7,0.00000,3.00000,0.00000,0.25000,0.00000,0.00000,0.00000," +
	"0.00000,0.00000,2.50000,0.00000,0.00000\n"

// A CSV in the earlier layout still loads: its stragglers column is
// ignored and every other column reads back to the same text.
func TestReadHistoryCSVParentLayout(t *testing.T) {
	h, err := ReadHistoryCSV(strings.NewReader(parentLayoutCSV))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := h.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(parentLayoutCSV, "\n") {
		if fields := strings.Split(line, ","); len(fields) > 7 {
			line = strings.Join(append(fields[:7:7], fields[8:]...), ",")
		}
		want = append(want, line)
	}
	if got := buf.String(); got != strings.Join(want, "\n") {
		t.Fatalf("parent-layout CSV read back as\n%s\nwant\n%s", got, strings.Join(want, "\n"))
	}
}

// ReadHistoryCSV must also accept the pre-phase column layout.
func TestReadHistoryCSVOldLayout(t *testing.T) {
	csvText := "step,global_acc\n5,0.50000\n10,0.75000\n"
	got, err := ReadHistoryCSV(strings.NewReader(csvText))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || got.GlobalAcc[1] != 0.75 || got.CommDeviceEdge[1] != 0 {
		t.Fatalf("old layout: %+v", got)
	}
}
