package hfl

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// History records the evaluation series of one simulation run. Slices
// are indexed by evaluation event, not by time step; Steps holds the
// time step of each event.
type History struct {
	Strategy          string
	EmpiricalMobility float64
	// PeakResidentModels is the run's high-water mark of materialized
	// device model vectors (the device count under the dense store; the
	// cohort-scale figure the lazy store bounds). Filled by Run.
	PeakResidentModels int

	Steps       []int
	GlobalAcc   []float64
	PerClassAcc [][]float64 // nil entries when per-class eval is off
	EdgeAcc     [][]float64 // nil entries when edge eval is off
	// CommDeviceEdge/CommEdgeCloud are cumulative model-transfer counts
	// on each link class at each evaluation event.
	CommDeviceEdge []int64
	CommEdgeCloud  []int64
	// Phase breakdown: cumulative wall-clock seconds per StepOnce phase
	// at each evaluation event (the in-progress eval is not included in
	// its own PhaseEval entry).
	PhaseSelect    []float64
	PhaseTrain     []float64
	PhaseEdgeAgg   []float64
	PhaseCloudSync []float64
	PhaseEval      []float64
	// Learning-dynamics telemetry at each evaluation event: running
	// means of the Eq. 12 selection utility, accumulated-update norm
	// ‖Δw_m‖ and Eq. 9 blend utility since the start of the run, the
	// per-edge divergence ‖w_n − w_c‖ (mean and max across edges at the
	// eval instant) and Jain's fairness index over per-device training
	// counts.
	SelUtilMean   []float64
	UpdNormMean   []float64
	BlendUtilMean []float64
	EdgeDivMean   []float64
	EdgeDivMax    []float64
	FairnessJain  []float64
	// RejectRate is the cumulative fraction of updates offered to
	// Eq. 6/Eq. 7 that validation rejected, at each evaluation event
	// (always 0 with validation off).
	RejectRate []float64
}

// EvalPoint is one evaluation event's full record.
type EvalPoint struct {
	Step        int
	GlobalAcc   float64
	PerClassAcc []float64
	EdgeAcc     []float64
	// Cumulative counters at this event.
	CommDeviceEdge int64
	CommEdgeCloud  int64
	Phases         PhaseTimes
	// Learning-dynamics telemetry (see the History field docs).
	SelUtilMean   float64
	UpdNormMean   float64
	BlendUtilMean float64
	EdgeDivMean   float64
	EdgeDivMax    float64
	FairnessJain  float64
	RejectRate    float64
}

// Append records one evaluation event.
func (h *History) Append(step int, acc float64, perClass, edgeAcc []float64) {
	h.AppendComm(step, acc, perClass, edgeAcc, 0, 0)
}

// AppendComm records one evaluation event with communication counters.
func (h *History) AppendComm(step int, acc float64, perClass, edgeAcc []float64, commDE, commEC int64) {
	h.AppendPoint(EvalPoint{
		Step: step, GlobalAcc: acc, PerClassAcc: perClass, EdgeAcc: edgeAcc,
		CommDeviceEdge: commDE, CommEdgeCloud: commEC,
	})
}

// AppendPoint records one evaluation event with all columns.
func (h *History) AppendPoint(p EvalPoint) {
	h.Steps = append(h.Steps, p.Step)
	h.GlobalAcc = append(h.GlobalAcc, p.GlobalAcc)
	h.PerClassAcc = append(h.PerClassAcc, p.PerClassAcc)
	h.EdgeAcc = append(h.EdgeAcc, p.EdgeAcc)
	h.CommDeviceEdge = append(h.CommDeviceEdge, p.CommDeviceEdge)
	h.CommEdgeCloud = append(h.CommEdgeCloud, p.CommEdgeCloud)
	h.PhaseSelect = append(h.PhaseSelect, p.Phases.Select)
	h.PhaseTrain = append(h.PhaseTrain, p.Phases.Train)
	h.PhaseEdgeAgg = append(h.PhaseEdgeAgg, p.Phases.EdgeAgg)
	h.PhaseCloudSync = append(h.PhaseCloudSync, p.Phases.CloudSync)
	h.PhaseEval = append(h.PhaseEval, p.Phases.Eval)
	h.SelUtilMean = append(h.SelUtilMean, p.SelUtilMean)
	h.UpdNormMean = append(h.UpdNormMean, p.UpdNormMean)
	h.BlendUtilMean = append(h.BlendUtilMean, p.BlendUtilMean)
	h.EdgeDivMean = append(h.EdgeDivMean, p.EdgeDivMean)
	h.EdgeDivMax = append(h.EdgeDivMax, p.EdgeDivMax)
	h.FairnessJain = append(h.FairnessJain, p.FairnessJain)
	h.RejectRate = append(h.RejectRate, p.RejectRate)
}

// Len returns the number of recorded evaluation events.
func (h *History) Len() int { return len(h.Steps) }

// FinalAcc returns the last recorded global accuracy (0 if none).
func (h *History) FinalAcc() float64 {
	if len(h.GlobalAcc) == 0 {
		return 0
	}
	return h.GlobalAcc[len(h.GlobalAcc)-1]
}

// TimeToAccuracy returns the first time step at which the global
// accuracy reached target, and whether it ever did. This is the paper's
// convergence-speed metric (§6.1.2).
func (h *History) TimeToAccuracy(target float64) (step int, ok bool) {
	for i, a := range h.GlobalAcc {
		if a >= target {
			return h.Steps[i], true
		}
	}
	return 0, false
}

// WriteCSV emits the history as CSV: step, global accuracy, any
// per-class and per-edge columns present in the first event, then the
// cumulative communication counters, per-phase wall-clock and
// learning-dynamics columns.
func (h *History) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"step", "global_acc"}
	nClass, nEdge := 0, 0
	if len(h.PerClassAcc) > 0 && h.PerClassAcc[0] != nil {
		nClass = len(h.PerClassAcc[0])
		for c := 0; c < nClass; c++ {
			header = append(header, fmt.Sprintf("class%d_acc", c))
		}
	}
	if len(h.EdgeAcc) > 0 && h.EdgeAcc[0] != nil {
		nEdge = len(h.EdgeAcc[0])
		for e := 0; e < nEdge; e++ {
			header = append(header, fmt.Sprintf("edge%d_acc", e))
		}
	}
	header = append(header,
		"comm_device_edge", "comm_edge_cloud",
		"phase_select_s", "phase_train_s", "phase_edge_agg_s",
		"phase_cloud_sync_s", "phase_eval_s",
		"sel_util_mean", "upd_norm_mean", "blend_util_mean",
		"edge_div_mean", "edge_div_max", "fairness_jain", "reject_rate")
	if err := cw.Write(header); err != nil {
		return err
	}
	for i := range h.Steps {
		row := []string{strconv.Itoa(h.Steps[i]), formatF(h.GlobalAcc[i])}
		for c := 0; c < nClass; c++ {
			row = append(row, formatF(h.PerClassAcc[i][c]))
		}
		for e := 0; e < nEdge; e++ {
			row = append(row, formatF(h.EdgeAcc[i][e]))
		}
		row = append(row,
			strconv.FormatInt(h.CommDeviceEdge[i], 10),
			strconv.FormatInt(h.CommEdgeCloud[i], 10),
			formatF(h.floatAt(h.PhaseSelect, i)),
			formatF(h.floatAt(h.PhaseTrain, i)),
			formatF(h.floatAt(h.PhaseEdgeAgg, i)),
			formatF(h.floatAt(h.PhaseCloudSync, i)),
			formatF(h.floatAt(h.PhaseEval, i)),
			formatF(h.floatAt(h.SelUtilMean, i)),
			formatF(h.floatAt(h.UpdNormMean, i)),
			formatF(h.floatAt(h.BlendUtilMean, i)),
			formatF(h.floatAt(h.EdgeDivMean, i)),
			formatF(h.floatAt(h.EdgeDivMax, i)),
			formatF(h.floatAt(h.FairnessJain, i)),
			formatF(h.floatAt(h.RejectRate, i)))
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// floatAt tolerates histories built before the phase and telemetry
// columns existed (hand-assembled in tests or decoded from old JSON).
func (h *History) floatAt(s []float64, i int) float64 {
	if i < len(s) {
		return s[i]
	}
	return 0
}

func formatF(v float64) string { return strconv.FormatFloat(v, 'f', 5, 64) }

// ReadHistoryCSV parses a CSV written by WriteCSV back into a History.
// The strategy name and empirical mobility are not part of the CSV and
// stay zero. Columns are read by name, in any order: a missing optional
// column reads as zero and an unknown one (such as the stragglers column
// earlier writers emitted) is ignored.
func ReadHistoryCSV(r io.Reader) (*History, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("hfl: reading history CSV: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("hfl: history CSV has no header")
	}
	header := rows[0]
	col := make(map[string]int, len(header))
	nClass, nEdge := 0, 0
	for i, name := range header {
		col[name] = i
		if strings.HasPrefix(name, "class") && strings.HasSuffix(name, "_acc") {
			nClass++
		}
		if strings.HasPrefix(name, "edge") && strings.HasSuffix(name, "_acc") {
			nEdge++
		}
	}
	for _, need := range []string{"step", "global_acc"} {
		if _, ok := col[need]; !ok {
			return nil, fmt.Errorf("hfl: history CSV missing %q column", need)
		}
	}
	getF := func(row []string, name string) (float64, error) {
		i, ok := col[name]
		if !ok {
			return 0, nil
		}
		return strconv.ParseFloat(row[i], 64)
	}
	h := &History{}
	for line, row := range rows[1:] {
		if len(row) != len(header) {
			return nil, fmt.Errorf("hfl: history CSV row %d has %d fields, want %d", line+2, len(row), len(header))
		}
		var p EvalPoint
		if p.Step, err = strconv.Atoi(row[col["step"]]); err != nil {
			return nil, fmt.Errorf("hfl: history CSV row %d: %w", line+2, err)
		}
		fields := []struct {
			name string
			dst  *float64
		}{
			{"global_acc", &p.GlobalAcc},
			{"phase_select_s", &p.Phases.Select},
			{"phase_train_s", &p.Phases.Train},
			{"phase_edge_agg_s", &p.Phases.EdgeAgg},
			{"phase_cloud_sync_s", &p.Phases.CloudSync},
			{"phase_eval_s", &p.Phases.Eval},
			{"sel_util_mean", &p.SelUtilMean},
			{"upd_norm_mean", &p.UpdNormMean},
			{"blend_util_mean", &p.BlendUtilMean},
			{"edge_div_mean", &p.EdgeDivMean},
			{"edge_div_max", &p.EdgeDivMax},
			{"fairness_jain", &p.FairnessJain},
			{"reject_rate", &p.RejectRate},
		}
		for _, f := range fields {
			if *f.dst, err = getF(row, f.name); err != nil {
				return nil, fmt.Errorf("hfl: history CSV row %d %s: %w", line+2, f.name, err)
			}
		}
		for _, f := range []struct {
			name string
			dst  *int64
		}{
			{"comm_device_edge", &p.CommDeviceEdge},
			{"comm_edge_cloud", &p.CommEdgeCloud},
		} {
			if i, ok := col[f.name]; ok {
				if *f.dst, err = strconv.ParseInt(row[i], 10, 64); err != nil {
					return nil, fmt.Errorf("hfl: history CSV row %d %s: %w", line+2, f.name, err)
				}
			}
		}
		if nClass > 0 {
			p.PerClassAcc = make([]float64, nClass)
			for c := 0; c < nClass; c++ {
				if p.PerClassAcc[c], err = getF(row, fmt.Sprintf("class%d_acc", c)); err != nil {
					return nil, fmt.Errorf("hfl: history CSV row %d class %d: %w", line+2, c, err)
				}
			}
		}
		if nEdge > 0 {
			p.EdgeAcc = make([]float64, nEdge)
			for e := 0; e < nEdge; e++ {
				if p.EdgeAcc[e], err = getF(row, fmt.Sprintf("edge%d_acc", e)); err != nil {
					return nil, fmt.Errorf("hfl: history CSV row %d edge %d: %w", line+2, e, err)
				}
			}
		}
		h.AppendPoint(p)
	}
	return h, nil
}
