package hfl

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadHistoryCSV: ReadHistoryCSV never panics, and a History it
// accepts survives WriteCSV → ReadHistoryCSV. The CSV carries five
// decimals, so the first trip rounds the input to what the CSV can say;
// after it the rewritten file is byte-identical, and so the History read
// back from it is unchanged.
func FuzzReadHistoryCSV(f *testing.F) {
	h := &History{}
	h.AppendPoint(EvalPoint{Step: 5, GlobalAcc: 0.25, PerClassAcc: []float64{0.5, 0}, EdgeAcc: []float64{0.125},
		CommDeviceEdge: 12, CommEdgeCloud: 4, Phases: PhaseTimes{Train: 0.03125},
		SelUtilMean: 0.5, FairnessJain: 1, RejectRate: 0.0625})
	h.AppendPoint(EvalPoint{Step: 10, GlobalAcc: 0.75, PerClassAcc: []float64{1, 0.5}, EdgeAcc: []float64{0.875},
		CommDeviceEdge: 24, CommEdgeCloud: 8, EdgeDivMax: 2.5})
	var buf bytes.Buffer
	if err := h.WriteCSV(&buf); err != nil {
		f.Fatal(err)
	}
	written := buf.String()
	f.Add(written)
	f.Add(written[:len(written)/2])
	f.Add(parentLayoutCSV)
	f.Add("step,global_acc\n1,0.123456789\n2,NaN\n3,-0\n")
	f.Add("step,global_acc,class7_acc,edgeX_acc\n1,+Inf,1e300,5\n")
	f.Add("global_acc\n0.5\n")
	f.Add("step,global_acc\n1,2,3\n")
	f.Fuzz(func(t *testing.T, in string) {
		h1, err := ReadHistoryCSV(strings.NewReader(in))
		if err != nil {
			return
		}
		csv1 := writeHistory(t, h1)
		h2, err := ReadHistoryCSV(strings.NewReader(csv1))
		if err != nil {
			t.Fatalf("re-reading a written history: %v\n%s", err, csv1)
		}
		if csv2 := writeHistory(t, h2); csv2 != csv1 {
			t.Fatalf("round trip changed the CSV:\n%s\nthen\n%s", csv1, csv2)
		}
	})
}

func writeHistory(t *testing.T, h *History) string {
	t.Helper()
	var buf bytes.Buffer
	if err := h.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}
