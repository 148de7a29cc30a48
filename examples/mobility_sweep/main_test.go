package main

import (
	"os"
	"strings"
	"testing"
)

// TestExampleRuns runs the example end to end at 10 rounds, so the façade
// names it uses are pinned by use in tier 1, and checks the output's
// shape: a bar per strategy and P, then the bound at each P.
func TestExampleRuns(t *testing.T) {
	rounds = 10
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = f
	main()
	os.Stdout = stdout
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	s := string(out)
	if !strings.HasPrefix(s, "final global accuracy vs mobility\n") ||
		strings.Count(s, "| 0.") != 9 || strings.Count(s, "  bound=") != 3 {
		t.Fatalf("output is not 9 bars and 3 bounds:\n%s", s)
	}
}
