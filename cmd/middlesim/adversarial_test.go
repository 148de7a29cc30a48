package main

import (
	"io"
	"os"
	"regexp"
	"strconv"
	"testing"

	"middle"
)

// TestAdversarialRunSmoke drives -exp run with 20% sign-flip adversaries
// against the robust stack (trimmed mean, norm bound, selection norm cap)
// through the command's own flags: the run must keep a usable model, the
// validator must reject updates, and the run's registry — the one
// -metrics-addr serves — must count them.
func TestAdversarialRunSmoke(t *testing.T) {
	o, err := parse(t, "-exp", "run", "-task", "mnist", "-steps", "100",
		"-adversary-fraction", "0.2", "-adversary-scale", "1",
		"-aggregator", "trimmed-mean", "-norm-bound", "3", "-sel-norm-cap", "10",
		"-metrics-addr", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	o.size = middle.Scale(o.Scale)

	out := captureStdout(t, func() {
		stop := o.Start("experiment", o.exp)
		defer stop()
		o.run()
		o.Finish(nil)
	})

	m := regexp.MustCompile(`rejected updates: (\d+)`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no rejection summary in the run's output:\n%s", out)
	}
	if n, _ := strconv.Atoi(m[1]); n == 0 {
		t.Fatalf("the summary reports no rejected updates:\n%s", out)
	}
	reg := o.M.Registry()
	rejected := reg.Counter("robust_rejected_updates_total", "reason", "nonfinite").Value() +
		reg.Counter("robust_rejected_updates_total", "reason", "norm").Value()
	if rejected == 0 {
		t.Fatal("robust_rejected_updates_total stayed 0 on the run's registry")
	}
	// Ten-class chance is 0.1; this configuration ends near 0.67.
	if acc := reg.Gauge("hfl_global_accuracy").Value(); acc < 0.5 {
		t.Fatalf("final accuracy %.4f under 20%% sign-flip adversaries, want ≥ 0.5:\n%s", acc, out)
	}
}

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = saved }()
	done := make(chan string)
	go func() {
		b, err := io.ReadAll(r)
		if err != nil {
			t.Error(err)
		}
		done <- string(b)
	}()
	fn()
	w.Close()
	return <-done
}
