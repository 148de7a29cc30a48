package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets a test run the real main: with MIDDLEPLOT_ARGS set the
// test binary is middleplot with those arguments.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("MIDDLEPLOT_ARGS"); ok {
		os.Args = append([]string{"middleplot"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func middleplot(t *testing.T, args string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "MIDDLEPLOT_ARGS="+args)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return out.String(), errb.String(), cmd.ProcessState.ExitCode()
}

func TestMissingInIsAUsageError(t *testing.T) {
	stdout, stderr, code := middleplot(t, "-smooth 3")
	if code != 2 || stdout != "" || !strings.HasPrefix(stderr, "middleplot: -in is required\n") ||
		!strings.Contains(stderr, "Usage of") || !strings.Contains(stderr, "-series") {
		t.Fatalf("exit %d, stdout %q, stderr %q; want exit 2, the reason and the usage", code, stdout, stderr)
	}
}

func TestUnreadableAndSeriesInput(t *testing.T) {
	if _, stderr, code := middleplot(t, "-in "+filepath.Join(t.TempDir(), "missing.csv")); code != 1 || !strings.HasPrefix(stderr, "middleplot: ") {
		t.Fatalf("missing file: exit %d, stderr %q; want exit 1 and one middleplot: line", code, stderr)
	}
	csv := filepath.Join(t.TempDir(), "series.csv")
	if err := os.WriteFile(csv, []byte("step,acc\n1,0.5\n2,0.75\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if stdout, stderr, code := middleplot(t, "-in "+csv+" -title curve"); code != 0 || !strings.Contains(stdout, "curve") {
		t.Fatalf("series CSV: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}
