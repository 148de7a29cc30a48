package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test run the real main: with TRACEGEN_ARGS set the
// test binary is tracegen with those arguments.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("TRACEGEN_ARGS"); ok {
		os.Args = append([]string{"tracegen"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func tracegen(t *testing.T, args string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "TRACEGEN_ARGS="+args)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return out.String(), errb.String(), cmd.ProcessState.ExitCode()
}

// TestBadFlagsExitTwoWithOneLine: values the mobility constructors panic
// on are refused up front — usage exit code, one line naming the flag,
// no goroutine trace.
func TestBadFlagsExitTwoWithOneLine(t *testing.T) {
	for args, flag := range map[string]string{
		"-edges 0":   "-edges",
		"-devices 0": "-devices",
		"-p 1.5":     "-p",
		"-steps -1":  "-steps",
		"-model waypoint -speedmin 0.5 -speedmax 0.1": "-speedmin",
		"-model waypoint -gridw 0":                    "-gridw",
	} {
		stdout, stderr, code := tracegen(t, args)
		if code != 2 || stdout != "" || strings.Count(stderr, "\n") != 1 ||
			!strings.HasPrefix(stderr, "tracegen: ") || !strings.Contains(stderr, flag) {
			t.Errorf("tracegen %s: exit %d, stdout %q, stderr %q; want exit 2 and one line naming %s", args, code, stdout, stderr, flag)
		}
	}
}

func TestGeneratesATrace(t *testing.T) {
	stdout, stderr, code := tracegen(t, "-edges 3 -devices 4 -steps 5 -p 0.5")
	if code != 0 || !strings.Contains(stderr, "5 steps, 4 devices, 3 edges") || stdout == "" {
		t.Fatalf("exit %d, stderr %q, %d bytes of trace", code, stderr, len(stdout))
	}
}
