package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// runMainEnv makes the test binary stand in for the gcsim command: a
// child started with it set runs main on its own arguments.
const runMainEnv = "GCSIM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// gcsim runs the command with args and returns its stdout, stderr and
// exit code.
func gcsim(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatalf("gcsim %v: %v", args, err)
	}
	return out.String(), errb.String(), code
}

// mustRun runs gcsim and fails the test unless it exits 0.
func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	out, errOut, code := gcsim(t, args...)
	if code != 0 {
		t.Fatalf("gcsim %v exited %d\nstdout:\n%s\nstderr:\n%s", args, code, out, errOut)
	}
	return out
}

// checkGolden compares got with testdata/name.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the golden\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// TestScenarioGoldens pins the default command's report, serial,
// sharded and faulted.
func TestScenarioGoldens(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"scenario.golden", []string{"-n", "8", "-horizon", "2"}},
		{"parallel.golden", []string{"-n", "12", "-horizon", "2", "-parallel", "-shards", "3", "-workers", "1"}},
		{"faults.golden", []string{"-n", "16", "-horizon", "4", "-fault-drop", "0.1",
			"-fault-crash-every", "2", "-fault-rate-every", "2"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			checkGolden(t, tc.golden, mustRun(t, tc.args...))
		})
	}
}

// TestSweepGolden pins the sweep table and both artifacts. The worker
// count, elapsed time and output directory vary by host and are masked.
func TestSweepGolden(t *testing.T) {
	dir := t.TempDir()
	out := mustRun(t, "sweep", "-n", "16", "-topos", "ring,line", "-drivers", "randomwalk", "-horizon", "2", "-out", dir)
	mask := func(s string) string {
		s = strings.ReplaceAll(s, dir, "OUT")
		s = regexp.MustCompile(`across \d+ workers`).ReplaceAllString(s, "across W workers")
		s = regexp.MustCompile(`in [0-9.]+s\)`).ReplaceAllString(s, "in Ts)")
		s = regexp.MustCompile(`"workers": \d+`).ReplaceAllString(s, `"workers": W`)
		return regexp.MustCompile(`"elapsed_sec": [^,]+`).ReplaceAllString(s, `"elapsed_sec": T`)
	}
	checkGolden(t, "sweep.golden", mask(out))
	for _, name := range []string{"sweep_results.csv", "sweep_report.json"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, name+".golden", mask(string(data)))
	}
}

// TestBadTopologyFailsCleanly: a bad flag value is a one-line gcsim
// error and exit 1, never a panic.
func TestBadTopologyFailsCleanly(t *testing.T) {
	for _, args := range [][]string{
		{"-topo", "torus"},
		{"realtime", "-topo", "torus"},
	} {
		_, errOut, code := gcsim(t, args...)
		if code != 1 || !strings.HasPrefix(errOut, "gcsim: ") || strings.Contains(errOut, "panic") {
			t.Errorf("gcsim %v: exit %d, stderr %q; want exit 1 and a gcsim: message", args, code, errOut)
		}
	}
}

// TestDefaultGridWidthMatchesSweep: every command picks the most square
// grid, so n=24 runs as 4x6 instead of failing on a width of 5.
func TestDefaultGridWidthMatchesSweep(t *testing.T) {
	out := mustRun(t, "-n", "24", "-topo", "grid", "-horizon", "1")
	if !strings.Contains(out, "topo=Grid") {
		t.Fatalf("not a grid run:\n%s", out)
	}
	// The analytic bound grows with the grid's diameter, so the two
	// commands agree on it only if they build the same grid.
	dir := t.TempDir()
	mustRun(t, "sweep", "-n", "24", "-topos", "grid", "-drivers", "randomwalk", "-horizon", "1", "-out", dir)
	csv, err := os.ReadFile(filepath.Join(dir, "sweep_results.csv"))
	if err != nil {
		t.Fatal(err)
	}
	row := strings.Split(strings.Split(string(csv), "\n")[1], ",")
	bound, err := strconv.ParseFloat(row[8], 64)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("bound=%.6f", bound); !strings.Contains(out, want) {
		t.Fatalf("default grid run lacks the sweep's %s:\n%s", want, out)
	}
}

// TestRealtimeRefusesVolatileChurn: the refusal comes from the runtime's
// own Supports check, not from the command line.
func TestRealtimeRefusesVolatileChurn(t *testing.T) {
	_, errOut, code := gcsim(t, "realtime", "-churn", "volatile", "-horizon", "0.1")
	if code != 1 || !strings.Contains(errOut, "gcsim: rt: volatile churn") {
		t.Fatalf("exit %d, stderr %q; want the rt.Supports refusal", code, errOut)
	}
}

// TestRealtime runs the wall-clock runtime briefly: the default ring
// and the two-chains topology, which every harness installs from its
// edge list.
func TestRealtime(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock run")
	}
	for _, args := range [][]string{
		{"realtime", "-n", "8", "-horizon", "0.3"},
		{"realtime", "-n", "8", "-horizon", "0.3", "-topo", "twochains"},
	} {
		out := mustRun(t, args...)
		lines := strings.Split(strings.TrimSpace(out), "\n")
		if !strings.HasPrefix(lines[len(lines)-1], "ok:") {
			t.Errorf("gcsim %v did not end with ok:\n%s", args, out)
		}
	}
}
