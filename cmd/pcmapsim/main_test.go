package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var binPath string

// TestMain builds the pcmapsim binary once so the flag-validation tests
// can exercise real exit codes rather than in-process approximations.
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "pcmapsim")
	if err != nil {
		panic(err)
	}
	binPath = filepath.Join(dir, "pcmapsim")
	out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput()
	if err != nil {
		panic("build failed: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestInvalidFlagsExitNonZero runs the binary with each class of invalid
// input and asserts it exits non-zero with a message naming the problem,
// instead of running a long simulation on garbage or dying on a panic.
func TestInvalidFlagsExitNonZero(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring expected on stderr
	}{
		{"bad format", []string{"-format", "xml"}, `invalid -format "xml"`},
		{"zero measure", []string{"-measure", "0"}, "invalid -measure 0"},
		{"negative ratio", []string{"-exp", "adhoc", "-ratio", "-1"}, "invalid -ratio"},
		{"drift out of range", []string{"-exp", "adhoc", "-drift", "1.5"}, "invalid -drift"},
		{"NaN drift", []string{"-exp", "adhoc", "-drift", "NaN"}, "invalid -drift"},
		{"NaN ratio", []string{"-exp", "adhoc", "-ratio", "NaN"}, "invalid -ratio"},
		{"infinite ratio", []string{"-exp", "adhoc", "-ratio", "+Inf"}, "invalid -ratio"},
		{"ratio below one read tick", []string{"-exp", "adhoc", "-ratio", "1e-30"}, "invalid -ratio"},
		{"unknown experiment", []string{"-exp", "fig99"}, `unknown experiment "fig99"`},
		{"unknown variant", []string{"-exp", "adhoc", "-variant", "NoSuch"}, `unknown variant "NoSuch"`},
		{"unknown reliability variant", []string{"-exp", "reliability", "-variant", "NoSuch"}, `unknown variant "NoSuch"`},
		{"unparseable flag", []string{"-measure", "lots"}, "invalid value"},
		{"resume without cache", []string{"-exp", "adhoc", "-resume"}, "invalid -resume"},
		// A flag that no selected experiment reads is rejected rather
		// than ignored. Small budgets keep a regression from running
		// full sweeps.
		{"ratio outside adhoc", small("-exp", "fig1", "-ratio", "4"), "invalid -ratio: no selected experiment"},
		{"pausing outside adhoc", small("-exp", "pausing", "-pausing"), "invalid -pausing: no selected experiment"},
		{"endurance outside adhoc", small("-exp", "reliability", "-endurance", "4"), "invalid -endurance: no selected experiment"},
		{"drift outside adhoc", small("-exp", "fig1", "-drift", "0.01"), "invalid -drift: no selected experiment"},
		{"verify outside adhoc", small("-exp", "fig1", "-verify"), "invalid -verify: no selected experiment"},
		{"trace outside adhoc", small("-exp", "fig1", "-trace", "t.json"), "invalid -trace: no selected experiment"},
		{"tracesample outside adhoc", small("-exp", "fig1", "-tracesample", "2"), "invalid -tracesample: no selected experiment"},
		{"workload outside adhoc and reliability", small("-exp", "fig1", "-workload", "MP4"), "invalid -workload: no selected experiment"},
		{"variant outside adhoc and reliability", small("-exp", "fig2,table2", "-variant", "Baseline"), "invalid -variant: no selected experiment"},
		{"avgmt outside its figures", small("-exp", "fig1", "-avgmt"), "invalid -avgmt: no selected experiment"},
		{"avgmt with adhoc", small("-exp", "adhoc", "-avgmt"), "invalid -avgmt: no selected experiment"},
		{"format with adhoc", small("-exp", "adhoc", "-format", "csv"), "invalid -format: no selected experiment"},
		{"json with adhoc", small("-exp", "adhoc", "-json", "x.json"), "invalid -json: no selected experiment"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stderr strings.Builder
			cmd := exec.Command(binPath, tc.args...)
			cmd.Stderr = &stderr
			err := cmd.Run()
			var ee *exec.ExitError
			if !errors.As(err, &ee) {
				t.Fatalf("want non-zero exit, got err=%v stderr=%q", err, stderr.String())
			}
			if ee.ExitCode() == 0 {
				t.Fatalf("exit code 0 for invalid input")
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Fatalf("stderr %q does not mention %q", stderr.String(), tc.want)
			}
		})
	}
}

// small appends tiny instruction budgets to args.
func small(args ...string) []string {
	return append(args, "-warmup", "100", "-measure", "1000")
}

// TestUnknownWorkloadFails asserts an unknown workload mix is rejected
// by the runner with a clear error rather than silently simulating an
// empty system.
func TestUnknownWorkloadFails(t *testing.T) {
	var stderr strings.Builder
	cmd := exec.Command(binPath, "-exp", "adhoc", "-workload", "NOPE", "-measure", "1000")
	cmd.Stderr = &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("want non-zero exit, got err=%v stderr=%q", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "NOPE") {
		t.Fatalf("stderr %q does not name the bad workload", stderr.String())
	}
}

// TestTraceWithResumeSimulates: a cached result carries no timeline, so
// a traced run with -resume must simulate again. The cold and the
// resumed traced runs print the same report and write the same number
// of timeline records.
func TestTraceWithResumeSimulates(t *testing.T) {
	dir := t.TempDir()
	run := func(trace string, extra ...string) (stdout, records string) {
		t.Helper()
		args := append([]string{"-exp", "adhoc", "-workload", "MP4", "-variant", "Baseline",
			"-warmup", "200", "-measure", "2000", "-cache", filepath.Join(dir, "cache"),
			"-trace", filepath.Join(dir, trace)}, extra...)
		var out, stderr strings.Builder
		cmd := exec.Command(binPath, args...)
		cmd.Stdout, cmd.Stderr = &out, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("%v: %v\n%s", args, err, stderr.String())
		}
		m := regexp.MustCompile(`\((\d+) timeline records\)`).FindStringSubmatch(stderr.String())
		if m == nil {
			t.Fatalf("stderr %q reports no timeline record count", stderr.String())
		}
		return out.String(), m[1]
	}
	coldOut, coldRecords := run("cold.json")
	resumedOut, resumedRecords := run("resumed.json", "-resume")
	if resumedOut != coldOut {
		t.Errorf("resumed traced report differs:\n--- cold ---\n%s\n--- resumed ---\n%s", coldOut, resumedOut)
	}
	if resumedRecords != coldRecords || coldRecords == "0" {
		t.Errorf("timeline records: cold %s, resumed %s; want the same nonzero count", coldRecords, resumedRecords)
	}
}

// TestAdhocInterruptExits130: SIGINT during an adhoc run stops it the
// way it stops a sweep, exiting 130 with the hint to resume from the
// cache. The cache directory appears only after the signal handler is
// installed, so the test waits for it before interrupting.
func TestAdhocInterruptExits130(t *testing.T) {
	cache := filepath.Join(t.TempDir(), "cache")
	var stderr strings.Builder
	cmd := exec.Command(binPath, "-exp", "adhoc", "-workload", "MP4", "-variant", "RWoW-RDE",
		"-warmup", "1000", "-measure", "50000000", "-cache", cache)
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	deadline := time.After(10 * time.Second)
	for {
		if _, err := os.Stat(cache); err == nil {
			break
		}
		select {
		case <-deadline:
			cmd.Process.Kill()
			t.Fatal("the run never created its cache directory")
		case <-time.After(5 * time.Millisecond):
		}
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	var err error
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("the interrupted run did not exit")
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 130 {
		t.Fatalf("exit %v, want status 130; stderr %q", err, stderr.String())
	}
	if want := "-cache " + cache + " -resume"; !strings.Contains(stderr.String(), want) {
		t.Fatalf("stderr %q lacks the resume hint %q", stderr.String(), want)
	}
}
