package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
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
		{"negative retries", []string{"-exp", "adhoc", "-retries", "-2"}, "invalid -retries"},
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
