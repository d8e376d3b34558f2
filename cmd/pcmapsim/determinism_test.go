package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// runOnce executes the built binary and returns its stdout plus the
// JSON sidecar (empty when jsonName is "").
func runOnce(t *testing.T, jsonName string, args ...string) (stdout, jsonOut []byte) {
	t.Helper()
	var jsonPath string
	if jsonName != "" {
		jsonPath = filepath.Join(t.TempDir(), jsonName)
		args = append(args, "-json", jsonPath)
	}
	cmd := exec.Command(binPath, args...)
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		t.Fatalf("run %v: %v\nstderr: %s", args, err, errb.String())
	}
	if jsonPath != "" {
		data, err := os.ReadFile(jsonPath)
		if err != nil {
			t.Fatalf("reading JSON sidecar: %v", err)
		}
		jsonOut = data
	}
	return out.Bytes(), jsonOut
}

// TestOutputDeterminism is the end-to-end determinism regression guard:
// two full CLI invocations with identical flags (and therefore the same
// seed) must produce byte-identical stdout — and, for experiments, a
// byte-identical JSON series file. This is the property the
// nodeterminism analyzer enforces statically; here it is checked
// dynamically through the whole stack (engine, controllers, experiment
// harness, report formatting).
func TestOutputDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	cases := []struct {
		name string
		json string // sidecar filename, "" to skip
		args []string
	}{
		{"adhoc", "", []string{
			"-exp", "adhoc", "-workload", "MP4", "-variant", "RWoW-RDE",
			"-warmup", "500", "-measure", "4000"}},
		{"fig1-json", "series.json", []string{
			"-exp", "fig1", "-warmup", "500", "-measure", "4000"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out1, json1 := runOnce(t, tc.json, tc.args...)
			out2, json2 := runOnce(t, tc.json, tc.args...)
			if len(out1) == 0 {
				t.Fatal("no output produced")
			}
			if !bytes.Equal(out1, out2) {
				t.Errorf("stdout differs between identically-seeded runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", out1, out2)
			}
			if tc.json != "" && !bytes.Equal(json1, json2) {
				t.Errorf("JSON series differ between identically-seeded runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", json1, json2)
			}
		})
	}
}
