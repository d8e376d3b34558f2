package main

import (
	"bufio"
	"bytes"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// parent side re-executes os.Executable with -child, which here is the
// test binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestMetricsDeclared checks that BENCHMARK.json declares exactly the
// workloads and metrics the benchmark emits, with the same units, and
// that names and counts stay inside the contract's limits.
func TestMetricsDeclared(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for i, w := range benchWorkloads {
		if i >= len(names) || names[i] != w.name {
			t.Errorf("BENCHMARK.json workloads %v, want %s at %d", names, w.name, i)
		}
	}
	check := func(kind string, got []specMetric, want []metricDef, limit int) {
		if len(want) > limit {
			t.Errorf("%s: %d metrics, limit %d", kind, len(want), limit)
		}
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark emits %d", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, d := range want {
			if !metricName.MatchString(d.name) || seen[d.name] {
				t.Errorf("%s: bad or duplicate name %q", kind, d.name)
			}
			seen[d.name] = true
			if i < len(got) && (got[i].Name != d.name || got[i].Unit != d.unit) {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark emits %s (%s)",
					kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
		for _, m := range got {
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("%s: %s: better %q", kind, m.Name, m.Better)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, 16)
	check("per_layer", spec.PerLayer, perLayer, 128)
	for _, m := range spec.EndToEnd {
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	i := slices.IndexFunc(spec.EndToEnd, func(m specMetric) bool { return m.Name == "setup_s" })
	if i < 0 || spec.EndToEnd[i].Unit != "s" || spec.EndToEnd[i].Better != "lower" {
		t.Error("BENCHMARK.json needs setup_s in s, lower is better")
	}
}

// TestFoldFixture folds the checked-in stacks and checks each sample's
// bucket.
func TestFoldFixture(t *testing.T) {
	f, err := os.Open("testdata/stacks.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	n := 0
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		want, stack, _ := strings.Cut(line, " ")
		if !slices.Contains(buckets, want) {
			t.Errorf("fixture names unknown bucket %q", want)
		}
		if got := bucketOf(strings.Split(stack, ";")); got != want {
			t.Errorf("bucketOf(%s) = %s, want %s", stack, got, want)
		}
		n++
	}
	if n == 0 {
		t.Fatal("empty fixture")
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{4, 2}, 1.5, 4.5},
		{[]float64{7}, 7, 7},
	} {
		if q1, q3 := quartiles(tc.xs); q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, by float64) []float64 {
		out := slices.Clone(xs)
		for i := range out {
			out[i] += by
		}
		return out
	}
	noisy := []float64{60, 140, 100, 80, 120, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name           string
		parent, change []float64
		higherBetter   bool
		want           string
	}{
		{"same runs", parent, parent, true, unchanged},
		{"small drift", parent, shift(parent, -3), true, unchanged},
		{"faster", parent, shift(parent, 20), true, improved},
		{"lower is better", parent, shift(parent, -20), false, improved},
		{"slower", parent, shift(parent, -20), true, worse},
		{"noisy parent", noisy, shift(noisy, 1), true, unresolved},
		{"noisy parent, much slower change", noisy, shift(noisy, -40), true, worse},
		{"noisy but every run better", noisy, shift(noisy, 200), true, improved},
	} {
		if got, _ := verdict(tc.parent, tc.change, tc.higherBetter, 0.1); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestFlippedDigestFails runs one repetition against a wrong expected
// digest: every simulation of it must count as failed.
func TestFlippedDigestFails(t *testing.T) {
	w, _ := workloadByName("mp-compute")
	s := newSession(w, 3, 0.02, nil)
	r, _, ok := s.rep(false)
	if !ok || s.failed != 0 {
		t.Fatalf("reference repetition failed")
	}
	s.want = strings.Repeat("0", len(r.Digest))
	if _, _, ok := s.rep(false); ok || s.failed != w.sims() || s.attempted != 2*w.sims() {
		t.Errorf("flipped digest: ok=%t failed=%d attempted=%d, want a failed repetition", ok, s.failed, s.attempted)
	}
}

// TestSmoke measures every workload at 2% of its budgets, and one
// traced pass.
func TestSmoke(t *testing.T) {
	table, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range benchWorkloads {
		var out bytes.Buffer
		res := measure(w, 1, 0, 0.02, false, table, &out)
		if !res.Correct || res.Failed != 0 || len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %+v\n%s", w.name, res, out.String())
		}
		for name, m := range res.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: %s = %g, want > 0", w.name, name, m.Value)
			}
		}
	}

	w, _ := workloadByName("write-verify")
	var out bytes.Buffer
	res := measure(w, 1, 1, 0.05, true, table, &out)
	if !res.Correct || len(res.Metrics) != len(perLayer) {
		t.Fatalf("traced: %+v\n%s", res, out.String())
	}
	share := 0.0
	for _, b := range buckets {
		share += res.Metrics[b+".cpu_share"].Value
	}
	if share < 0.95 {
		t.Errorf("cpu shares sum to %g, want at least 0.95\n%s", share, out.String())
	}
}
