package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// record is one line of an -out file: a workload's result at one seed.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

func appendRecord(path string, r record) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// specMetric is one metric's declaration in BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the repository root, which is the
// working directory or its parent (when run from bench/).
func loadSpec() (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile("BENCHMARK.json")
	if errors.Is(err, os.ErrNotExist) {
		b, err = os.ReadFile("../BENCHMARK.json")
	}
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return s, nil
}

// Verdicts of one (workload, end-to-end metric) pair.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	worse      = "worse"
	unresolved = "unresolved"
)

// verdict compares a change's runs of one metric with its parent's,
// run i of each forming a pair, by the rule of the choosing-metrics
// guide (section 8):
//
//   - improved: the change wins at least nine tenths of the pairs, ties
//     counting for neither, and the medians differ, in the change's
//     favour, by more than the parent's quartile spread;
//   - worse: the change's median is worse than the parent's by more
//     than bound, as a share of the parent's median;
//   - unresolved: the parent's spread, as a share of its median, is
//     wider than bound, and not every change run beats every parent
//     run;
//   - unchanged: otherwise.
//
// It also returns the share of pairs the change won.
func verdict(parent, change []float64, higherBetter bool, bound float64) (string, float64) {
	better := func(a, b float64) bool {
		if higherBetter {
			return a > b
		}
		return a < b
	}
	pairs := min(len(parent), len(change))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	winFrac := float64(wins) / float64(max(pairs, 1))
	mp, mc := median(parent), median(change)
	q1, q3 := quartiles(parent)
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	worseBy := (mc - mp) / math.Abs(mp)
	if higherBetter {
		worseBy = -worseBy
	}
	switch {
	case winFrac >= 0.9 && better(mc, mp) && math.Abs(mc-mp) > q3-q1:
		return improved, winFrac
	case worseBy > bound:
		return worse, winFrac
	case (q3-q1)/math.Abs(mp) > bound && !allBetter:
		return unresolved, winFrac
	}
	return unchanged, winFrac
}

// series collects one metric's per-run values for one workload, in
// run order.
func series(recs []record, workload string, trace bool, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Workload == workload && r.Trace == trace {
			if m, ok := r.Result.Metrics[metric]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// compare prints, per workload and end-to-end metric, both sides'
// medians and quartiles, the change's paired win share and the
// verdict; then the per-layer medians of the traced runs and their
// change. It fails when any pair is worse or the change failed more
// operations.
func compare(parentPath, changePath string, out io.Writer) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	parent, err := readRecords(parentPath)
	if err != nil {
		return err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return err
	}
	nWorse := 0
	fmt.Fprintf(out, "%-13s %-20s %-34s %-34s %5s  %s\n", "workload", "metric",
		"parent median [q1 q3] n", "change median [q1 q3] n", "wins", "verdict")
	for _, w := range benchWorkloads {
		pf, pa := failures(parent, w.name)
		cf, ca := failures(change, w.name)
		if pa == 0 || ca == 0 {
			continue
		}
		for _, m := range spec.EndToEnd {
			p, c := series(parent, w.name, false, m.Name), series(change, w.name, false, m.Name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			v, wins := verdict(p, c, m.Better == "higher", m.Bound)
			if v == worse {
				nWorse++
			}
			fmt.Fprintf(out, "%-13s %-20s %-34s %-34s %5.2f  %s\n", w.name, m.Name, summary(p), summary(c), wins, v)
		}
		fmt.Fprintf(out, "%-13s %-20s %-34s %-34s\n", w.name, "failed/attempted",
			fmt.Sprintf("%d/%d", pf, pa), fmt.Sprintf("%d/%d", cf, ca))
		if cf*pa > pf*ca {
			nWorse++
		}
	}

	fmt.Fprintf(out, "\nper-layer (traced runs)\n%-13s %-32s %14s %14s %9s\n", "workload", "metric", "parent", "change", "delta")
	for _, w := range benchWorkloads {
		for _, m := range spec.PerLayer {
			p, c := series(parent, w.name, true, m.Name), series(change, w.name, true, m.Name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			mp, mc := median(p), median(c)
			delta := "-"
			if mp != 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(mc-mp)/math.Abs(mp))
			}
			fmt.Fprintf(out, "%-13s %-32s %14.6g %14.6g %9s\n", w.name, m.Name, mp, mc, delta)
		}
	}
	if nWorse > 0 {
		return fmt.Errorf("%d (workload, metric) pairs are worse", nWorse)
	}
	return nil
}

func failures(recs []record, workload string) (failed, attempted int) {
	for _, r := range recs {
		if r.Workload == workload {
			failed += r.Result.Failed
			attempted += r.Result.Attempted
		}
	}
	return failed, attempted
}

func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g %.5g] %d", median(xs), q1, q3, len(xs))
}
