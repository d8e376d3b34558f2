package workloads

import (
	"fmt"
)

// Mix is one evaluated workload: what each of the 8 cores runs.
type Mix struct {
	Name string
	// PerCore names the profile each core executes (length = cores).
	PerCore []string
	// Multithreaded marks the PARSEC/STREAM workloads whose threads
	// share an address region (coherence traffic).
	Multithreaded bool
}

func mt(name string, cores int) Mix {
	pc := make([]string, cores)
	for i := range pc {
		pc[i] = name
	}
	return Mix{Name: name, PerCore: pc, Multithreaded: true}
}

func mp(name string, pairs ...string) Mix {
	var pc []string
	for _, p := range pairs {
		pc = append(pc, p, p) // "2x" each program, Table II
	}
	return Mix{Name: name, PerCore: pc}
}

// mixes are the Table II workloads plus every PARSEC program (for the
// Average(MT) aggregate) and STREAM.
var mixes = func() map[string]Mix {
	m := map[string]Mix{}
	for _, name := range PARSECNames() {
		m[name] = mt(name, 8)
	}
	m["stream"] = mt("stream", 8)
	m["MP1"] = mp("MP1", "mcf", "gemsFDTD", "astar", "sphinx3")
	m["MP2"] = mp("MP2", "mcf", "gromacs", "gemsFDTD", "h264ref")
	m["MP3"] = mp("MP3", "gromacs", "h264ref", "astar", "sphinx3")
	m["MP4"] = mp("MP4", "astar", "astar", "astar", "astar")
	m["MP5"] = mp("MP5", "gemsFDTD", "gemsFDTD", "gemsFDTD", "gemsFDTD")
	m["MP6"] = mp("MP6", "cactusADM", "soplex", "gemsFDTD", "astar")
	return m
}()

// MixByName returns a defined workload mix. A bare SPEC profile name
// resolves to a rate-mode mix of 8 copies (how Figures 1 and 2 run
// individual programs on the 8-core machine).
func MixByName(name string) (Mix, bool) {
	if m, ok := mixes[name]; ok {
		return m, true
	}
	if _, ok := profiles[name]; ok {
		m := mt(name, 8)
		m.Multithreaded = false // independent copies, no shared region
		return m, true
	}
	return Mix{}, false
}

// MustMix returns the mix or panics; for static experiment tables.
func MustMix(name string) Mix {
	m, ok := mixes[name]
	if !ok {
		panic(fmt.Sprintf("workloads: unknown mix %q", name))
	}
	return m
}

// TableIIMT lists the six multithreaded workloads of Table II, in the
// paper's order.
func TableIIMT() []string {
	return []string{"canneal", "dedup", "facesim", "fluidanimate", "freqmine", "streamcluster"}
}

// TableIIMP lists the six multiprogrammed mixes of Table II.
func TableIIMP() []string {
	return []string{"MP1", "MP2", "MP3", "MP4", "MP5", "MP6"}
}

// EvaluationSet is the 12-workload set of Figures 8-11.
func EvaluationSet() []string {
	return append(append([]string{}, TableIIMT()...), TableIIMP()...)
}

// Profiles resolves the mix's per-core profiles.
func (m Mix) Profiles() []Profile {
	out := make([]Profile, len(m.PerCore))
	for i, n := range m.PerCore {
		out[i] = MustByName(n)
	}
	return out
}

// AggregateRPKIWPKI returns the mix's paper-target request intensity
// (the arithmetic mean over cores, matching Table II's per-workload
// figures for homogeneous mixes).
func (m Mix) AggregateRPKIWPKI() (rpki, wpki float64) {
	ps := m.Profiles()
	for _, p := range ps {
		rpki += p.RPKI
		wpki += p.WPKI
	}
	n := float64(len(ps))
	return rpki / n, wpki / n
}
