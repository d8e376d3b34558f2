// Package workloads provides calibrated synthetic models of the
// paper's benchmark programs (SPEC CPU 2006, PARSEC-2, STREAM). The
// real suites are proprietary binaries run under Gem5 in the paper;
// per the substitution methodology in DESIGN.md we model each program
// as a statistical memory-request generator reproducing its published
// observable properties:
//
//   - PCM read/write intensity (RPKI/WPKI, Table II),
//   - the dirty-word distribution of its write-backs (Figure 2,
//     including the silent 0-word bucket),
//   - the 32%-average same-offset correlation between successive
//     write-backs (Section IV-C2),
//   - row-buffer locality and footprint.
//
// Everything a PCMap mechanism reacts to is in those properties.
package workloads

import (
	"fmt"
	"sort"
)

// Profile is one application's statistical model.
type Profile struct {
	Name string

	// MemOpsPerKI is the number of loads+stores per 1000 instructions
	// reaching the L1 (the rest are the instruction "gap").
	MemOpsPerKI float64
	// StoreFrac is the fraction of memory ops that are stores.
	StoreFrac float64
	// BaseCPI is the cycles-per-instruction of the non-memory
	// instruction stream on the 4-wide core (>= 0.25).
	BaseCPI float64

	// RPKI/WPKI are the Table II calibration targets: PCM reads and
	// write-backs per kilo-instruction.
	RPKI, WPKI float64

	// Locality mixture: the remaining probability mass (after the
	// PCM-bound shares derived from RPKI/WPKI) splits between the L1,
	// L2 and LLC reuse pools in these relative weights.
	L1Weight, L2Weight, LLCWeight float64

	// FootprintLines is the size of the streamed main-memory region in
	// cache lines.
	FootprintLines uint64
	// RowLocality is the probability a PCM-bound access continues
	// sequentially (row-buffer friendly) rather than jumping.
	RowLocality float64

	// DirtyWordDist[k] is the probability a write-back changed exactly
	// k 8-byte words (k=0 is a silent store), Figure 2.
	DirtyWordDist [9]float64
	// SameOffsetCorr is the probability that a new line's write
	// pattern starts at the same word offset as the previous one.
	SameOffsetCorr float64
	// OffsetSkew in (0,1] shapes where write patterns start within the
	// line: P(offset k) proportional to OffsetSkew^k. Real programs
	// cluster updates at low offsets (headers, counters, struct
	// prefixes) — the clustering the paper's data rotation spreads
	// (Section IV-C2). 1 means uniform.
	OffsetSkew float64

	// SharedFrac is the fraction of accesses hitting the
	// process-shared region (multithreaded programs only).
	SharedFrac float64
}

// MeanGap is the mean number of non-memory instructions before each of
// the profile's memory ops.
func (p Profile) MeanGap() float64 {
	g := (1000 - p.MemOpsPerKI) / p.MemOpsPerKI
	if g < 0 {
		g = 0
	}
	return g
}

// dist builds a normalized 9-bucket dirty-word distribution.
func dist(p0, p1, p2, p3, p4, p5, p6, p7, p8 float64) [9]float64 {
	d := [9]float64{p0, p1, p2, p3, p4, p5, p6, p7, p8}
	var sum float64
	for _, v := range d {
		sum += v
	}
	for i := range d {
		d[i] /= sum
	}
	return d
}

// profiles is the application table. RPKI/WPKI for the six Table II
// multithreaded programs and the solo programs recoverable from the
// homogeneous mixes (MP4 => astar, MP5 => gemsFDTD) are the paper's
// numbers; the remaining programs carry representative literature
// values (the paper does not publish them) — EXPERIMENTS.md reports
// what our models actually measure next to these targets.
var profiles = map[string]Profile{
	// --- SPEC CPU 2006 (multiprogrammed mixes, Figures 1-2) ---
	"mcf": {
		Name: "mcf", MemOpsPerKI: 350, StoreFrac: 0.26, BaseCPI: 2.35,
		RPKI: 10.2, WPKI: 3.2, L1Weight: 0.72, L2Weight: 0.16, LLCWeight: 0.12,
		FootprintLines: 3 << 20, RowLocality: 0.35,
		DirtyWordDist:  dist(14, 30, 16, 8, 12, 6, 3, 3, 8),
		SameOffsetCorr: 0.30, OffsetSkew: 0.55,
	},
	"gemsFDTD": {
		Name: "gemsFDTD", MemOpsPerKI: 320, StoreFrac: 0.30, BaseCPI: 2.1,
		RPKI: 4.15, WPKI: 2.6, L1Weight: 0.70, L2Weight: 0.18, LLCWeight: 0.12,
		FootprintLines: 4 << 20, RowLocality: 0.75,
		DirtyWordDist:  dist(12, 26, 15, 8, 15, 6, 3, 3, 12),
		SameOffsetCorr: 0.38, OffsetSkew: 0.55,
	},
	"astar": {
		Name: "astar", MemOpsPerKI: 340, StoreFrac: 0.32, BaseCPI: 2.2,
		RPKI: 8.05, WPKI: 5.65, L1Weight: 0.70, L2Weight: 0.17, LLCWeight: 0.13,
		FootprintLines: 2 << 20, RowLocality: 0.45,
		DirtyWordDist:  dist(16, 34, 15, 7, 10, 5, 2, 2, 9),
		SameOffsetCorr: 0.33, OffsetSkew: 0.55,
	},
	"sphinx3": {
		Name: "sphinx3", MemOpsPerKI: 300, StoreFrac: 0.22, BaseCPI: 2.0,
		RPKI: 3.4, WPKI: 1.0, L1Weight: 0.74, L2Weight: 0.16, LLCWeight: 0.10,
		FootprintLines: 1 << 20, RowLocality: 0.60,
		DirtyWordDist:  dist(18, 32, 14, 7, 10, 5, 2, 2, 10),
		SameOffsetCorr: 0.30, OffsetSkew: 0.55,
	},
	"gromacs": {
		Name: "gromacs", MemOpsPerKI: 280, StoreFrac: 0.28, BaseCPI: 1.85,
		RPKI: 1.2, WPKI: 0.5, L1Weight: 0.78, L2Weight: 0.14, LLCWeight: 0.08,
		FootprintLines: 512 << 10, RowLocality: 0.70,
		DirtyWordDist:  dist(20, 28, 14, 8, 10, 5, 3, 3, 9),
		SameOffsetCorr: 0.28, OffsetSkew: 0.55,
	},
	"h264ref": {
		Name: "h264ref", MemOpsPerKI: 310, StoreFrac: 0.30, BaseCPI: 1.9,
		RPKI: 1.5, WPKI: 0.6, L1Weight: 0.78, L2Weight: 0.14, LLCWeight: 0.08,
		FootprintLines: 512 << 10, RowLocality: 0.80,
		DirtyWordDist:  dist(15, 25, 16, 9, 13, 6, 3, 3, 10),
		SameOffsetCorr: 0.35, OffsetSkew: 0.55,
	},
	"cactusADM": {
		Name: "cactusADM", MemOpsPerKI: 330, StoreFrac: 0.34, BaseCPI: 2.5,
		RPKI: 5.0, WPKI: 2.2, L1Weight: 0.70, L2Weight: 0.18, LLCWeight: 0.12,
		FootprintLines: 3 << 20, RowLocality: 0.80,
		// The paper's Figure 2 anchor: 52% of write-backs dirty one word.
		DirtyWordDist:  dist(10, 52, 12, 5, 8, 4, 2, 2, 5),
		SameOffsetCorr: 0.40, OffsetSkew: 0.55,
	},
	"soplex": {
		Name: "soplex", MemOpsPerKI: 320, StoreFrac: 0.24, BaseCPI: 2.3,
		RPKI: 4.8, WPKI: 2.0, L1Weight: 0.71, L2Weight: 0.17, LLCWeight: 0.12,
		FootprintLines: 2 << 20, RowLocality: 0.55,
		DirtyWordDist:  dist(14, 30, 16, 8, 11, 5, 3, 3, 10),
		SameOffsetCorr: 0.32, OffsetSkew: 0.55,
	},
	"omnetpp": {
		Name: "omnetpp", MemOpsPerKI: 340, StoreFrac: 0.30, BaseCPI: 2.4,
		RPKI: 6.0, WPKI: 2.8, L1Weight: 0.70, L2Weight: 0.18, LLCWeight: 0.12,
		FootprintLines: 2 << 20, RowLocality: 0.30,
		// Figure 2 anchor: only 14% of write-backs dirty one word.
		DirtyWordDist:  dist(12, 14, 17, 11, 16, 8, 5, 5, 12),
		SameOffsetCorr: 0.25, OffsetSkew: 0.55,
	},
	"milc": {
		Name: "milc", MemOpsPerKI: 330, StoreFrac: 0.28, BaseCPI: 2.1,
		RPKI: 7.5, WPKI: 3.0, L1Weight: 0.70, L2Weight: 0.17, LLCWeight: 0.13,
		FootprintLines: 4 << 20, RowLocality: 0.65,
		DirtyWordDist:  dist(12, 24, 15, 9, 14, 7, 4, 4, 11),
		SameOffsetCorr: 0.30, OffsetSkew: 0.55,
	},
	"lbm": {
		Name: "lbm", MemOpsPerKI: 360, StoreFrac: 0.38, BaseCPI: 2.0,
		RPKI: 11.0, WPKI: 6.5, L1Weight: 0.68, L2Weight: 0.17, LLCWeight: 0.15,
		FootprintLines: 6 << 20, RowLocality: 0.85,
		DirtyWordDist:  dist(8, 22, 16, 10, 16, 8, 5, 4, 11),
		SameOffsetCorr: 0.45, OffsetSkew: 0.55,
	},
	"libquantum": {
		Name: "libquantum", MemOpsPerKI: 300, StoreFrac: 0.22, BaseCPI: 1.75,
		RPKI: 9.0, WPKI: 2.5, L1Weight: 0.72, L2Weight: 0.16, LLCWeight: 0.12,
		FootprintLines: 2 << 20, RowLocality: 0.90,
		DirtyWordDist:  dist(14, 36, 16, 8, 9, 4, 2, 2, 9),
		SameOffsetCorr: 0.35, OffsetSkew: 0.55,
	},

	// --- PARSEC-2 (multithreaded, Table II where published) ---
	"canneal": {
		Name: "canneal", MemOpsPerKI: 350, StoreFrac: 0.28, BaseCPI: 2.6,
		RPKI: 15.19, WPKI: 7.13, L1Weight: 0.66, L2Weight: 0.18, LLCWeight: 0.16,
		FootprintLines: 6 << 20, RowLocality: 0.25,
		DirtyWordDist:  dist(13, 31, 15, 8, 11, 5, 3, 3, 11),
		SameOffsetCorr: 0.30, OffsetSkew: 0.55, SharedFrac: 0.25,
	},
	"dedup": {
		Name: "dedup", MemOpsPerKI: 320, StoreFrac: 0.30, BaseCPI: 2.2,
		RPKI: 3.04, WPKI: 2.072, L1Weight: 0.73, L2Weight: 0.16, LLCWeight: 0.11,
		FootprintLines: 2 << 20, RowLocality: 0.55,
		DirtyWordDist:  dist(12, 28, 16, 9, 12, 6, 3, 3, 11),
		SameOffsetCorr: 0.33, OffsetSkew: 0.55, SharedFrac: 0.30,
	},
	"facesim": {
		Name: "facesim", MemOpsPerKI: 330, StoreFrac: 0.26, BaseCPI: 2.1,
		RPKI: 6.66, WPKI: 1.26, L1Weight: 0.71, L2Weight: 0.17, LLCWeight: 0.12,
		FootprintLines: 3 << 20, RowLocality: 0.70,
		DirtyWordDist:  dist(16, 30, 15, 8, 10, 5, 3, 3, 10),
		SameOffsetCorr: 0.31, OffsetSkew: 0.55, SharedFrac: 0.20,
	},
	"fluidanimate": {
		Name: "fluidanimate", MemOpsPerKI: 310, StoreFrac: 0.28, BaseCPI: 2.0,
		RPKI: 5.54, WPKI: 1.51, L1Weight: 0.72, L2Weight: 0.17, LLCWeight: 0.11,
		FootprintLines: 2 << 20, RowLocality: 0.65,
		DirtyWordDist:  dist(15, 29, 16, 8, 11, 5, 3, 3, 10),
		SameOffsetCorr: 0.34, OffsetSkew: 0.55, SharedFrac: 0.22,
	},
	"freqmine": {
		Name: "freqmine", MemOpsPerKI: 300, StoreFrac: 0.34, BaseCPI: 2.1,
		RPKI: 0.78, WPKI: 3.33, L1Weight: 0.76, L2Weight: 0.15, LLCWeight: 0.09,
		FootprintLines: 1 << 20, RowLocality: 0.50,
		DirtyWordDist:  dist(14, 30, 16, 8, 11, 5, 3, 3, 10),
		SameOffsetCorr: 0.30, OffsetSkew: 0.55, SharedFrac: 0.28,
	},
	"streamcluster": {
		Name: "streamcluster", MemOpsPerKI: 320, StoreFrac: 0.24, BaseCPI: 1.9,
		RPKI: 5.19, WPKI: 2.13, L1Weight: 0.72, L2Weight: 0.16, LLCWeight: 0.12,
		FootprintLines: 3 << 20, RowLocality: 0.80,
		DirtyWordDist:  dist(13, 31, 16, 8, 11, 5, 3, 3, 10),
		SameOffsetCorr: 0.35, OffsetSkew: 0.55, SharedFrac: 0.18,
	},
	"blackscholes": {
		Name: "blackscholes", MemOpsPerKI: 270, StoreFrac: 0.22, BaseCPI: 1.7,
		RPKI: 0.6, WPKI: 0.2, L1Weight: 0.80, L2Weight: 0.13, LLCWeight: 0.07,
		FootprintLines: 256 << 10, RowLocality: 0.85,
		DirtyWordDist:  dist(18, 30, 15, 8, 10, 5, 2, 2, 10),
		SameOffsetCorr: 0.30, OffsetSkew: 0.55, SharedFrac: 0.10,
	},
	"bodytrack": {
		Name: "bodytrack", MemOpsPerKI: 290, StoreFrac: 0.25, BaseCPI: 1.9,
		RPKI: 1.8, WPKI: 0.7, L1Weight: 0.77, L2Weight: 0.14, LLCWeight: 0.09,
		FootprintLines: 512 << 10, RowLocality: 0.70,
		DirtyWordDist:  dist(16, 29, 15, 8, 11, 5, 3, 3, 10),
		SameOffsetCorr: 0.31, OffsetSkew: 0.55, SharedFrac: 0.20,
	},
	"ferret": {
		Name: "ferret", MemOpsPerKI: 330, StoreFrac: 0.27, BaseCPI: 2.2,
		RPKI: 4.2, WPKI: 1.9, L1Weight: 0.72, L2Weight: 0.17, LLCWeight: 0.11,
		FootprintLines: 2 << 20, RowLocality: 0.50,
		DirtyWordDist:  dist(14, 30, 15, 8, 11, 5, 3, 3, 11),
		SameOffsetCorr: 0.32, OffsetSkew: 0.55, SharedFrac: 0.30,
	},
	"raytrace": {
		Name: "raytrace", MemOpsPerKI: 300, StoreFrac: 0.20, BaseCPI: 2.0,
		RPKI: 2.5, WPKI: 0.8, L1Weight: 0.76, L2Weight: 0.15, LLCWeight: 0.09,
		FootprintLines: 1 << 20, RowLocality: 0.45,
		DirtyWordDist:  dist(17, 30, 15, 8, 10, 5, 2, 2, 11),
		SameOffsetCorr: 0.29, OffsetSkew: 0.55, SharedFrac: 0.15,
	},
	"swaptions": {
		Name: "swaptions", MemOpsPerKI: 260, StoreFrac: 0.21, BaseCPI: 1.6,
		RPKI: 0.4, WPKI: 0.15, L1Weight: 0.82, L2Weight: 0.12, LLCWeight: 0.06,
		FootprintLines: 128 << 10, RowLocality: 0.80,
		DirtyWordDist:  dist(18, 31, 15, 8, 10, 4, 2, 2, 10),
		SameOffsetCorr: 0.30, OffsetSkew: 0.55, SharedFrac: 0.08,
	},
	"vips": {
		Name: "vips", MemOpsPerKI: 310, StoreFrac: 0.29, BaseCPI: 2.0,
		RPKI: 3.1, WPKI: 1.4, L1Weight: 0.74, L2Weight: 0.15, LLCWeight: 0.11,
		FootprintLines: 2 << 20, RowLocality: 0.75,
		DirtyWordDist:  dist(13, 28, 16, 9, 12, 5, 3, 3, 11),
		SameOffsetCorr: 0.34, OffsetSkew: 0.55, SharedFrac: 0.18,
	},
	"x264": {
		Name: "x264", MemOpsPerKI: 320, StoreFrac: 0.30, BaseCPI: 1.9,
		RPKI: 2.9, WPKI: 1.1, L1Weight: 0.75, L2Weight: 0.15, LLCWeight: 0.10,
		FootprintLines: 1 << 20, RowLocality: 0.70,
		DirtyWordDist:  dist(14, 27, 16, 9, 12, 6, 3, 3, 10),
		SameOffsetCorr: 0.33, OffsetSkew: 0.55, SharedFrac: 0.22,
	},

	// --- STREAM (Section V mentions it among the multithreaded set) ---
	"stream": {
		Name: "stream", MemOpsPerKI: 380, StoreFrac: 0.34, BaseCPI: 1.6,
		RPKI: 12.0, WPKI: 6.0, L1Weight: 0.66, L2Weight: 0.16, LLCWeight: 0.18,
		FootprintLines: 4 << 20, RowLocality: 0.95,
		DirtyWordDist:  dist(2, 10, 12, 10, 18, 12, 8, 8, 20),
		SameOffsetCorr: 0.60, OffsetSkew: 0.55, SharedFrac: 0.05,
	},
}

// ByName returns the profile for one application.
func ByName(name string) (Profile, bool) {
	p, ok := profiles[name]
	return p, ok
}

// MustByName returns the profile or panics; for static tables.
func MustByName(name string) Profile {
	p, ok := profiles[name]
	if !ok {
		panic(fmt.Sprintf("workloads: unknown profile %q", name))
	}
	return p
}

// Names lists all known application profiles, sorted.
func Names() []string {
	out := make([]string, 0, len(profiles))
	for n := range profiles {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// SPECNames lists the SPEC CPU 2006 models (Figures 1 and 2).
func SPECNames() []string {
	return []string{"mcf", "gemsFDTD", "astar", "sphinx3", "gromacs", "h264ref",
		"cactusADM", "soplex", "omnetpp", "milc", "lbm", "libquantum"}
}

// PARSECNames lists the 13 PARSEC-2 models (Average(MT) in Section VI).
func PARSECNames() []string {
	return []string{"blackscholes", "bodytrack", "canneal", "dedup", "facesim",
		"ferret", "fluidanimate", "freqmine", "raytrace", "streamcluster",
		"swaptions", "vips", "x264"}
}
