package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (SplitMix64). Every stochastic component of the simulator owns its own
// seeded RNG so results are bit-reproducible regardless of the order in
// which components consume randomness.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Distinct seeds give
// independent-looking streams.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Exp returns an exponentially distributed value with the given mean.
func (r *RNG) Exp(mean float64) float64 { return expOf(r.Uint64(), mean) }

// expOf is the exponential value with the given mean that Exp makes of
// the random bits x, by inverse transform sampling of Float64's u.
func expOf(x uint64, mean float64) float64 {
	u := float64(x>>11) / (1 << 53)
	if u <= 0 {
		u = 1.0 / (1 << 53) // avoid log(0)
	}
	return -mean * math.Log(1-u)
}

// Pick samples an index from the discrete distribution given by weights.
// Zero or negative weights are treated as zero. If every weight is zero
// it returns 0.
func (r *RNG) Pick(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return 0
	}
	x := r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		if x < w {
			return i
		}
		x -= w
	}
	return len(weights) - 1
}

// Fork derives an independent generator from this one, for handing a
// private randomness stream to a sub-component.
func (r *RNG) Fork() *RNG { return NewRNG(r.Uint64() ^ 0xd1b54a32d192ed03) }
