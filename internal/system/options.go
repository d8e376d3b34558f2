package system

import (
	"fmt"

	"pcmap/internal/config"
	"pcmap/internal/obs"
	"pcmap/internal/sim"
	"pcmap/internal/workloads"
)

// OptionError is the typed error New returns when an option carries an
// invalid value. Callers can errors.As on it to learn which option was
// at fault.
type OptionError struct {
	Option string // constructor name, e.g. "WithConfig"
	Err    error
}

func (e *OptionError) Error() string { return fmt.Sprintf("system: %s: %v", e.Option, e.Err) }

// Unwrap exposes the underlying cause.
func (e *OptionError) Unwrap() error { return e.Err }

// settings accumulates option values before construction. Overrides
// are tri-state (set/unset) so New can apply them to a private copy of
// the configuration without mutating the caller's.
type settings struct {
	cfg      *config.Config
	workload string
	tracer   *obs.Tracer

	faultSet  bool
	endurance uint64
	drift     float64
}

// Option configures New. Options are applied in order; later options
// win where they overlap.
type Option func(*settings) error

// WithConfig selects the machine configuration. New copies the
// top-level struct before applying other overrides, so the caller's
// Config is never mutated.
func WithConfig(cfg *config.Config) Option {
	return func(st *settings) error {
		if cfg == nil {
			return &OptionError{Option: "WithConfig", Err: fmt.Errorf("nil config")}
		}
		st.cfg = cfg
		return nil
	}
}

// WithWorkload selects the workload mix by name (see
// internal/workloads). Default: MP4.
func WithWorkload(name string) Option {
	return func(st *settings) error {
		if name == "" {
			return &OptionError{Option: "WithWorkload", Err: fmt.Errorf("empty workload name")}
		}
		st.workload = name
		return nil
	}
}

// WithTracer attaches a timeline tracer to every instrumented layer
// (engine, cores, controllers, buses, banks, NoC). Pass the tracer that
// will later be serialized with WriteJSON. A nil tracer is rejected;
// simply omit the option to run untraced.
func WithTracer(tr *obs.Tracer) Option {
	return func(st *settings) error {
		if tr == nil {
			return &OptionError{Option: "WithTracer", Err: fmt.Errorf("nil tracer (omit the option to disable tracing)")}
		}
		st.tracer = tr
		return nil
	}
}

// WithFaultModel enables PCM fault injection: each cell fails stuck-at
// after enduranceBudget writes on average, and each read word flips a
// drifted bit with probability driftProb. Zero values disable the
// respective mechanism.
func WithFaultModel(enduranceBudget uint64, driftProb float64) Option {
	return func(st *settings) error {
		if driftProb < 0 || driftProb >= 1 {
			return &OptionError{Option: "WithFaultModel", Err: fmt.Errorf("drift probability %v outside [0,1)", driftProb)}
		}
		st.faultSet = true
		st.endurance = enduranceBudget
		st.drift = driftProb
		return nil
	}
}

// New assembles a machine from functional options — the constructor
// behind every command-line entry point. With no options it
// builds the paper's Table I default machine running the MP4 mix.
//
// Construction validates the resolved configuration and returns typed
// errors (*OptionError for bad option values); it never mutates a
// Config passed via WithConfig.
func New(opts ...Option) (*System, error) {
	st := settings{cfg: config.Default(), workload: "MP4"}
	for _, opt := range opts {
		if err := opt(&st); err != nil {
			return nil, err
		}
	}
	cfg := st.cfg
	if st.faultSet {
		copied := *cfg
		cfg = &copied
		cfg.Memory.EnduranceBudget = st.endurance
		cfg.Memory.DriftProb = st.drift
	}

	mix, ok := workloads.MixByName(st.workload)
	if !ok {
		return nil, &OptionError{Option: "WithWorkload", Err: fmt.Errorf("unknown workload %q", st.workload)}
	}
	if len(mix.PerCore) != cfg.Cores {
		return nil, &OptionError{Option: "WithWorkload", Err: fmt.Errorf("mix %s defines %d cores, config has %d",
			st.workload, len(mix.PerCore), cfg.Cores)}
	}
	s, err := assemble(cfg, mix)
	if err != nil {
		return nil, err
	}
	s.instrument(st.tracer)
	return s, nil
}

// instrument attaches the tracer (nil when tracing is off) to every
// component's timeline tracks. Track registration order is
// construction order, so traced runs serialize deterministically.
func (s *System) instrument(tr *obs.Tracer) {
	s.Tracer = tr
	for _, c := range s.Cores {
		c.Instrument(tr)
	}
	for _, ctrl := range s.Mem.Ctrls {
		ctrl.Instrument(tr)
	}
	s.Hier.Mesh.Instrument(tr)
	if tr != nil {
		track := tr.Track("engine", "events")
		pending := tr.Name("pending")
		s.Eng.SetStepHook(func(now sim.Time, n int) {
			tr.Count(track, pending, now, int64(n))
		})
	}
}
