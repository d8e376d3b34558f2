package exp

import (
	"fmt"

	"pcmap/internal/config"
)

// JobPanicError reports a simulation that panicked instead of
// returning. The runner recovers the panic in the worker that hit it —
// one pathological config must not kill an entire sweep (or a serving
// process) — and converts it into this typed error carrying the panic
// value and the goroutine stack at the point of the panic.
//
// A panic is a simulator bug: callers that classify failures (the
// serve layer, RunAll reporting) detect it with errors.As.
type JobPanicError struct {
	Workload string
	Variant  config.Variant
	Value    any    // the recovered panic value
	Stack    []byte // debug.Stack() captured inside the recovering worker
}

func (e *JobPanicError) Error() string {
	return fmt.Sprintf("exp: %s/%s: simulation panicked: %v", e.Workload, e.Variant, e.Value)
}
