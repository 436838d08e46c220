package engine

import "sync/atomic"

// runObserver is the process-wide per-run observation hook. It is an
// atomic pointer so installation is race-free against concurrent runs,
// and loading it on the completion path costs one atomic read — nothing
// per cell, nothing per step, and no allocation, which is what keeps the
// warm-run allocation gate honest.
var runObserver atomic.Pointer[func(Stats)]

// ObserveRuns installs fn to be called once per completed run with that
// run's final Stats. "Completed" means the run finished on its own terms
// — horizon reached or convergence certified. A Session advanced across
// many calls is one run and is observed once, when it finishes; a
// session closed before it finishes, or a RunSnapshot halted at its
// snapshot, is not observed. A run checkpointed and resumed elsewhere
// carries cumulative Stats through its snapshot and is observed exactly
// once, when the resumed session finishes. fn must be safe for concurrent
// calls (engines run concurrently) and must not block; it is invoked on
// the run's goroutine. Passing nil removes the hook.
func ObserveRuns(fn func(Stats)) {
	if fn == nil {
		runObserver.Store(nil)
		return
	}
	runObserver.Store(&fn)
}

// observeRun fires the hook for a finished run, if one is installed.
func observeRun(s Stats) {
	if fn := runObserver.Load(); fn != nil {
		(*fn)(s)
	}
}
