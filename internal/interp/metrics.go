package interp

import "dynloop/internal/obs"

// Interpreter metrics. All updates happen once per Run call — never per
// instruction — and cost two atomic operations and no clock read,
// invisible next to the retire loop and allocation-free (the
// AllocsPerRun=0 pins cover the instrumented path). Throughput is timed
// per traversal by the harness (dynloop_interp_ns_per_instr).
var (
	mInstructions = obs.NewCounter("dynloop_interp_instructions_total",
		"Instructions retired by the interpreter across all Run calls.")
	mRunsCtl = obs.NewCounter("dynloop_interp_runs_total",
		"Run calls by negotiated event facet.", "plane", "ctl")
	mRunsFull = obs.NewCounter("dynloop_interp_runs_total",
		"Run calls by negotiated event facet.", "plane", "full")
)

// PlaneRuns reports the process-lifetime count of Run calls that
// negotiated control-plane-only delivery vs full-event delivery, for
// the daemon's /v1/stats mirror.
func PlaneRuns() (ctl, full uint64) {
	return mRunsCtl.Value(), mRunsFull.Value()
}

// Instructions returns the process-lifetime retired instruction count.
func Instructions() uint64 { return mInstructions.Value() }
