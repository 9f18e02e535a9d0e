// Package workload: calibration methodology.
//
// Each generator in this package is a synthetic stand-in for one SPEC95
// program, built from the behavioural fingerprint the paper itself
// publishes. The calibration sources are:
//
//   - Table 1 — static loop count, iterations/execution,
//     instructions/iteration, average and maximum nesting level. These
//     fix each benchmark's loop-nest geometry and trip-count magnitudes.
//   - Table 2 — speculation hit ratio, verification distance and TPC
//     under STR(3)/4 TUs. These fix the trip-count *predictability*
//     (constant / mostly-stable / jittery / geometric) and the control
//     structure around the loops (early exits, recursion).
//   - Figures 5–8 — infinite-TU parallelism spread, per-TU scaling, and
//     live-in value regularity. These fix the driver style and the data
//     (value/address) behaviour of the loop bodies.
//
// The structural vocabulary the generators draw from:
//
//   - vector/stencil kernels with constant trips — the regular FP codes
//     (swim, tomcatv, wave5, hydro2d, apsi, mgrid, turb3d): the STR
//     predictor is essentially never wrong on them;
//   - jittery or uniform trip counts (applu, gcc, vortex, tomcatv's
//     residual) — partial mispredictions that land hit ratios in the
//     50–90% band;
//   - endless main loops (compress, m88ksim, vortex) — budget-truncated,
//     so their threads are flushed rather than squashed (compress's 100%
//     hit ratio in the paper);
//   - recursive dispatch cores (li, perl, go, gcc's tree walks) — the
//     interpCore skeleton, whose executions are killed by returns through
//     the CLS recursion-merging rule (§2.2) — the paper's low-TPC tail;
//   - loop-free call-tree drivers (callTree) for the interpreters and
//     the FP time-steppers, matching the scale relation of the paper's
//     10^9-instruction window (a time step there is ~30% of the window,
//     so the stepping loop is essentially invisible to the CLS).
//
// Scale substitutions (the budget is ~4·10^6 instructions instead of
// 10^9) necessarily shrink what cannot fit: grid extents and therefore
// instructions/iteration for the large FP codes, and total static-loop
// counts (code not reached in the window). The published values live
// in each benchmark's PaperRow; perfbench's paper_rel_err scores the
// deviation (perfbench/README.md, "Model check"), and
// perfbench/steadiness.json records it on seed 1 and on the held-out
// seed 1009. The headline quantities (TPC per machine size, hit ratios,
// iterations/execution, nesting shape) are preserved.
package workload
