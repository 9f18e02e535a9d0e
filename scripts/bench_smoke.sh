#!/usr/bin/env bash
# bench_smoke.sh — interpreter-core performance regression gate.
#
# Gate 1 runs BenchmarkRun (the full pipeline at the default batch
# size, negotiating control-plane delivery), BenchmarkRunFullPlane (the
# same pipeline forced onto full-event delivery, the loop data-facet
# passes run on) and BenchmarkRunReference (the same pipeline on the
# in-tree reference interpreter) in one invocation at a fixed iteration
# count, and fails if either fast path costs more than RUN_RATIO of the
# reference path. Normalising by the reference interpreter measured on
# the same host makes the gate mean the same on any machine. 0.73 is
# 6.5/8.85: on the reference host (see BENCH_interp.json v2) the
# split-plane core measures ~4.5-4.8 ns/instr against ~8.85 for the
# reference path, so the gate is exactly as strict there as the
# absolute 6.5 ns ceiling it replaces — runner-to-runner noise passes,
# but losing a tentpole optimisation (or an accidental fall-back to the
# reference path) fails loudly. Also asserts both fast paths still
# report 0 allocs/op: the zero-allocation batch path is part of the
# perf contract.
#
# Gate 2 runs the ctl-plane legs of BenchmarkTraceReplay and fails if
# a full replay (archive walk + consumer delivery) costs more than
# REPLAY_RATIO of interpretation of the same stream into the same sink.
# Both legs deliver sparse control-plane batches, but replay walks the
# archive per control transfer, reading only each block's branch-bit
# section, while interpretation still executes every instruction. Over
# 10 runs on the 2-vCPU Xeon, replay/interpret read 0.12-0.24 per
# sample and 0.15-0.22 per run median (~0.70 vs ~3.9 ns/instr), so
# 0.5 leaves over 2x headroom yet catches replay falling back to a
# per-event decode or to reading whole blocks.
#
# Each gate takes 5 samples, one go test process per sample, so
# the two legs alternate through the host's slow and fast phases, and
# gates on the median of the per-sample ratios. One sample flakes on a
# shared host: a single run has read Run/Reference 0.96 against the 0.73
# gate with the next reading 0.71. Each sample runs ITERS instructions
# per leg; the default 25M makes every gate-1 leg last at least ~100 ms
# (BenchmarkRun is the fastest at 4.5-6 ns/instr), where 2M-instruction
# legs of 10-20 ms let one host stall move a sample from 0.55 to 0.86.
#
# CI runs this; locally: scripts/bench_smoke.sh
set -euo pipefail

RUN_RATIO="${BENCH_SMOKE_RUN_RATIO:-0.73}"
REPLAY_RATIO="${BENCH_SMOKE_REPLAY_RATIO:-0.5}"
ITERS="${BENCH_SMOKE_ITERS:-25000000}"
SAMPLES=5

fail() { echo "bench_smoke: FAIL: $*" >&2; exit 1; }

# parse REGEX OUT — extracts ns/op and allocs/op from the first
# benchmark result line matching REGEX.
parse() {
	local line
	line="$(echo "$2" | grep -E "$1")" || fail "no result line matching $1"
	NS="$(echo "$line" | awk '{for (i=1; i<NF; i++) if ($(i+1) == "ns/op") print $i}')"
	ALLOCS="$(echo "$line" | awk '{for (i=1; i<NF; i++) if ($(i+1) == "allocs/op") print $i}')"
	[ -n "$NS" ] || fail "could not parse ns/op from: $line"
	[ -n "$ALLOCS" ] || fail "could not parse allocs/op from: $line"
}

# median — prints the median of the numbers on stdin, one per line;
# fails on empty input rather than reading it as 0.
median() {
	sort -g | awk '{v[NR] = $1} END {if (NR == 0) exit 1; print (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2}'
}

echo "bench_smoke: $SAMPLES interleaved samples x$ITERS: BenchmarkRun and BenchmarkRunFullPlane over BenchmarkRunReference (each median <= ${RUN_RATIO}), BenchmarkTraceReplay replay/interpret (median <= ${REPLAY_RATIO})"
RUN_RATIOS=""
FULL_RATIOS=""
REPLAY_RATIOS=""
for i in $(seq "$SAMPLES"); do
	OUT="$(go test -run='^$' -bench='^BenchmarkRun(Reference|FullPlane)?$' -benchtime="${ITERS}x" .)"
	parse '^BenchmarkRunReference\b' "$OUT"
	REF_NS="$NS"
	parse '^BenchmarkRun\b' "$OUT"
	RUN_NS="$NS"
	[ "$ALLOCS" = "0" ] || fail "BenchmarkRun allocates (${ALLOCS} allocs/op), want 0"
	parse '^BenchmarkRunFullPlane\b' "$OUT"
	FULL_NS="$NS"
	[ "$ALLOCS" = "0" ] || fail "BenchmarkRunFullPlane allocates (${ALLOCS} allocs/op), want 0"
	R="$(awk -v r="$RUN_NS" -v ref="$REF_NS" 'BEGIN { printf "%.4f", r / ref }')"
	F="$(awk -v r="$FULL_NS" -v ref="$REF_NS" 'BEGIN { printf "%.4f", r / ref }')"
	echo "  sample $i: run ${RUN_NS} = $R, full-plane ${FULL_NS} = $F of reference ${REF_NS} ns/instr"
	RUN_RATIOS="$RUN_RATIOS$R"$'\n'
	FULL_RATIOS="$FULL_RATIOS$F"$'\n'

	OUT="$(go test -run='^$' -bench='^BenchmarkTraceReplay/(interpret|replay)$' -benchtime="${ITERS}x" .)"
	parse '^BenchmarkTraceReplay/interpret\b' "$OUT"
	INTERP_NS="$NS"
	[ "$ALLOCS" = "0" ] || fail "interpret leg allocates (${ALLOCS} allocs/op), want 0"
	parse '^BenchmarkTraceReplay/replay\b' "$OUT"
	REPLAY_NS="$NS"
	[ "$ALLOCS" = "0" ] || fail "replay leg allocates (${ALLOCS} allocs/op), want 0"
	R="$(awk -v r="$REPLAY_NS" -v i="$INTERP_NS" 'BEGIN { printf "%.4f", r / i }')"
	echo "  sample $i: replay ${REPLAY_NS} / interpret ${INTERP_NS} ns/instr = $R"
	REPLAY_RATIOS="$REPLAY_RATIOS$R"$'\n'
done

RUN_MED="$(printf '%s' "$RUN_RATIOS" | median)" || fail "no BenchmarkRun samples"
FULL_MED="$(printf '%s' "$FULL_RATIOS" | median)" || fail "no BenchmarkRunFullPlane samples"
REPLAY_MED="$(printf '%s' "$REPLAY_RATIOS" | median)" || fail "no BenchmarkTraceReplay samples"
awk -v m="$RUN_MED" -v k="$RUN_RATIO" 'BEGIN { exit !(m <= k) }' ||
	fail "BenchmarkRun's median ratio to the reference path, ${RUN_MED}, exceeds ${RUN_RATIO}"
awk -v m="$FULL_MED" -v k="$RUN_RATIO" 'BEGIN { exit !(m <= k) }' ||
	fail "BenchmarkRunFullPlane's median ratio to the reference path, ${FULL_MED}, exceeds ${RUN_RATIO}"
awk -v m="$REPLAY_MED" -v k="$REPLAY_RATIO" 'BEGIN { exit !(m <= k) }' ||
	fail "full replay's median ratio to interpretation, ${REPLAY_MED}, exceeds ${REPLAY_RATIO}"

echo "bench_smoke: OK (median ratios: run/reference ${RUN_MED}, full-plane/reference ${FULL_MED}, replay/interpret ${REPLAY_MED}; 0 allocs)"
