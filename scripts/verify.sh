#!/usr/bin/env bash
# Full verification gate for the neighborhood-skyline workspace.
#
# Every step works offline: the workspace declares zero registry
# dependencies (rule R1, enforced by the policy linter below).
#
#   ./scripts/verify.sh          # everything
#   NSKY_QUICK=1 ./scripts/verify.sh   # shrink the test sweeps
set -euo pipefail
cd "$(dirname "$0")/.."

step() {
    echo
    echo "==> $*"
    "$@"
}

step cargo fmt --all -- --check
step cargo clippy --workspace --all-targets -- -D warnings
step cargo run -q -p nsky-xtask -- lint
# API-surface gate: each library crate's public surface must match its
# committed api/<crate>.surface baseline (regenerate intentional
# changes with `cargo xtask api --bless` and commit the diff).
step cargo run -q -p nsky-xtask -- api --check
step cargo build --release
step cargo test -q
# Lock-landscape gate: the per-crate mutex/condvar census and the
# acquired-while-holding order edges must match the committed
# api/locks.report baseline (regenerate intentional changes with
# `cargo xtask locks --bless` and commit the diff).
step cargo run -q -p nsky-xtask -- locks --check
# Policy-engine self-tests, run by name so a harness filter can never
# silently drop them: the lexer torture suite, the per-rule fixture
# workspaces (including the R12 injected-rename drift fixture), the
# flow-engine torture suite, and the call-graph resolution suite.
step cargo test -q -p nsky-xtask --test lexer
step cargo test -q -p nsky-xtask --test fixtures
step cargo test -q -p nsky-xtask --test cfg
step cargo test -q -p nsky-xtask --test callgraph
# Concurrency-discipline gate, run by name: the committed lock report,
# the `locks` CLI, the r17–r20 fixture landscapes, and the `lint --json`
# counters for the four concurrency rules.
step cargo test -q -p nsky-xtask --test locks
# Storage-corruption gate, run by name so a test-harness filter can
# never silently drop it: every torn, bit-flipped, short-written or
# out-of-space checkpoint image must be rejected with a typed error.
# (The kill-at-every-poll-point resume sweeps live in fault_matrix.)
step cargo test -q -p nsky-integration --test snapshot_faults
# Observability gate, likewise run by name: every counter the kernels
# flush must satisfy the accounting identities, runs under a
# NoopRecorder must match their uninstrumented entry points
# field-for-field, and the JSON run report must reject
# truncated/bit-flipped payloads.
step cargo test -q -p nsky-integration --test obs_invariants
# Composed-fault gate, likewise run by name: every kernel driven through
# its single `*_with(ctx)` entry point must survive every single fault
# and every pairwise fault combination (deadline, memory cap, cancel,
# checkpoint, damaged resume) with sound partial answers, graceful
# degradation of unusable checkpoints, and byte-identical no-fault runs;
# killed at every poll point, it must resume to the uninterrupted answer.
step cargo test -q -p nsky-integration --test fault_matrix
# Dynamic-maintenance gate, likewise run by name: the incremental
# engine must agree with a from-scratch recompute after every single
# delta and after randomized batches across generator families, honor
# inverse round-trips, and turn mid-batch deadline trips into exact
# committed-prefix answers that resume to convergence.
step cargo test -q -p nsky-integration --test dynamic_differential
# Serving gate, likewise run by name: the byzantine-client matrix (torn
# frames, garbage, oversized frames, slow loris, floods past the shed
# threshold, mid-kernel disconnects, shutdown drain, faulty arrivals
# interleaved with concurrent healthy clients) must produce typed
# errors and sound partial answers with zero panics and zero leaked
# worker threads.
step cargo test -q -p nsky-integration --test server_faults
# Pinned-answer gate, likewise run by name: the serving benchmark's
# Notredame clique and group answers (groups, score bits, evaluation
# counts) and FilterRefineSky's witnesses and counters on five graphs
# are pinned, and prepared kernel inputs must match from-scratch runs
# bit for bit.
step cargo test -q -p nsky-integration --test applications
# Serving-benchmark self-tests: servebench is its own workspace, so the
# tier above never builds it. Running its tests here means a crate API
# change that breaks the benchmark fails verification, not the
# benchmark run.
step cargo test -q --offline --manifest-path servebench/Cargo.toml

# End-to-end write-path gate: a short mixed-pokec run of the serving
# benchmark sends point reads, skyline reads and edge-delta updates to a
# real server, and its oracle checks every answer — each update's
# skyline, and at the last generation a BaseSky recompute, which shares
# no code with the filter phase or the update engine. The last line of
# the run must report `"correct":true` and `"failed":0`.
servebench_gate() {
    local line
    line=$(cargo run --release --offline --quiet --manifest-path servebench/Cargo.toml -- \
        --workload mixed-pokec --seed 1 --seconds 3 --trace 0 | tail -n 1)
    if ! grep -Eq '"correct": ?true' <<<"$line" || ! grep -Eq '"failed": ?0[,}]' <<<"$line"; then
        echo "servebench mixed-pokec: wrong answers or failed requests: $line" >&2
        return 1
    fi
    echo "servebench mixed-pokec: correct, 0 failed"
}
step servebench_gate

echo
echo "verify: all gates passed"
