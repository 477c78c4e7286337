//! The composed fault matrix: every kernel, through its single
//! [`ExecutionContext`] entry point, under every single fault and every
//! pairwise fault combination.
//!
//! The faults:
//!
//! * **Deadline** — a [`TripClock`] expiring at a mid-run poll;
//! * **Memory** — a 64-byte memory cap (trips at the first charge);
//! * **Cancel** — a pre-raised [`CancelToken`] (deterministic stand-in
//!   for a cross-thread cancel; the racy variant lives in
//!   `budget_faults.rs`);
//! * **Checkpoint** — a short checkpoint period with a
//!   [`FileCheckpointer`] sink armed (and, separately, a
//!   kill-at-every-poll-point sweep per kernel);
//! * **Torn / bit-flipped / wrong-graph / wrong-kernel resume** —
//!   unusable snapshots offered back to the context. Torn and flipped
//!   images must be rejected by the loader with a typed error; valid
//!   images for the wrong graph or kernel must degrade to a clean fresh
//!   run with [`ResumableRun::recovery`] set.
//!
//! Every cell asserts the same contract: the completion matches the
//! injected fault set, a trip always leaves a resumable snapshot whose
//! resumption converges to the uninterrupted answer, partial outcomes
//! are anytime-sound, no-fault runs are byte-identical to the
//! uninstrumented entry points, an untripped checkpointed run leaves a
//! loadable checkpoint on disk, recorder phase spans stay balanced, and
//! (for sequential kernels) a repeated run reproduces the outcome and
//! every counter exactly. All randomness is SplitMix64-seeded from the kernel
//! name, so the matrix is deterministic run to run.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use nsky_centrality::greedy::{greedy_group, greedy_group_with, GreedyOptions};
use nsky_centrality::measure::{Closeness, Harmonic};
use nsky_centrality::neisky::{nei_sky_group, nei_sky_group_with, NeiSkyGroupInput};
use nsky_clique::{
    is_clique, max_clique_bnb, max_clique_bnb_with, mc_brb, mc_brb_with, nei_sky_mc,
    nei_sky_mc_with, top_k_cliques, top_k_cliques_with, NeiSkyMcInput, TopkMode,
};
use nsky_graph::generators::{chung_lu_power_law, erdos_renyi};
use nsky_skyline::budget::{Completion, ExecutionBudget, TripClock};
use nsky_skyline::exec::ExecutionContext;
use nsky_skyline::obs::CountingRecorder;
use nsky_skyline::snapshot::{
    Checkpointer, FileCheckpointer, RecoveryError, ResumableRun, Snapshot,
};
use nsky_skyline::{
    base_sky, base_sky_with, filter_refine_sky, filter_refine_sky_par_with, filter_refine_sky_with,
    RefineConfig,
};

// ---------------------------------------------------------------------
// Deterministic randomness and fingerprints (SplitMix64).
// ---------------------------------------------------------------------

/// One SplitMix64 step: advances `state` and returns the next output.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Folds one value into a fingerprint with the SplitMix64 scrambler.
fn mix(h: u64, v: u64) -> u64 {
    let mut s = h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut s)
}

/// Fingerprint of a vertex list (order-sensitive, length-prefixed).
fn fp_vertices(h: u64, vs: &[u32]) -> u64 {
    vs.iter()
        .fold(mix(h, vs.len() as u64), |h, &v| mix(h, u64::from(v)))
}

/// A deterministic per-cell RNG seed derived from the kernel name.
fn cell_seed(name: &str, idx: usize) -> u64 {
    let h = name
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| mix(h, u64::from(b)));
    mix(h, idx as u64)
}

// ---------------------------------------------------------------------
// Harness plumbing.
// ---------------------------------------------------------------------

/// A budget with a deterministic clock tripping on poll `k`, polling on
/// every tick, plus the clock handle for poll counting.
fn trip_budget(k: u64) -> (ExecutionBudget, Arc<TripClock>) {
    let clock = Arc::new(TripClock::at_poll(k));
    let budget = ExecutionBudget::unlimited()
        .deadline(Arc::clone(&clock))
        .check_interval(1);
    (budget, clock)
}

/// A scratch path unique to this test process and `label`.
fn scratch_path(label: &str) -> std::path::PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "nsky-fault-matrix-{}-{label}-{seq}.ck",
        std::process::id()
    ))
}

/// Runs a kernel once through a context composed from the given parts.
fn run_ctx<'a, T>(
    run: &dyn Fn(&mut ExecutionContext<'_>) -> ResumableRun<T>,
    budget: Option<&'a ExecutionBudget>,
    resume: Option<&'a Snapshot>,
    sink: Option<&'a mut dyn Checkpointer>,
    rec: Option<&'a CountingRecorder>,
) -> ResumableRun<T> {
    let mut ctx = ExecutionContext::new();
    if let Some(b) = budget {
        ctx = ctx.budget(b);
    }
    if let Some(r) = rec {
        ctx = ctx.recorder(r);
    }
    let mut ctx = ctx.resume(resume).checkpoint(sink);
    run(&mut ctx)
}

/// A genuine mid-run snapshot of `run`, as wire bytes: calibrates the
/// poll count, then trips half-way (falling back to the first poll for
/// racy parallel kernels).
fn tripped_snapshot<T>(run: &dyn Fn(&mut ExecutionContext<'_>) -> ResumableRun<T>) -> Vec<u8> {
    let (budget, clock) = trip_budget(u64::MAX);
    let clean = run_ctx(run, Some(&budget), None, None, None);
    assert!(clean.snapshot.is_none(), "calibration run must complete");
    let total = clock.polls();
    for k in [(total / 2).max(1), 1] {
        let (budget, _clock) = trip_budget(k);
        let tripped = run_ctx(run, Some(&budget), None, None, None);
        if let Some(snap) = tripped.snapshot {
            return snap.to_bytes();
        }
    }
    panic!("kernel completed under every trip point; cannot snapshot it");
}

// ---------------------------------------------------------------------
// The fault axis.
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Fault {
    Deadline,
    Memory,
    Cancel,
    Checkpoint,
    TornResume,
    BitFlipResume,
    WrongGraphResume,
    WrongKernelResume,
}

const ALL_FAULTS: &[Fault] = &[
    Fault::Deadline,
    Fault::Memory,
    Fault::Cancel,
    Fault::Checkpoint,
    Fault::TornResume,
    Fault::BitFlipResume,
    Fault::WrongGraphResume,
    Fault::WrongKernelResume,
];

impl Fault {
    /// All resume corruptions share one axis: a context takes at most
    /// one resume snapshot, so they never pair with each other.
    fn is_resume(self) -> bool {
        matches!(
            self,
            Fault::TornResume
                | Fault::BitFlipResume
                | Fault::WrongGraphResume
                | Fault::WrongKernelResume
        )
    }

    /// The completion this fault forces, when it trips the run.
    fn trips(self) -> Option<Completion> {
        match self {
            Fault::Deadline => Some(Completion::DeadlineExceeded),
            Fault::Memory => Some(Completion::MemoryCapped),
            Fault::Cancel => Some(Completion::Cancelled),
            _ => None,
        }
    }
}

/// Every single fault plus every pairwise combination (resume faults
/// never pair with each other — one resume slot per context).
fn cells() -> Vec<Vec<Fault>> {
    let mut out: Vec<Vec<Fault>> = ALL_FAULTS.iter().map(|&f| vec![f]).collect();
    for (i, &a) in ALL_FAULTS.iter().enumerate() {
        for &b in &ALL_FAULTS[i + 1..] {
            if a.is_resume() && b.is_resume() {
                continue;
            }
            out.push(vec![a, b]);
        }
    }
    out
}

// ---------------------------------------------------------------------
// The generic matrix runner.
// ---------------------------------------------------------------------

/// One kernel's hookup into the matrix. `check` owns the semantic
/// assertions: on [`Completion::Complete`] the outcome must equal the
/// uninterrupted reference field by field; on any trip it must be
/// anytime-sound (subset / prefix / valid-so-far, per kernel).
struct MatrixCase<'a, T> {
    name: &'static str,
    /// Parallel kernels race the trip point, so repeated-run
    /// determinism and exact counter equality are not asserted.
    parallel: bool,
    run: &'a dyn Fn(&mut ExecutionContext<'_>) -> ResumableRun<T>,
    /// The same kernel on a different graph (wrong-graph snapshots).
    wrong_graph: &'a dyn Fn(&mut ExecutionContext<'_>) -> ResumableRun<T>,
    /// A *different* kernel on the same graph (wrong-kernel snapshots).
    foreign: &'a dyn Fn() -> Vec<u8>,
    completion: &'a dyn Fn(&T) -> Completion,
    check: &'a dyn Fn(&T, Completion, &str),
    fingerprint: &'a dyn Fn(&T) -> u64,
}

fn run_matrix<T>(case: MatrixCase<'_, T>) {
    // Calibrate, and pin the clean answer every cell compares against.
    let (budget, clock) = trip_budget(u64::MAX);
    let clean = run_ctx(case.run, Some(&budget), None, None, None);
    assert!(
        clean.snapshot.is_none() && clean.recovery.is_none(),
        "{}: clean run must complete",
        case.name
    );
    assert_eq!((case.completion)(&clean.outcome), Completion::Complete);
    (case.check)(&clean.outcome, Completion::Complete, case.name);
    let total = clock.polls();
    assert!(total > 4, "{}: too few polls to fault ({total})", case.name);
    let mid = (total / 2).max(1);
    let clean_fp = (case.fingerprint)(&clean.outcome);

    // No-fault recorder coherence: two fully-armed-but-untripped
    // recorded runs agree with the clean answer and with each other.
    let (rec1, rec2) = (CountingRecorder::new(), CountingRecorder::new());
    let r1 = run_ctx(case.run, None, None, None, Some(&rec1));
    let r2 = run_ctx(case.run, None, None, None, Some(&rec2));
    for r in [&r1, &r2] {
        assert_eq!(
            (case.fingerprint)(&r.outcome),
            clean_fp,
            "{}: recorded run diverged from the clean answer",
            case.name
        );
    }
    if !case.parallel {
        assert_eq!(
            rec1.counters(),
            rec2.counters(),
            "{}: counters are not deterministic",
            case.name
        );
    }

    // Snapshot material for the resume-fault column.
    let genuine = tripped_snapshot(case.run);
    let wrong_graph = tripped_snapshot(case.wrong_graph);
    let foreign = (case.foreign)();

    // The matrix proper.
    for (idx, faults) in cells().iter().enumerate() {
        run_cell(
            &case,
            faults,
            idx,
            mid,
            clean_fp,
            &genuine,
            &wrong_graph,
            &foreign,
        );
    }

    // Kill-at-every-poll-point checkpoint sweep: trip at each poll,
    // round-trip the final snapshot through its wire encoding, resume
    // under an inert context, and require exact convergence.
    for k in 1..total {
        let label = format!("{} kill k={k}/{total}", case.name);
        let (budget, _clock) = trip_budget(k);
        let tripped = run_ctx(case.run, Some(&budget), None, None, None);
        let Some(snap) = tripped.snapshot else {
            // Parallel workers may legitimately finish before observing
            // the trip; a sequential kernel may not.
            assert!(
                case.parallel && (case.completion)(&tripped.outcome) == Completion::Complete,
                "{label}: trip produced no snapshot"
            );
            assert_eq!((case.fingerprint)(&tripped.outcome), clean_fp, "{label}");
            continue;
        };
        (case.check)(
            &tripped.outcome,
            (case.completion)(&tripped.outcome),
            &label,
        );
        let snap = Snapshot::from_bytes(&snap.to_bytes())
            .unwrap_or_else(|e| panic!("{label}: wire round-trip failed: {e}"));
        let resumed = run_ctx(case.run, None, Some(&snap), None, None);
        assert!(
            resumed.snapshot.is_none() && resumed.recovery.is_none(),
            "{label}: resume did not complete cleanly"
        );
        (case.check)(&resumed.outcome, Completion::Complete, &label);
        assert_eq!(
            (case.fingerprint)(&resumed.outcome),
            clean_fp,
            "{label}: resumed answer diverged"
        );
    }
}

#[allow(clippy::too_many_arguments)]
fn run_cell<T>(
    case: &MatrixCase<'_, T>,
    faults: &[Fault],
    idx: usize,
    mid: u64,
    clean_fp: u64,
    genuine: &[u8],
    wrong_graph: &[u8],
    foreign: &[u8],
) {
    let label = format!("{} {faults:?}", case.name);
    let mut rng = cell_seed(case.name, idx);
    let has = |f: Fault| faults.contains(&f);

    // Resume slot. Torn and bit-flipped images never survive the
    // loader: a seeded sample of corruptions must each be rejected with
    // a typed error, after which the caller can only start fresh
    // (resume stays `None` — that *is* the graceful degradation).
    let mut resume_owned: Option<Snapshot> = None;
    if has(Fault::TornResume) {
        for _ in 0..8 {
            let cut = (splitmix64(&mut rng) as usize) % genuine.len();
            let err = Snapshot::from_bytes(&genuine[..cut])
                .err()
                .unwrap_or_else(|| panic!("{label}: torn tail at {cut} accepted"));
            assert!(
                matches!(
                    err,
                    RecoveryError::Truncated
                        | RecoveryError::ChecksumMismatch
                        | RecoveryError::BadMagic
                ),
                "{label}: torn tail at {cut}: unexpected {err:?}"
            );
        }
    }
    if has(Fault::BitFlipResume) {
        for _ in 0..8 {
            let byte = (splitmix64(&mut rng) as usize) % genuine.len();
            let bit = splitmix64(&mut rng) % 8;
            let mut corrupt = genuine.to_vec();
            corrupt[byte] ^= 1 << bit;
            assert!(
                Snapshot::from_bytes(&corrupt).is_err(),
                "{label}: bit flip at byte {byte} bit {bit} accepted"
            );
        }
    }
    if has(Fault::WrongGraphResume) {
        resume_owned = Some(Snapshot::from_bytes(wrong_graph).expect("wrong-graph wire image"));
    }
    if has(Fault::WrongKernelResume) {
        resume_owned = Some(Snapshot::from_bytes(foreign).expect("foreign wire image"));
    }

    let make_budget = || {
        let mut b = ExecutionBudget::unlimited().check_interval(1);
        if has(Fault::Deadline) {
            b = b.deadline(TripClock::at_poll(mid));
        }
        if has(Fault::Memory) {
            b = b.memory_cap(64);
        }
        if has(Fault::Cancel) {
            b.cancel_token().cancel();
        }
        if has(Fault::Checkpoint) {
            b.set_checkpoint_period(3);
        }
        b
    };
    let ck_path = has(Fault::Checkpoint).then(|| scratch_path(&format!("{}-{idx}", case.name)));

    let exec = |rec: &CountingRecorder| {
        let budget = make_budget();
        let mut sink = ck_path.as_ref().map(FileCheckpointer::new);
        run_ctx(
            case.run,
            Some(&budget),
            resume_owned.as_ref(),
            sink.as_mut().map(|s| s as &mut dyn Checkpointer),
            Some(rec),
        )
    };

    let rec1 = CountingRecorder::new();
    let run1 = exec(&rec1);
    let comp = (case.completion)(&run1.outcome);

    // Completion must match the injected fault set exactly: the union
    // of the tripping faults' completions, or Complete when none trips.
    let allowed: Vec<Completion> = faults.iter().filter_map(|f| f.trips()).collect();
    if allowed.is_empty() {
        assert_eq!(comp, Completion::Complete, "{label}: spurious trip");
    } else if !(case.parallel && comp == Completion::Complete) {
        assert!(
            allowed.contains(&comp),
            "{label}: unexpected completion {comp:?} (allowed {allowed:?})"
        );
    }

    // A trip always leaves a snapshot; a completed run never does.
    assert_eq!(
        run1.snapshot.is_none(),
        comp == Completion::Complete,
        "{label}: snapshot presence contradicts completion {comp:?}"
    );

    // Unusable-but-wellformed snapshots surface a typed recovery error;
    // everything else must not.
    if has(Fault::WrongGraphResume) {
        assert!(
            matches!(run1.recovery, Some(RecoveryError::GraphMismatch)),
            "{label}: expected GraphMismatch, got {:?}",
            run1.recovery
        );
    } else if has(Fault::WrongKernelResume) {
        assert!(
            matches!(run1.recovery, Some(RecoveryError::KernelMismatch { .. })),
            "{label}: expected KernelMismatch, got {:?}",
            run1.recovery
        );
    } else {
        assert!(
            run1.recovery.is_none(),
            "{label}: spurious recovery {:?}",
            run1.recovery
        );
    }

    // Anytime soundness (or exact equality when the cell completed).
    (case.check)(&run1.outcome, comp, &label);
    if comp == Completion::Complete {
        assert_eq!(
            (case.fingerprint)(&run1.outcome),
            clean_fp,
            "{label}: degraded run diverged from the clean answer"
        );
    }

    // Recorder phase spans stay balanced under every fault.
    for p in rec1.phases() {
        assert!(
            p.end_nanos >= p.start_nanos,
            "{label}: span `{}` ends before it starts",
            p.name
        );
    }

    // Determinism: an identical second run reproduces the outcome and
    // every counter (sequential kernels only — parallel trips race).
    if !case.parallel {
        let rec2 = CountingRecorder::new();
        let run2 = exec(&rec2);
        assert_eq!(
            (case.completion)(&run2.outcome),
            comp,
            "{label}: completion is not deterministic"
        );
        assert_eq!(
            (case.fingerprint)(&run2.outcome),
            (case.fingerprint)(&run1.outcome),
            "{label}: outcome is not deterministic"
        );
        assert_eq!(
            rec1.counters(),
            rec2.counters(),
            "{label}: counters are not deterministic"
        );
    }

    // Every trip's snapshot must resume, through the wire encoding, to
    // the exact uninterrupted answer under an inert context.
    if let Some(snap) = run1.snapshot {
        let snap = Snapshot::from_bytes(&snap.to_bytes())
            .unwrap_or_else(|e| panic!("{label}: wire round-trip failed: {e}"));
        let resumed = run_ctx(case.run, None, Some(&snap), None, None);
        assert!(
            resumed.snapshot.is_none() && resumed.recovery.is_none(),
            "{label}: resume did not complete cleanly"
        );
        (case.check)(&resumed.outcome, Completion::Complete, &label);
        assert_eq!(
            (case.fingerprint)(&resumed.outcome),
            clean_fp,
            "{label}: resumed answer diverged"
        );
    }

    // Whatever checkpoint the sink managed to land on disk must itself
    // be a usable resume point. A trip before the first due checkpoint
    // legitimately leaves nothing; an untripped run always leaves one.
    if let Some(path) = &ck_path {
        match Snapshot::load(path) {
            Ok(snap) => {
                let resumed = run_ctx(case.run, None, Some(&snap), None, None);
                assert!(
                    resumed.recovery.is_none(),
                    "{label}: disk checkpoint rejected: {:?}",
                    resumed.recovery
                );
                assert_eq!(
                    (case.fingerprint)(&resumed.outcome),
                    clean_fp,
                    "{label}: disk resume diverged"
                );
            }
            Err(e) => assert!(
                comp != Completion::Complete,
                "{label}: untripped checkpointed run left no loadable checkpoint: {e}"
            ),
        }
        let _ = std::fs::remove_file(path);
    }
}

// ---------------------------------------------------------------------
// Per-kernel hookups.
// ---------------------------------------------------------------------

#[test]
fn matrix_base_sky() {
    let g = chung_lu_power_law(72, 2.8, 5.0, 21);
    let g2 = chung_lu_power_law(72, 2.8, 5.0, 22);
    let full = base_sky(&g);
    run_matrix(MatrixCase {
        name: "base-sky",
        parallel: false,
        run: &|ctx: &mut ExecutionContext<'_>| base_sky_with(&g, ctx),
        wrong_graph: &|ctx: &mut ExecutionContext<'_>| base_sky_with(&g2, ctx),
        foreign: &|| tripped_snapshot(&|ctx: &mut ExecutionContext<'_>| mc_brb_with(&g, ctx)),
        completion: &|o| o.completion,
        check: &|o, comp, label| {
            if comp == Completion::Complete {
                assert_eq!(o.skyline, full.skyline, "{label}");
            } else {
                for v in &o.skyline {
                    assert!(full.skyline.binary_search(v).is_ok(), "{label}: unsound");
                }
            }
        },
        fingerprint: &|o| fp_vertices(1, &o.skyline),
    });
}

#[test]
fn matrix_filter_refine() {
    let g = chung_lu_power_law(72, 2.8, 5.0, 23);
    let g2 = chung_lu_power_law(72, 2.8, 5.0, 24);
    let cfg = RefineConfig::default();
    let full = filter_refine_sky(&g, &cfg);
    run_matrix(MatrixCase {
        name: "filter-refine",
        parallel: false,
        run: &|ctx: &mut ExecutionContext<'_>| filter_refine_sky_with(&g, &cfg, ctx),
        wrong_graph: &|ctx: &mut ExecutionContext<'_>| filter_refine_sky_with(&g2, &cfg, ctx),
        foreign: &|| tripped_snapshot(&|ctx: &mut ExecutionContext<'_>| base_sky_with(&g, ctx)),
        completion: &|o| o.completion,
        check: &|o, comp, label| {
            if comp == Completion::Complete {
                assert_eq!(o.skyline, full.skyline, "{label}");
            } else {
                for v in &o.skyline {
                    assert!(full.skyline.binary_search(v).is_ok(), "{label}: unsound");
                }
            }
        },
        fingerprint: &|o| fp_vertices(2, &o.skyline),
    });
}

#[test]
fn matrix_parallel_refine() {
    let g = chung_lu_power_law(72, 2.8, 5.0, 25);
    let g2 = chung_lu_power_law(72, 2.8, 5.0, 26);
    let cfg = RefineConfig::default();
    let full = filter_refine_sky(&g, &cfg);
    run_matrix(MatrixCase {
        name: "parallel-refine",
        parallel: true,
        run: &|ctx: &mut ExecutionContext<'_>| filter_refine_sky_par_with(&g, &cfg, 2, ctx),
        wrong_graph: &|ctx: &mut ExecutionContext<'_>| {
            filter_refine_sky_par_with(&g2, &cfg, 2, ctx)
        },
        foreign: &|| tripped_snapshot(&|ctx: &mut ExecutionContext<'_>| base_sky_with(&g, ctx)),
        completion: &|o| o.completion,
        check: &|o, comp, label| {
            if comp == Completion::Complete {
                assert_eq!(o.skyline, full.skyline, "{label}");
            } else {
                for v in &o.skyline {
                    assert!(full.skyline.binary_search(v).is_ok(), "{label}: unsound");
                }
            }
        },
        fingerprint: &|o| fp_vertices(3, &o.skyline),
    });
}

#[test]
fn matrix_clique_bnb() {
    let g = erdos_renyi(34, 0.25, 27);
    let g2 = erdos_renyi(34, 0.25, 28);
    let (full, _) = max_clique_bnb(&g);
    run_matrix(MatrixCase {
        name: "clique-bnb",
        parallel: false,
        run: &|ctx: &mut ExecutionContext<'_>| max_clique_bnb_with(&g, ctx),
        wrong_graph: &|ctx: &mut ExecutionContext<'_>| max_clique_bnb_with(&g2, ctx),
        foreign: &|| tripped_snapshot(&|ctx: &mut ExecutionContext<'_>| base_sky_with(&g, ctx)),
        completion: &|o| o.completion,
        check: &|o, comp, label| {
            if comp == Completion::Complete {
                assert_eq!(o.clique, full, "{label}");
            } else {
                assert!(
                    o.clique.is_empty() || is_clique(&g, &o.clique),
                    "{label}: partial best-so-far is not a clique"
                );
            }
        },
        fingerprint: &|o| fp_vertices(4, &o.clique),
    });
}

#[test]
fn matrix_mc_brb() {
    let g = chung_lu_power_law(80, 2.6, 6.0, 29);
    let g2 = chung_lu_power_law(80, 2.6, 6.0, 30);
    let (full, _) = mc_brb(&g);
    run_matrix(MatrixCase {
        name: "mc-brb",
        parallel: false,
        run: &|ctx: &mut ExecutionContext<'_>| mc_brb_with(&g, ctx),
        wrong_graph: &|ctx: &mut ExecutionContext<'_>| mc_brb_with(&g2, ctx),
        foreign: &|| tripped_snapshot(&|ctx: &mut ExecutionContext<'_>| base_sky_with(&g, ctx)),
        completion: &|o| o.completion,
        check: &|o, comp, label| {
            if comp == Completion::Complete {
                assert_eq!(o.clique, full, "{label}");
            } else {
                assert!(
                    o.clique.is_empty() || is_clique(&g, &o.clique),
                    "{label}: partial best-so-far is not a clique"
                );
            }
        },
        fingerprint: &|o| fp_vertices(5, &o.clique),
    });
}

#[test]
fn matrix_nei_sky_mc() {
    let g = chung_lu_power_law(80, 2.6, 6.0, 31);
    let g2 = chung_lu_power_law(80, 2.6, 6.0, 32);
    let full = nei_sky_mc(&g);
    let sky = |g| filter_refine_sky(g, &RefineConfig::default()).skyline;
    let input = NeiSkyMcInput::new(&g, &sky(&g));
    let input2 = NeiSkyMcInput::new(&g2, &sky(&g2));
    run_matrix(MatrixCase {
        name: "nei-sky-mc",
        parallel: false,
        run: &|ctx: &mut ExecutionContext<'_>| nei_sky_mc_with(&g, &input, ctx),
        wrong_graph: &|ctx: &mut ExecutionContext<'_>| nei_sky_mc_with(&g2, &input2, ctx),
        foreign: &|| tripped_snapshot(&|ctx: &mut ExecutionContext<'_>| base_sky_with(&g, ctx)),
        completion: &|o| o.completion,
        check: &|o, comp, label| {
            if comp == Completion::Complete {
                assert_eq!(o.clique, full.clique, "{label}");
                assert_eq!(o.skyline_size, full.skyline_size, "{label}");
            } else {
                assert!(
                    o.clique.is_empty() || is_clique(&g, &o.clique),
                    "{label}: partial best-so-far is not a clique"
                );
            }
        },
        fingerprint: &|o| mix(fp_vertices(6, &o.clique), o.skyline_size as u64),
    });
}

#[test]
fn matrix_topk_base() {
    let g = erdos_renyi(30, 0.3, 33);
    let g2 = erdos_renyi(30, 0.3, 34);
    let full = top_k_cliques(&g, 3, TopkMode::Base);
    run_matrix(MatrixCase {
        name: "topk-base",
        parallel: false,
        run: &|ctx: &mut ExecutionContext<'_>| top_k_cliques_with(&g, 3, TopkMode::Base, ctx),
        wrong_graph: &|ctx: &mut ExecutionContext<'_>| {
            top_k_cliques_with(&g2, 3, TopkMode::Base, ctx)
        },
        foreign: &|| tripped_snapshot(&|ctx: &mut ExecutionContext<'_>| base_sky_with(&g, ctx)),
        completion: &|o| o.completion,
        check: &|o, comp, label| {
            if comp == Completion::Complete {
                assert_eq!(o.cliques, full.cliques, "{label}");
                assert_eq!(o.seeds, full.seeds, "{label}");
            } else {
                // Completed rounds are exact: a prefix of the ranking.
                assert!(o.cliques.len() <= full.cliques.len(), "{label}");
                for (i, c) in o.cliques.iter().enumerate() {
                    assert_eq!(c, &full.cliques[i], "{label}: round {i} diverged");
                }
            }
        },
        fingerprint: &|o| {
            let h = o
                .cliques
                .iter()
                .fold(7, |h, c| fp_vertices(mix(h, 0xC11), c));
            fp_vertices(h, &o.seeds)
        },
    });
}

#[test]
fn matrix_topk_neisky() {
    let g = erdos_renyi(34, 0.25, 35);
    let g2 = erdos_renyi(34, 0.25, 36);
    let full = top_k_cliques(&g, 3, TopkMode::NeiSky);
    run_matrix(MatrixCase {
        name: "topk-neisky",
        parallel: false,
        run: &|ctx: &mut ExecutionContext<'_>| top_k_cliques_with(&g, 3, TopkMode::NeiSky, ctx),
        wrong_graph: &|ctx: &mut ExecutionContext<'_>| {
            top_k_cliques_with(&g2, 3, TopkMode::NeiSky, ctx)
        },
        foreign: &|| tripped_snapshot(&|ctx: &mut ExecutionContext<'_>| base_sky_with(&g, ctx)),
        completion: &|o| o.completion,
        check: &|o, comp, label| {
            if comp == Completion::Complete {
                assert_eq!(o.cliques, full.cliques, "{label}");
                assert_eq!(o.seeds, full.seeds, "{label}");
            } else {
                assert!(o.cliques.len() <= full.cliques.len(), "{label}");
                for (i, c) in o.cliques.iter().enumerate() {
                    assert_eq!(c, &full.cliques[i], "{label}: round {i} diverged");
                }
            }
        },
        fingerprint: &|o| {
            let h = o
                .cliques
                .iter()
                .fold(8, |h, c| fp_vertices(mix(h, 0xC11), c));
            fp_vertices(h, &o.seeds)
        },
    });
}

#[test]
fn matrix_greedy_plain() {
    let g = erdos_renyi(36, 0.12, 37);
    let g2 = erdos_renyi(36, 0.12, 38);
    let opts = GreedyOptions::default();
    let full = greedy_group(&g, Harmonic, 3, &opts);
    run_matrix(MatrixCase {
        name: "greedy-plain",
        parallel: false,
        run: &|ctx: &mut ExecutionContext<'_>| greedy_group_with(&g, Harmonic, 3, &opts, ctx),
        wrong_graph: &|ctx: &mut ExecutionContext<'_>| {
            greedy_group_with(&g2, Harmonic, 3, &opts, ctx)
        },
        foreign: &|| tripped_snapshot(&|ctx: &mut ExecutionContext<'_>| base_sky_with(&g, ctx)),
        completion: &|o| o.completion,
        check: &|o, comp, label| {
            if comp == Completion::Complete {
                assert_eq!(o.group, full.group, "{label}");
                assert_eq!(
                    o.score_trace, full.score_trace,
                    "{label}: float replay drifted"
                );
                assert_eq!(o.score, full.score, "{label}");
            } else {
                // The committed prefix is exactly the open-loop greedy's.
                assert!(o.group.len() <= full.group.len(), "{label}");
                assert_eq!(o.group, full.group[..o.group.len()], "{label}");
            }
        },
        fingerprint: &|o| mix(fp_vertices(9, &o.group), o.score.to_bits()),
    });
}

#[test]
fn matrix_greedy_celf() {
    let g = erdos_renyi(36, 0.12, 39);
    let g2 = erdos_renyi(36, 0.12, 40);
    let opts = GreedyOptions::optimized();
    let full = greedy_group(&g, Harmonic, 3, &opts);
    run_matrix(MatrixCase {
        name: "greedy-celf",
        parallel: false,
        run: &|ctx: &mut ExecutionContext<'_>| greedy_group_with(&g, Harmonic, 3, &opts, ctx),
        wrong_graph: &|ctx: &mut ExecutionContext<'_>| {
            greedy_group_with(&g2, Harmonic, 3, &opts, ctx)
        },
        foreign: &|| tripped_snapshot(&|ctx: &mut ExecutionContext<'_>| base_sky_with(&g, ctx)),
        completion: &|o| o.completion,
        check: &|o, comp, label| {
            if comp == Completion::Complete {
                assert_eq!(o.group, full.group, "{label}");
                assert_eq!(
                    o.score_trace, full.score_trace,
                    "{label}: float replay drifted"
                );
                assert_eq!(o.score, full.score, "{label}");
            } else {
                assert!(o.group.len() <= full.group.len(), "{label}");
                assert_eq!(o.group, full.group[..o.group.len()], "{label}");
            }
        },
        fingerprint: &|o| mix(fp_vertices(10, &o.group), o.score.to_bits()),
    });
}

#[test]
fn matrix_greedy_celf_closeness() {
    // Closeness (the server's default measure) over every vertex of a
    // sparse graph with 45 components: the empty-group seeding scores
    // the pool in bit-parallel batches of 64 + 64 + 2, so deadline
    // trips, checkpoints and the kill sweep land inside the second and
    // third batches, and unreachable vertices carry the n penalty.
    let g = erdos_renyi(130, 0.01, 43);
    let g2 = erdos_renyi(130, 0.01, 44);
    let opts = GreedyOptions::optimized();
    let full = greedy_group(&g, Closeness, 2, &opts);
    run_matrix(MatrixCase {
        name: "greedy-celf-closeness",
        parallel: false,
        run: &|ctx: &mut ExecutionContext<'_>| greedy_group_with(&g, Closeness, 2, &opts, ctx),
        wrong_graph: &|ctx: &mut ExecutionContext<'_>| {
            greedy_group_with(&g2, Closeness, 2, &opts, ctx)
        },
        foreign: &|| tripped_snapshot(&|ctx: &mut ExecutionContext<'_>| base_sky_with(&g, ctx)),
        completion: &|o| o.completion,
        check: &|o, comp, label| {
            if comp == Completion::Complete {
                assert_eq!(o.group, full.group, "{label}");
                assert_eq!(
                    o.score_trace, full.score_trace,
                    "{label}: float replay drifted"
                );
                assert_eq!(o.score, full.score, "{label}");
            } else {
                assert!(o.group.len() <= full.group.len(), "{label}");
                assert_eq!(o.group, full.group[..o.group.len()], "{label}");
            }
        },
        fingerprint: &|o| mix(fp_vertices(12, &o.group), o.score.to_bits()),
    });
}

#[test]
fn matrix_nei_sky_group() {
    let g = chung_lu_power_law(56, 2.7, 5.0, 41);
    let g2 = chung_lu_power_law(56, 2.7, 5.0, 42);
    let full = nei_sky_group(&g, Harmonic, 3, true);
    let build = |g| {
        NeiSkyGroupInput::build(g, Harmonic, None, &ExecutionContext::new())
            .expect("an unlimited build completes")
    };
    let (input, input2) = (build(&g), build(&g2));
    run_matrix(MatrixCase {
        name: "nei-sky-group",
        parallel: false,
        run: &|ctx: &mut ExecutionContext<'_>| nei_sky_group_with(&g, &input, 3, true, ctx),
        wrong_graph: &|ctx: &mut ExecutionContext<'_>| {
            nei_sky_group_with(&g2, &input2, 3, true, ctx)
        },
        foreign: &|| tripped_snapshot(&|ctx: &mut ExecutionContext<'_>| base_sky_with(&g, ctx)),
        completion: &|o| o.greedy.completion,
        check: &|o, comp, label| {
            if comp == Completion::Complete {
                assert_eq!(o.greedy.group, full.greedy.group, "{label}");
                assert_eq!(o.greedy.score, full.greedy.score, "{label}");
                assert_eq!(o.skyline_size, full.skyline_size, "{label}");
            } else {
                // Both phases share the budget; the partial group never
                // exceeds the requested size.
                assert!(o.greedy.group.len() <= 3, "{label}");
            }
        },
        fingerprint: &|o| {
            mix(
                mix(fp_vertices(11, &o.greedy.group), o.greedy.score.to_bits()),
                o.skyline_size as u64,
            )
        },
    });
}

/// The matrix shape itself is part of the contract: 8 single-fault
/// cells plus every pairwise combination outside the resume axis.
#[test]
fn matrix_covers_all_singles_and_pairs() {
    let cells = cells();
    assert_eq!(cells.iter().filter(|c| c.len() == 1).count(), 8);
    // C(8,2) = 28 pairs, minus C(4,2) = 6 resume-resume pairs.
    assert_eq!(cells.iter().filter(|c| c.len() == 2).count(), 22);
    for cell in &cells {
        assert!(cell.iter().filter(|f| f.is_resume()).count() <= 1);
    }
}

// ---------------------------------------------------------------------
// Cross-thread cancellation racing a checkpoint save.
// ---------------------------------------------------------------------

/// A checkpoint sink that raises the budget's [`CancelToken`] from
/// another thread *while* the underlying [`FileCheckpointer::save`] is
/// in flight, joining the canceller before the save returns — so the
/// cancel is guaranteed raised mid-save and observed at the very next
/// poll, deterministically.
struct CancelMidSave {
    inner: FileCheckpointer,
    token: nsky_skyline::budget::CancelToken,
    /// Saves to complete before the racing one (so the file already
    /// holds a full older snapshot when the race hits).
    saves_before_race: u32,
    raced: bool,
}

impl Checkpointer for CancelMidSave {
    fn save(&mut self, snapshot: &Snapshot) -> Result<(), RecoveryError> {
        if self.raced || self.saves_before_race > 0 {
            self.saves_before_race = self.saves_before_race.saturating_sub(1);
            return self.inner.save(snapshot);
        }
        self.raced = true;
        let token = self.token.clone();
        let canceller = std::thread::spawn(move || token.cancel());
        let result = self.inner.save(snapshot);
        canceller.join().expect("canceller panicked");
        result
    }
}

/// Cancellation arriving while `FileCheckpointer::save` is mid-write
/// must never tear the file: the atomic temp-plus-rename leaves either
/// the previous snapshot or the new one on disk, both resumable, and
/// the kernel stops with [`Completion::Cancelled`] at the next poll.
#[test]
fn cancel_mid_checkpoint_save_never_tears_the_file() {
    let g = chung_lu_power_law(72, 2.8, 5.0, 43);
    let full = base_sky(&g);
    // Race the cancel against the first save and against a later save
    // (file empty vs. file already holding an older full snapshot).
    for saves_before_race in [0, 2] {
        let path = scratch_path(&format!("cancel-mid-save-{saves_before_race}"));
        let budget = ExecutionBudget::unlimited().check_interval(1);
        budget.set_checkpoint_period(1);
        let mut sink = CancelMidSave {
            inner: FileCheckpointer::new(&path),
            token: budget.cancel_token(),
            saves_before_race,
            raced: false,
        };
        let run = {
            let mut ctx = ExecutionContext::new()
                .budget(&budget)
                .checkpoint(Some(&mut sink as &mut dyn Checkpointer));
            base_sky_with(&g, &mut ctx)
        };
        assert!(sink.raced, "checkpoint period 1 never reached a save");
        assert_eq!(
            run.outcome.completion,
            Completion::Cancelled,
            "cancel raised mid-save was not observed at the next poll"
        );
        assert!(run.snapshot.is_some(), "cancelled run left no snapshot");
        // Whatever the race left on disk, it is a complete image — the
        // old snapshot or the new one, never a torn hybrid — and
        // resuming from it converges to the uninterrupted answer.
        let on_disk = Snapshot::load(&path)
            .unwrap_or_else(|e| panic!("saves_before_race={saves_before_race}: torn file: {e}"));
        let resumed = run_ctx(
            &|ctx: &mut ExecutionContext<'_>| base_sky_with(&g, ctx),
            None,
            Some(&on_disk),
            None,
            None,
        );
        assert!(resumed.recovery.is_none() && resumed.snapshot.is_none());
        assert_eq!(resumed.outcome.skyline, full.skyline);
        let _ = std::fs::remove_file(&path);
    }
}
