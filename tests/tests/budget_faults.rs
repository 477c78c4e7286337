//! Deterministic fault-injection tests for the execution-budget layer:
//! every instrumented kernel, tripped at an exact poll via
//! [`TripClock`], must stop within one check interval, report the right
//! [`Completion`], return a *valid* partial answer, and never panic.
//! Byte-identity under an unlimited budget is asserted by every
//! `fault_matrix.rs` calibration run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use nsky_centrality::greedy::{greedy_group, greedy_group_with, GreedyOptions};
use nsky_centrality::measure::{Closeness, GroupMeasure, Harmonic};
use nsky_centrality::neisky::{nei_sky_group_with, NeiSkyGroupInput};
use nsky_clique::{
    is_clique, max_clique_bnb_with, mc_brb_with, nei_sky_mc_with, top_k_cliques,
    top_k_cliques_with, NeiSkyMcInput, TopkMode,
};
use nsky_graph::generators::chung_lu_power_law;
use nsky_graph::Graph;
use nsky_skyline::budget::{CancelToken, Completion, DeadlineClock, ExecutionBudget, TripClock};
use nsky_skyline::{
    base_sky, base_sky_with, filter_refine_sky, filter_refine_sky_par_with, filter_refine_sky_with,
    ExecutionContext, RefineConfig,
};

fn graph(seed: u64) -> Graph {
    chung_lu_power_law(300, 2.8, 5.0, seed)
}

/// A context armed with `budget` and nothing else.
fn ctx(budget: &ExecutionBudget) -> ExecutionContext<'_> {
    ExecutionContext::new().budget(budget)
}

/// A budget with a deterministic clock tripping on poll `k` (and a
/// handle to the clock's poll counter), polling on every tick.
fn trip_budget(k: u64) -> (ExecutionBudget, Arc<TripClock>) {
    let clock = Arc::new(TripClock::at_poll(k));
    let budget = ExecutionBudget::unlimited()
        .deadline(Arc::clone(&clock))
        .check_interval(1);
    (budget, clock)
}

/// Calibrates a kernel: runs it under a never-tripping counting clock
/// and returns how many polls a complete run makes, so trip points can
/// be chosen strictly inside the run.
fn calibrate(run: impl FnOnce(&ExecutionBudget)) -> u64 {
    let (budget, clock) = trip_budget(u64::MAX);
    run(&budget);
    let total = clock.polls();
    assert!(
        total > 4,
        "kernel too small to fault-inject ({total} polls)"
    );
    total
}

/// NeiSkyMC's prepared input, built without a budget.
fn clique_input(g: &Graph) -> NeiSkyMcInput {
    NeiSkyMcInput::new(g, &filter_refine_sky(g, &RefineConfig::default()).skyline)
}

/// NeiSkyGC/NeiSkyGH's prepared input, built without a budget.
fn group_input<M: GroupMeasure>(g: &Graph, measure: M) -> NeiSkyGroupInput<M> {
    NeiSkyGroupInput::build(g, measure, None, &ExecutionContext::new())
        .expect("an unlimited build completes")
}

/// Trip points spread across a run of `total` polls: first poll, middle
/// of the run, and the poll just before completion.
fn trip_points(total: u64) -> [u64; 3] {
    [1, total / 2, total - 1]
}

#[test]
fn base_sky_trips_at_exact_poll_with_sound_prefix() {
    let g = graph(1);
    let full = base_sky(&g);
    let total = calibrate(|b| {
        base_sky_with(&g, &mut ctx(b));
    });
    for k in trip_points(total) {
        let (budget, clock) = trip_budget(k);
        let partial = base_sky_with(&g, &mut ctx(&budget)).outcome;
        assert_eq!(partial.completion, Completion::DeadlineExceeded, "k={k}");
        // Stops within one tick of the trip: the tripping poll is the
        // clock's last (sticky trips never re-consult the clock).
        assert_eq!(clock.polls(), k);
        for v in &partial.skyline {
            assert!(full.skyline.binary_search(v).is_ok(), "unsound partial");
        }
        if k == total - 1 {
            assert!(!partial.skyline.is_empty(), "k={k} verified nothing");
        }
    }
}

#[test]
fn refine_trips_at_exact_poll_with_sound_prefix() {
    let g = graph(2);
    let cfg = RefineConfig::default();
    let full = filter_refine_sky(&g, &cfg);
    let total = calibrate(|b| {
        filter_refine_sky_with(&g, &cfg, &mut ctx(b));
    });
    for k in trip_points(total) {
        let (budget, clock) = trip_budget(k);
        let partial = filter_refine_sky_with(&g, &cfg, &mut ctx(&budget)).outcome;
        assert_eq!(partial.completion, Completion::DeadlineExceeded, "k={k}");
        assert_eq!(clock.polls(), k);
        for v in &partial.skyline {
            assert!(full.skyline.binary_search(v).is_ok(), "unsound partial");
        }
        if k == total - 1 {
            assert!(!partial.skyline.is_empty(), "k={k} verified nothing");
        }
    }
}

#[test]
fn parallel_refine_trips_and_workers_stop_within_one_interval() {
    let g = graph(3);
    let cfg = RefineConfig::default();
    let full = filter_refine_sky(&g, &cfg);
    let threads = 4;
    let total = calibrate(|b| {
        filter_refine_sky_par_with(&g, &cfg, threads, &mut ctx(b));
    });
    for k in trip_points(total) {
        let (budget, clock) = trip_budget(k);
        let partial = filter_refine_sky_par_with(&g, &cfg, threads, &mut ctx(&budget)).outcome;
        assert_eq!(partial.completion, Completion::DeadlineExceeded);
        // Workers racing the publication of the sticky trip may each
        // land one more clock poll, but never a second.
        assert!(
            clock.polls() >= k && clock.polls() < k + threads as u64,
            "k={k}: {} polls",
            clock.polls()
        );
        for v in &partial.skyline {
            assert!(full.skyline.binary_search(v).is_ok(), "unsound partial");
        }
    }
}

#[test]
fn clique_kernels_trip_with_valid_nonempty_best_so_far() {
    let g = graph(4);

    let total = calibrate(|b| {
        max_clique_bnb_with(&g, &mut ctx(b));
    });
    for k in trip_points(total) {
        let (budget, clock) = trip_budget(k);
        let run = max_clique_bnb_with(&g, &mut ctx(&budget)).outcome;
        assert_eq!(run.completion, Completion::DeadlineExceeded, "k={k}");
        assert_eq!(clock.polls(), k);
        assert!(!run.clique.is_empty() && is_clique(&g, &run.clique));
    }

    let total = calibrate(|b| {
        mc_brb_with(&g, &mut ctx(b));
    });
    for k in trip_points(total) {
        let (budget, clock) = trip_budget(k);
        let run = mc_brb_with(&g, &mut ctx(&budget)).outcome;
        assert_eq!(run.completion, Completion::DeadlineExceeded, "k={k}");
        assert_eq!(clock.polls(), k);
        assert!(!run.clique.is_empty() && is_clique(&g, &run.clique));
    }

    let input = clique_input(&g);
    let total = calibrate(|b| {
        nei_sky_mc_with(&g, &input, &mut ctx(b));
    });
    for k in trip_points(total) {
        let (budget, clock) = trip_budget(k);
        let out = nei_sky_mc_with(&g, &input, &mut ctx(&budget)).outcome;
        assert_eq!(out.completion, Completion::DeadlineExceeded, "k={k}");
        assert_eq!(clock.polls(), k);
        assert!(!out.clique.is_empty() && is_clique(&g, &out.clique));
    }
}

#[test]
fn topk_trips_report_only_completed_rounds() {
    let g = graph(5);
    for mode in [TopkMode::Base, TopkMode::NeiSky] {
        let full = top_k_cliques(&g, 4, mode);
        let total = calibrate(|b| {
            top_k_cliques_with(&g, 4, mode, &mut ctx(b));
        });
        for k in trip_points(total) {
            let (budget, clock) = trip_budget(k);
            let partial = top_k_cliques_with(&g, 4, mode, &mut ctx(&budget)).outcome;
            assert_eq!(partial.completion, Completion::DeadlineExceeded, "{mode:?}");
            assert_eq!(clock.polls(), k, "{mode:?}");
            assert!(partial.cliques.len() <= full.cliques.len());
            // Completed rounds are exact: a prefix of the full ranking.
            for (i, c) in partial.cliques.iter().enumerate() {
                assert_eq!(c, &full.cliques[i], "{mode:?} round {i} diverged");
            }
        }
    }
}

#[test]
fn greedy_trips_keep_the_committed_prefix() {
    let g = graph(6);
    for opts in [GreedyOptions::default(), GreedyOptions::optimized()] {
        let full = greedy_group(&g, Harmonic, 6, &opts);
        let total = calibrate(|b| {
            greedy_group_with(&g, Harmonic, 6, &opts, &mut ctx(b));
        });
        for k in trip_points(total) {
            let (budget, clock) = trip_budget(k);
            let partial = greedy_group_with(&g, Harmonic, 6, &opts, &mut ctx(&budget)).outcome;
            assert_eq!(partial.completion, Completion::DeadlineExceeded);
            assert_eq!(clock.polls(), k);
            // The committed prefix is exactly the open-loop greedy's.
            assert!(partial.group.len() <= full.group.len());
            assert_eq!(partial.group, full.group[..partial.group.len()]);
        }
    }
}

#[test]
fn neisky_group_shares_one_budget_across_phases() {
    let g = graph(7);
    let input = group_input(&g, Closeness);
    let total = calibrate(|b| {
        nei_sky_group_with(&g, &input, 4, true, &mut ctx(b));
    });
    for k in trip_points(total) {
        let (budget, _clock) = trip_budget(k);
        let out = nei_sky_group_with(&g, &input, 4, true, &mut ctx(&budget)).outcome;
        assert_eq!(out.greedy.completion, Completion::DeadlineExceeded, "k={k}");
        assert!(out.greedy.group.len() <= 4);
    }
}

#[test]
fn memory_caps_trip_before_allocating() {
    let g = graph(8);
    let cfg = RefineConfig::default();

    let tiny = || ExecutionBudget::unlimited().memory_cap(64);
    assert_eq!(
        base_sky_with(&g, &mut ctx(&tiny())).outcome.completion,
        Completion::MemoryCapped
    );
    assert_eq!(
        filter_refine_sky_with(&g, &cfg, &mut ctx(&tiny()))
            .outcome
            .completion,
        Completion::MemoryCapped
    );
    assert_eq!(
        filter_refine_sky_par_with(&g, &cfg, 2, &mut ctx(&tiny()))
            .outcome
            .completion,
        Completion::MemoryCapped
    );
    assert_eq!(
        mc_brb_with(&g, &mut ctx(&tiny())).outcome.completion,
        Completion::MemoryCapped
    );
    assert_eq!(
        greedy_group_with(
            &g,
            Harmonic,
            3,
            &GreedyOptions::optimized(),
            &mut ctx(&tiny())
        )
        .outcome
        .completion,
        Completion::MemoryCapped
    );
    assert_eq!(
        nei_sky_group_with(&g, &group_input(&g, Harmonic), 3, true, &mut ctx(&tiny()))
            .outcome
            .greedy
            .completion,
        Completion::MemoryCapped
    );

    // A generous cap never trips and changes nothing.
    let roomy = ExecutionBudget::unlimited().memory_cap(1 << 30);
    let r = filter_refine_sky_with(&g, &cfg, &mut ctx(&roomy)).outcome;
    assert_eq!(r.completion, Completion::Complete);
    assert_eq!(r.skyline, filter_refine_sky(&g, &cfg).skyline);
    assert!(roomy.charged_bytes() > 0, "refine charges its allocations");

    // The greedy engine charges its evaluator (17 B/vertex) and the
    // seeding BFS's seen/frontier/next rows (24 B/vertex).
    let roomy = ExecutionBudget::unlimited().memory_cap(1 << 30);
    let opts = GreedyOptions::optimized();
    let out = greedy_group_with(&g, Harmonic, 3, &opts, &mut ctx(&roomy)).outcome;
    assert_eq!(out.completion, Completion::Complete);
    assert_eq!(out.group, greedy_group(&g, Harmonic, 3, &opts).group);
    assert!(
        roomy.charged_bytes() >= g.num_vertices() * (17 + 24),
        "greedy charged {} B for {} vertices",
        roomy.charged_bytes(),
        g.num_vertices()
    );
}

/// FilterRefineSky's filter phase gives every vertex of degree at
/// least `2·⌈n/64⌉` a dense row of `⌈n/64⌉` words and charges the rows
/// before building them. A cap one byte short of the
/// rows trips there, with nothing else charged and no candidate set; a
/// cap of exactly the rows lets the filter phase finish and trips at
/// the refine phase's first charge instead.
#[test]
fn filter_phase_rows_are_charged_before_they_are_built() {
    let g = graph(13);
    let cfg = RefineConfig::default();
    let words = g.num_vertices().div_ceil(64);
    let hubs = g.vertices().filter(|&v| g.degree(v) >= 2 * words).count();
    assert!(hubs > 0, "the graph needs a hub row");
    let rows = hubs * words * 8;
    let full = filter_refine_sky(&g, &cfg);

    let short = ExecutionBudget::unlimited().memory_cap(rows - 1);
    let r = filter_refine_sky_with(&g, &cfg, &mut ctx(&short)).outcome;
    assert_eq!(r.completion, Completion::MemoryCapped);
    assert!(r.skyline.is_empty() && r.candidates.is_none());
    assert_eq!(r.stats.candidate_count, 0);
    assert_eq!(short.charged_bytes(), rows, "only the rows were charged");
    let short = ExecutionBudget::unlimited().memory_cap(rows - 1);
    let r = filter_refine_sky_par_with(&g, &cfg, 2, &mut ctx(&short)).outcome;
    assert_eq!(r.completion, Completion::MemoryCapped);
    assert!(r.skyline.is_empty() && r.candidates.is_none());
    assert_eq!(short.charged_bytes(), rows, "only the rows were charged");

    let exact = ExecutionBudget::unlimited().memory_cap(rows);
    let r = filter_refine_sky_with(&g, &cfg, &mut ctx(&exact)).outcome;
    assert_eq!(r.completion, Completion::MemoryCapped);
    assert_eq!(r.candidates, full.candidates, "the filter phase finished");
    assert!(exact.charged_bytes() > rows);
}

#[test]
fn pre_cancelled_budget_stops_the_parallel_refine_immediately() {
    // The fault matrix accepts `Complete` from parallel kernels in every
    // tripping cell (their workers race the trip point), so it cannot
    // pin this case: a cancel raised before the run must stop the
    // workers at their first poll.
    let g = graph(9);
    let cfg = RefineConfig::default();
    let cancelled = ExecutionBudget::unlimited().check_interval(1);
    cancelled.cancel_token().cancel();
    assert_eq!(
        filter_refine_sky_par_with(&g, &cfg, 2, &mut ctx(&cancelled))
            .outcome
            .completion,
        Completion::Cancelled
    );
}

#[test]
fn cancellation_mid_run_is_observed_cooperatively() {
    // A worker thread cancels while the main thread grinds BaseSky on a
    // larger graph; the kernel must come back with `Cancelled` (or have
    // legitimately finished first on a very fast machine).
    let g = chung_lu_power_law(3_000, 2.6, 8.0, 10);
    let budget = ExecutionBudget::unlimited();
    let token = budget.cancel_token();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            std::thread::sleep(Duration::from_millis(2));
            token.cancel();
        });
        let r = base_sky_with(&g, &mut ctx(&budget)).outcome;
        assert!(
            r.completion == Completion::Cancelled || r.completion == Completion::Complete,
            "unexpected status {:?}",
            r.completion
        );
    });
}

/// A deadline clock that never expires but raises the budget's
/// [`CancelToken`] on its `at`-th consultation — from whichever worker
/// thread happens to make that poll — so the *other* workers must
/// observe the flag cross-thread through the shared budget.
struct CancelAtPoll {
    token: CancelToken,
    remaining: AtomicU64,
    polls: AtomicU64,
}

impl CancelAtPoll {
    fn at_poll(token: CancelToken, k: u64) -> Self {
        CancelAtPoll {
            token,
            remaining: AtomicU64::new(k.saturating_sub(1)),
            polls: AtomicU64::new(0),
        }
    }

    fn polls(&self) -> u64 {
        self.polls.load(Ordering::Relaxed)
    }
}

impl DeadlineClock for CancelAtPoll {
    fn expired(&self) -> bool {
        self.polls.fetch_add(1, Ordering::Relaxed);
        if self
            .remaining
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1))
            .is_err()
        {
            self.token.cancel();
        }
        false
    }
}

#[test]
fn cancel_token_crosses_threads_mid_parallel_run() {
    // Deterministic cross-thread cancellation: one worker's poll raises
    // the token mid-run; every other worker observes it through the
    // shared budget and stops within one check interval.
    let g = graph(12);
    let cfg = RefineConfig::default();
    let full = filter_refine_sky(&g, &cfg);
    let threads = 4;
    let total = calibrate(|b| {
        filter_refine_sky_par_with(&g, &cfg, threads, &mut ctx(b));
    });
    for k in trip_points(total) {
        let budget = ExecutionBudget::unlimited().check_interval(1);
        let clock = Arc::new(CancelAtPoll::at_poll(budget.cancel_token(), k));
        let budget = budget.deadline(Arc::clone(&clock));
        let partial = filter_refine_sky_par_with(&g, &cfg, threads, &mut ctx(&budget)).outcome;
        assert_eq!(partial.completion, Completion::Cancelled, "k={k}");
        // Cancellation is checked *before* the deadline clock, so once a
        // worker sees the flag its polls stop counting: each of the
        // other workers lands at most one further consultation.
        assert!(
            clock.polls() >= k && clock.polls() < k + threads as u64,
            "k={k}: {} polls — a worker outlived its check interval",
            clock.polls()
        );
        for v in &partial.skyline {
            assert!(full.skyline.binary_search(v).is_ok(), "unsound partial");
        }
    }
}

#[test]
fn zero_timeout_trips_every_kernel_without_panicking() {
    let g = graph(11);
    let cfg = RefineConfig::default();
    let zero = || ExecutionBudget::with_timeout(Duration::ZERO).check_interval(1);
    assert!(!base_sky_with(&g, &mut ctx(&zero()))
        .outcome
        .completion
        .is_complete());
    assert!(!filter_refine_sky_with(&g, &cfg, &mut ctx(&zero()))
        .outcome
        .completion
        .is_complete());
    assert!(!filter_refine_sky_par_with(&g, &cfg, 3, &mut ctx(&zero()))
        .outcome
        .completion
        .is_complete());
    assert!(!max_clique_bnb_with(&g, &mut ctx(&zero()))
        .outcome
        .completion
        .is_complete());
    assert!(!mc_brb_with(&g, &mut ctx(&zero()))
        .outcome
        .completion
        .is_complete());
    assert!(!nei_sky_mc_with(&g, &clique_input(&g), &mut ctx(&zero()))
        .outcome
        .completion
        .is_complete());
    assert!(
        !top_k_cliques_with(&g, 3, TopkMode::Base, &mut ctx(&zero()))
            .outcome
            .completion
            .is_complete()
    );
    assert!(!greedy_group_with(
        &g,
        Closeness,
        3,
        &GreedyOptions::optimized(),
        &mut ctx(&zero())
    )
    .outcome
    .completion
    .is_complete());
    assert!(
        !nei_sky_group_with(&g, &group_input(&g, Harmonic), 3, true, &mut ctx(&zero()))
            .outcome
            .greedy
            .completion
            .is_complete()
    );
}
