//! Ablation benches for the design choices DESIGN.md calls out:
//! bloom-filter width, whole-filter pre-check, min-degree-neighbor scan,
//! BaseSky early exit, and CELF lazy evaluation. Runs on the std-only
//! `nsky_bench::micro` harness.

use nsky_bench::micro::Group;
use nsky_centrality::greedy::{greedy_group, GreedyOptions};
use nsky_centrality::measure::Harmonic;
use nsky_graph::generators::leafy_preferential;
use nsky_graph::Graph;
use nsky_skyline::budget::ExecutionBudget;
use nsky_skyline::obs::{CountingRecorder, NoopRecorder};
use nsky_skyline::snapshot::FileCheckpointer;
use nsky_skyline::{
    base_sky, base_sky_early_exit, base_sky_with, filter_refine_sky, filter_refine_sky_with,
    ExecutionContext, RefineConfig,
};
use std::time::Duration;

fn graph() -> Graph {
    leafy_preferential(10_000, 0.95, 1.5, 5, 42)
}

fn bench_ablation_bloom_width() {
    let g = graph();
    let mut group = Group::new("ablation_bloom");
    group.sample_size(10);
    for bits in [0.5f64, 1.0, 2.0, 8.0] {
        let cfg = RefineConfig {
            bloom_bits_per_element: bits,
            ..RefineConfig::default()
        };
        group.bench(&format!("{bits}b/elem"), || filter_refine_sky(&g, &cfg));
    }
    group.finish();
}

fn bench_ablation_switches() {
    let g = graph();
    let mut group = Group::new("ablation_switches");
    group.sample_size(10);
    let variants: Vec<(&str, RefineConfig)> = vec![
        ("default", RefineConfig::default()),
        (
            "no-prefilter",
            RefineConfig {
                use_word_prefilter: false,
                ..RefineConfig::default()
            },
        ),
        (
            "no-min-neighbor",
            RefineConfig {
                scan_min_neighbor: false,
                ..RefineConfig::default()
            },
        ),
        ("paper-faithful", RefineConfig::paper_faithful()),
    ];
    for (name, cfg) in variants {
        group.bench(name, || filter_refine_sky(&g, &cfg));
    }
    group.finish();
}

fn bench_ablation_early_exit() {
    let g = graph();
    let mut group = Group::new("ablation_early_exit");
    group
        .sample_size(10)
        .bench("BaseSky-faithful", || base_sky(&g))
        .bench("BaseSky-early-exit", || base_sky_early_exit(&g))
        .finish();
}

fn bench_ablation_celf() {
    let g = leafy_preferential(1_500, 0.94, 1.5, 8, 7);
    let k = 10;
    let mut group = Group::new("ablation_celf");
    group
        .sample_size(10)
        .bench("plain-greedy", || {
            greedy_group(&g, Harmonic, k, &GreedyOptions::default())
        })
        .bench("celf-lazy", || {
            greedy_group(&g, Harmonic, k, &GreedyOptions::optimized())
        })
        .finish();
}

/// The cost of an armed-but-untripped budget: open-loop kernels vs their
/// `*_with` entry points under a far wall-clock deadline that forces
/// every ticker poll without ever tripping. Target: <2% overhead (the
/// `[Complete]` tag on the budgeted lines confirms no trip occurred).
fn bench_ablation_budget_overhead() {
    let g = graph();
    let cfg = RefineConfig::default();
    let far = || ExecutionBudget::with_timeout(Duration::from_secs(3600));
    let mut group = Group::new("budget_overhead");
    group
        .sample_size(10)
        .bench("FilterRefineSky-open-loop", || filter_refine_sky(&g, &cfg))
        .bench_budgeted("FilterRefineSky-budgeted", || {
            let r = filter_refine_sky_with(&g, &cfg, &mut ExecutionContext::new().budget(&far()))
                .outcome;
            let completion = r.completion;
            (r, completion)
        })
        .bench("BaseSky-open-loop", || base_sky(&g))
        .bench_budgeted("BaseSky-budgeted", || {
            let r = base_sky_with(&g, &mut ExecutionContext::new().budget(&far())).outcome;
            let completion = r.completion;
            (r, completion)
        })
        .finish();
}

/// The cost of periodic checkpointing on an uninterrupted run: budgeted
/// kernels (no checkpoint period armed) vs contexts that also arm a
/// [`FileCheckpointer`] sink, snapshotting every 1024 polls (the
/// CLI's default `--checkpoint-interval`). Target: <5% overhead at the
/// default interval; the denser 64-poll line shows how the cost scales
/// when snapshots are taken 16x as often.
fn bench_ablation_checkpoint_overhead() {
    let g = graph();
    let cfg = RefineConfig::default();
    let far = || ExecutionBudget::with_timeout(Duration::from_secs(3600));
    let path = std::env::temp_dir().join(format!("nsky-bench-ck-{}.snap", std::process::id()));
    let mut group = Group::new("checkpoint_overhead");
    group
        .sample_size(10)
        .bench_budgeted("FilterRefineSky-no-checkpoint", || {
            let r = filter_refine_sky_with(&g, &cfg, &mut ExecutionContext::new().budget(&far()))
                .outcome;
            let completion = r.completion;
            (r, completion)
        });
    for period in [1024u64, 64] {
        group.bench_budgeted(&format!("FilterRefineSky-every-{period}-polls"), || {
            let budget = far();
            budget.set_checkpoint_period(period);
            let mut sink = FileCheckpointer::new(&path);
            let mut ctx = ExecutionContext::new()
                .budget(&budget)
                .checkpoint(Some(&mut sink));
            let run = filter_refine_sky_with(&g, &cfg, &mut ctx);
            let completion = run.outcome.completion;
            (run, completion)
        });
    }
    group.bench_budgeted("BaseSky-no-checkpoint", || {
        let r = base_sky_with(&g, &mut ExecutionContext::new().budget(&far())).outcome;
        let completion = r.completion;
        (r, completion)
    });
    for period in [1024u64, 64] {
        group.bench_budgeted(&format!("BaseSky-every-{period}-polls"), || {
            let budget = far();
            budget.set_checkpoint_period(period);
            let mut sink = FileCheckpointer::new(&path);
            let mut ctx = ExecutionContext::new()
                .budget(&budget)
                .checkpoint(Some(&mut sink));
            let run = base_sky_with(&g, &mut ctx);
            let completion = run.outcome.completion;
            (run, completion)
        });
    }
    group.finish();
    std::fs::remove_file(&path).ok();
}

/// The cost of observability on the refine kernel: the uninstrumented
/// entry point vs `filter_refine_sky_with` under a [`NoopRecorder`]
/// (target: within noise — every recorder call is an inlined no-op) and
/// under a live [`CountingRecorder`] (target: <3% — counters are bulk
/// deltas flushed at phase boundaries, never per-event atomics).
fn bench_ablation_obs_overhead() {
    let g = graph();
    let cfg = RefineConfig::default();
    let mut group = Group::new("obs_overhead");
    group
        .sample_size(10)
        .bench("refine-uninstrumented", || filter_refine_sky(&g, &cfg))
        .bench("refine-noop-recorder", || {
            filter_refine_sky_with(
                &g,
                &cfg,
                &mut ExecutionContext::new().recorder(&NoopRecorder),
            )
            .outcome
        })
        .bench("refine-counting-recorder", || {
            let rec = CountingRecorder::new();
            filter_refine_sky_with(&g, &cfg, &mut ExecutionContext::new().recorder(&rec)).outcome
        })
        .finish();
}

fn main() {
    bench_ablation_bloom_width();
    bench_ablation_switches();
    bench_ablation_early_exit();
    bench_ablation_celf();
    bench_ablation_budget_overhead();
    bench_ablation_checkpoint_overhead();
    bench_ablation_obs_overhead();
}
