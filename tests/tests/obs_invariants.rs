//! Metrics-invariant layer for the observability subsystem: every
//! counter the kernels flush through a [`Recorder`] must satisfy the
//! paper's accounting identities, runs under a `NoopRecorder` must be
//! byte-identical to the uninstrumented entry points, and the JSON run
//! report must round-trip through the std-only decoder while rejecting
//! truncated or bit-flipped payloads with a typed error.
//!
//! Graphs come from a deterministic SplitMix64-driven sweep so failures
//! reproduce exactly; no test here reads a clock or the filesystem.

use nsky_centrality::greedy::{greedy_group, greedy_group_with, GreedyOptions};
use nsky_centrality::measure::{Closeness, Harmonic};
use nsky_centrality::neisky::{nei_sky_group, nei_sky_group_with};
use nsky_clique::{
    max_clique_bnb, max_clique_bnb_with, mc_brb, mc_brb_with, nei_sky_mc, nei_sky_mc_with,
    top_k_cliques, top_k_cliques_with, TopkMode,
};
use nsky_graph::generators::special::{clique, cycle, star};
use nsky_graph::generators::{chung_lu_power_law, erdos_renyi, leafy_preferential};
use nsky_graph::Graph;
use nsky_skyline::obs::{ReportError, SCHEMA_VERSION};
use nsky_skyline::snapshot::{FaultFile, FaultKind};
use nsky_skyline::{
    base_sky, base_sky_with, filter_refine_sky, filter_refine_sky_par, filter_refine_sky_par_with,
    filter_refine_sky_with, Completion, Counter, CountingRecorder, ExecutionContext, NoopRecorder,
    Recorder, RefineConfig, RunReport, SkylineResult,
};

/// A context armed with `rec` and nothing else.
fn recorded(rec: &dyn Recorder) -> ExecutionContext<'_> {
    ExecutionContext::new().recorder(rec)
}

/// SplitMix64: the seed stream for the sweep. Chosen over the harness's
/// XorShift because it tolerates any seed (including 0) and every
/// output is a fresh, well-mixed 64-bit word.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The deterministic graph sweep: special families that exercise the
/// skyline's edge cases plus random graphs across density regimes.
fn sweep() -> Vec<(String, Graph)> {
    let mut rng = SplitMix64::new(0x0b5e_7ab5);
    let mut graphs = vec![
        ("empty".to_string(), Graph::empty(0)),
        ("edgeless".to_string(), Graph::empty(6)),
        ("clique8".to_string(), clique(8)),
        ("cycle12".to_string(), cycle(12)),
        ("star16".to_string(), star(16)),
    ];
    for round in 0..6 {
        let n = 20 + (rng.next() % 61) as usize;
        let p = 0.04 + (rng.next() % 28) as f64 / 100.0;
        graphs.push((
            format!("er{round}(n={n},p={p:.2})"),
            erdos_renyi(n, p, rng.next()),
        ));
    }
    graphs.push((
        "power_law".to_string(),
        chung_lu_power_law(300, 2.7, 6.0, rng.next()),
    ));
    graphs.push((
        "leafy".to_string(),
        leafy_preferential(250, 0.85, 1.0, 4, rng.next()),
    ));
    graphs
}

/// `SkylineResult` deliberately does not implement `PartialEq`; compare
/// every observable field so the Noop identity test cannot silently
/// narrow.
fn assert_same_skyline(label: &str, a: &SkylineResult, b: &SkylineResult) {
    assert_eq!(a.skyline, b.skyline, "{label}: skyline diverged");
    assert_eq!(
        a.dominator, b.dominator,
        "{label}: dominator array diverged"
    );
    assert_eq!(
        a.candidates, b.candidates,
        "{label}: candidate set diverged"
    );
    assert_eq!(a.stats, b.stats, "{label}: counters diverged");
    assert_eq!(a.completion, b.completion, "{label}: completion diverged");
}

/// Filter candidates bound the skyline, refine checks are bounded by
/// candidate pairs, the bloom filter's hit/reject split accounts for
/// every containment query, and the recorder's table equals the stats
/// struct counter-for-counter.
#[test]
fn skyline_counters_satisfy_the_accounting_identities() {
    for (label, g) in sweep() {
        let n = g.num_vertices() as u64;
        let rec = CountingRecorder::new();
        let out = filter_refine_sky_with(&g, &RefineConfig::default(), &mut recorded(&rec)).outcome;
        assert_eq!(out.completion, Completion::Complete, "{label}");
        let stats = &out.stats;

        // The filter phase may only over-approximate the skyline.
        assert!(
            stats.candidate_count >= out.skyline.len(),
            "{label}: {} candidates < {} skyline vertices",
            stats.candidate_count,
            out.skyline.len()
        );
        // Refine tests each candidate against potential dominators —
        // never more than candidates × (n − 1) ordered pairs.
        let c = stats.candidate_count as u64;
        assert!(
            stats.pair_tests <= c * n.saturating_sub(1),
            "{label}: {} pair tests exceed the candidate-pair bound",
            stats.pair_tests
        );
        // Every bloom containment query resolves to exactly one of:
        // hit, word-level reject, bit-level reject.
        assert_eq!(
            stats.bloom_queries,
            stats.bloom_hits + stats.bf_word_rejects + stats.bf_bit_rejects,
            "{label}: bloom accounting leak"
        );

        // The bulk flush must mirror the stats struct exactly.
        assert_eq!(rec.value(Counter::CandidatesEmitted), c, "{label}");
        assert_eq!(rec.value(Counter::PairTests), stats.pair_tests, "{label}");
        assert_eq!(
            rec.value(Counter::BloomQueries),
            stats.bloom_queries,
            "{label}"
        );
        assert_eq!(rec.value(Counter::BloomHits), stats.bloom_hits, "{label}");
        assert_eq!(
            rec.value(Counter::BloomWordRejects),
            stats.bf_word_rejects,
            "{label}"
        );
        assert_eq!(
            rec.value(Counter::BloomBitRejects),
            stats.bf_bit_rejects,
            "{label}"
        );
        assert_eq!(
            rec.value(Counter::AdjacencyProbes),
            stats.adjacency_probes,
            "{label}"
        );
        assert_eq!(
            rec.value(Counter::PeakBytes),
            stats.peak_bytes as u64,
            "{label}"
        );

        // An unlimited-budget run closes all three phases, in order.
        let phases = rec.phases();
        let names: Vec<&str> = phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["filter", "bloom_build", "refine"], "{label}");
        for pair in phases.windows(2) {
            assert!(
                pair[0].start_nanos <= pair[1].start_nanos,
                "{label}: phases out of order"
            );
        }
        for p in &phases {
            assert!(
                p.end_nanos >= p.start_nanos,
                "{label}: span `{}` ends before it starts",
                p.name
            );
        }
    }
}

/// `BaseSky` has no filter phase: its candidate pool is every vertex,
/// and the flush mirrors that.
#[test]
fn base_sky_counters_cover_every_vertex() {
    for (label, g) in sweep() {
        let rec = CountingRecorder::new();
        let out = base_sky_with(&g, &mut recorded(&rec)).outcome;
        assert_eq!(out.stats.candidate_count, g.num_vertices(), "{label}");
        assert_eq!(
            rec.value(Counter::CandidatesEmitted),
            g.num_vertices() as u64,
            "{label}"
        );
        assert_eq!(
            rec.value(Counter::PairTests),
            out.stats.pair_tests,
            "{label}"
        );
        // BaseSky never touches a bloom filter.
        assert_eq!(rec.value(Counter::BloomQueries), 0, "{label}");
    }
}

/// Every kernel's `*_with` entry point under a `NoopRecorder` returns
/// results identical to its uninstrumented entry point, field by field.
#[test]
fn noop_recorder_runs_match_their_uninstrumented_twins() {
    let noop = NoopRecorder;
    let cfg = RefineConfig::default();
    for (label, g) in sweep() {
        assert_same_skyline(
            &format!("{label}/refine"),
            &filter_refine_sky(&g, &cfg),
            &filter_refine_sky_with(&g, &cfg, &mut recorded(&noop)).outcome,
        );
        assert_same_skyline(
            &format!("{label}/base"),
            &base_sky(&g),
            &base_sky_with(&g, &mut recorded(&noop)).outcome,
        );
        assert_same_skyline(
            &format!("{label}/par"),
            &filter_refine_sky_par(&g, &cfg, 2),
            &filter_refine_sky_par_with(&g, &cfg, 2, &mut recorded(&noop)).outcome,
        );

        let (bnb_clique, bnb_stats) = max_clique_bnb(&g);
        let bnb_rec = max_clique_bnb_with(&g, &mut recorded(&noop)).outcome;
        assert_eq!(bnb_rec.clique, bnb_clique, "{label}/bnb");
        assert_eq!(bnb_rec.stats, bnb_stats, "{label}/bnb");

        let (brb_clique, brb_stats) = mc_brb(&g);
        let brb_rec = mc_brb_with(&g, &mut recorded(&noop)).outcome;
        assert_eq!(brb_rec.clique, brb_clique, "{label}/mcbrb");
        assert_eq!(brb_rec.stats, brb_stats, "{label}/mcbrb");

        let nsm = nei_sky_mc(&g);
        let nsm_rec = nei_sky_mc_with(&g, &mut recorded(&noop)).outcome;
        assert_eq!(nsm_rec.clique, nsm.clique, "{label}/neisky_mc");
        assert_eq!(nsm_rec.stats, nsm.stats, "{label}/neisky_mc");
        assert_eq!(nsm_rec.skyline_size, nsm.skyline_size, "{label}/neisky_mc");

        let topk = top_k_cliques(&g, 3, TopkMode::NeiSky);
        let topk_rec = top_k_cliques_with(&g, 3, TopkMode::NeiSky, &mut recorded(&noop)).outcome;
        assert_eq!(topk_rec.cliques, topk.cliques, "{label}/topk");
        assert_eq!(topk_rec.seeds, topk.seeds, "{label}/topk");
        assert_eq!(topk_rec.stats, topk.stats, "{label}/topk");
    }

    // Greedy group centrality is quadratic in the BFS frontier — one
    // mid-size graph keeps the twin check meaningful and fast.
    let g = chung_lu_power_law(200, 2.7, 6.0, 11);
    let opts = GreedyOptions::optimized();
    let plain = greedy_group(&g, Harmonic, 4, &opts);
    let twin = greedy_group_with(&g, Harmonic, 4, &opts, &mut recorded(&noop)).outcome;
    assert_eq!(twin.group, plain.group, "greedy group diverged");
    assert_eq!(twin.score, plain.score, "greedy score diverged");
    assert_eq!(twin.gain_evaluations, plain.gain_evaluations);
    assert_eq!(twin.lazy_skips, plain.lazy_skips);
    assert_eq!(twin.score_trace, plain.score_trace);

    let plain = nei_sky_group(&g, Closeness, 4, true);
    let twin = nei_sky_group_with(&g, Closeness, 4, true, &mut recorded(&noop)).outcome;
    assert_eq!(
        twin.greedy.group, plain.greedy.group,
        "nei_sky group diverged"
    );
    assert_eq!(twin.greedy.score, plain.greedy.score);
    assert_eq!(twin.greedy.gain_evaluations, plain.greedy.gain_evaluations);
    assert_eq!(twin.skyline_size, plain.skyline_size);
}

/// Skyline-restricted branch-and-bound never expands more nodes than
/// the unrestricted solver, every seed is either pruned or searched,
/// and the recorder mirrors the clique stats exactly.
#[test]
fn skyline_pruning_shrinks_the_clique_search() {
    for (label, g) in sweep() {
        let rec = CountingRecorder::new();
        let out = nei_sky_mc_with(&g, &mut recorded(&rec)).outcome;
        let (bnb_clique, bnb_stats) = max_clique_bnb(&g);
        assert_eq!(
            out.clique.len(),
            bnb_clique.len(),
            "{label}: clique size diverged"
        );

        // ISSUE invariant: nodes expanded with skyline pruning never
        // exceed nodes expanded without it.
        assert!(
            out.stats.branches <= bnb_stats.branches,
            "{label}: skyline pruning expanded {} > {} nodes",
            out.stats.branches,
            bnb_stats.branches
        );
        // Each skyline seed is either core-pruned or seeds one root call.
        assert_eq!(
            out.stats.root_calls + out.stats.skyline_prunes,
            out.skyline_size as u64,
            "{label}: seed accounting leak"
        );

        assert_eq!(
            rec.value(Counter::NodesExpanded),
            out.stats.branches,
            "{label}"
        );
        assert_eq!(
            rec.value(Counter::BoundCuts),
            out.stats.bound_prunes,
            "{label}"
        );
        assert_eq!(
            rec.value(Counter::RootCalls),
            out.stats.root_calls,
            "{label}"
        );
        assert_eq!(
            rec.value(Counter::SkylinePrunes),
            out.stats.skyline_prunes,
            "{label}"
        );
        assert_eq!(
            rec.value(Counter::CandidatesEmitted),
            out.skyline_size as u64,
            "{label}"
        );
        let names: Vec<String> = rec.phases().into_iter().map(|p| p.name).collect();
        assert_eq!(names, ["neisky_mc"], "{label}");
    }
}

/// Greedy centrality flushes its evaluation counters through the
/// recorder, and the skyline-restricted variant reports its pool size.
#[test]
fn greedy_counters_flush_through_the_recorder() {
    let g = chung_lu_power_law(200, 2.7, 6.0, 7);
    let rec = CountingRecorder::new();
    let out = greedy_group_with(
        &g,
        Harmonic,
        3,
        &GreedyOptions::optimized(),
        &mut recorded(&rec),
    )
    .outcome;
    assert_eq!(rec.value(Counter::GainEvaluations), out.gain_evaluations);
    assert_eq!(rec.value(Counter::LazySkips), out.lazy_skips);
    assert!(out.gain_evaluations >= out.group.len() as u64);
    let names: Vec<String> = rec.phases().into_iter().map(|p| p.name).collect();
    assert_eq!(names, ["greedy"]);

    let rec = CountingRecorder::new();
    let out = nei_sky_group_with(&g, Closeness, 3, true, &mut recorded(&rec)).outcome;
    assert_eq!(
        rec.value(Counter::CandidatesEmitted),
        out.skyline_size as u64
    );
    assert_eq!(
        rec.value(Counter::GainEvaluations),
        out.greedy.gain_evaluations
    );
    let names: Vec<String> = rec.phases().into_iter().map(|p| p.name).collect();
    assert_eq!(names, ["skyline", "greedy"]);
}

/// The incremental engine's counters flush exactly, per-delta dirty
/// sets never exceed the 2-hop bound of the touched endpoints, and a
/// zero-delta update is a byte-identical no-op on both the witness
/// array and the counter table.
#[test]
fn dynamic_counters_flush_and_respect_the_two_hop_bound() {
    use nsky_graph::{DeltaGraph, EdgeDelta};
    use nsky_skyline::{domination, MutableSkyline};
    let mut rng = SplitMix64::new(0xD1_4411);
    for (label, g) in sweep() {
        let n = g.num_vertices();
        if n < 2 {
            continue;
        }
        let mut engine = MutableSkyline::new(g.clone());
        for step in 0..12 {
            let u = (rng.next() % n as u64) as u32;
            let mut v = (rng.next() % n as u64) as u32;
            if u == v {
                v = (v + 1) % n as u32;
            }
            let pre = engine.current_graph();
            let d = if rng.next() % 2 == 0 {
                EdgeDelta::Insert(u, v)
            } else {
                EdgeDelta::Delete(u, v)
            };
            let rec = CountingRecorder::new();
            let out = engine.apply_batch_with(&[d], &mut recorded(&rec)).outcome;
            assert_eq!(out.completion, Completion::Complete, "{label} step {step}");

            // The bulk flush mirrors the outcome stats exactly.
            assert_eq!(
                rec.value(Counter::DeltasApplied),
                out.stats.applied,
                "{label}"
            );
            assert_eq!(
                rec.value(Counter::DirtyVertices),
                out.stats.dirty_vertices,
                "{label}"
            );
            assert_eq!(
                rec.value(Counter::ScopedRefines),
                out.stats.scoped_refines,
                "{label}"
            );

            if out.stats.applied == 0 {
                // A no-op delta counts as skipped and touches nothing.
                assert_eq!(out.stats.skipped, 1, "{label} step {step}");
                assert_eq!(out.stats.dirty_vertices, 0, "{label} step {step}");
                assert_eq!(engine.num_edges(), pre.num_edges(), "{label} step {step}");
                continue;
            }
            // Complete runs refine exactly the dirty set, and the dirty
            // set is bounded by the closed 2-hop balls of the touched
            // endpoints on the edge-present graph (after an insert /
            // before a delete).
            assert_eq!(
                out.stats.scoped_refines, out.stats.dirty_vertices,
                "{label} step {step}: refines != dirty"
            );
            let edge_present = if d.is_insert() {
                let mut dg = DeltaGraph::from_graph(pre);
                dg.apply(d);
                dg.materialize()
            } else {
                pre
            };
            let mut ball = domination::two_hop_neighbors(&edge_present, u);
            ball.extend(domination::two_hop_neighbors(&edge_present, v));
            ball.push(u);
            ball.push(v);
            ball.sort_unstable();
            ball.dedup();
            assert!(
                out.stats.dirty_vertices <= ball.len() as u64,
                "{label} step {step}: dirty {} exceeds 2-hop bound {}",
                out.stats.dirty_vertices,
                ball.len()
            );
        }

        // Zero-delta update: counters stay zero, the witness array is
        // byte-identical, and nothing is recorded.
        let before = engine.dominator().to_vec();
        let rec = CountingRecorder::new();
        let out = engine.apply_batch_with(&[], &mut recorded(&rec)).outcome;
        assert_eq!(out.completion, Completion::Complete, "{label}");
        assert_eq!(engine.dominator(), before.as_slice(), "{label}");
        assert_eq!(out.stats.applied, 0, "{label}");
        assert_eq!(out.stats.skipped, 0, "{label}");
        assert_eq!(rec.value(Counter::DeltasApplied), 0, "{label}");
        assert_eq!(rec.value(Counter::DirtyVertices), 0, "{label}");
        assert_eq!(rec.value(Counter::ScopedRefines), 0, "{label}");
    }
}

/// A report built from a live recorder survives the JSON round trip;
/// short writes (via the fault-injected sink) and bit flips are
/// rejected with the matching typed error, never a garbage report.
#[test]
fn run_reports_round_trip_and_reject_corruption() {
    let g = erdos_renyi(48, 0.15, 42);
    let rec = CountingRecorder::new();
    let result = filter_refine_sky_with(&g, &RefineConfig::default(), &mut recorded(&rec)).outcome;
    let mut report =
        RunReport::from_recorder("FilterRefineSky", g.fingerprint(), result.completion, &rec);
    report.push_event("budget tripped by nothing — sentinel \"quoted\" event");

    let json = report.to_json();
    let parsed = RunReport::from_json(&json).expect("intact report parses");
    assert_eq!(parsed, report);
    assert_eq!(parsed.schema_version, SCHEMA_VERSION);
    assert_eq!(
        parsed.counter("candidates_emitted"),
        Some(result.stats.candidate_count as u64)
    );

    // A crash-truncated file: the ShortWrite sink lies about success,
    // so only the decoder's checksum trailer can catch the loss.
    for budget in [2, 10, json.len() / 2, json.len() - 2] {
        let mut sink = FaultFile::new(budget, FaultKind::ShortWrite);
        report
            .write_to(&mut sink)
            .expect("short writes lie about success");
        let prefix = std::str::from_utf8(sink.written()).expect("prefix cut at char boundary");
        let err = RunReport::from_json(prefix).expect_err("truncated report must not parse");
        assert!(
            matches!(err, ReportError::Truncated | ReportError::ChecksumMismatch),
            "budget {budget}: unexpected error {err:?}"
        );
    }

    // A single flipped byte in the body fails the checksum.
    let mut flipped = json.clone().into_bytes();
    let target = json
        .find("candidates_emitted")
        .expect("counter row present");
    flipped[target] ^= 0x04; // 'c' -> 'g', still valid UTF-8
    let err = RunReport::from_json(std::str::from_utf8(&flipped).expect("still utf-8"))
        .expect_err("bit flip must not parse");
    assert_eq!(err, ReportError::ChecksumMismatch);

    // Future schema versions are rejected with the version surfaced.
    let mut future = report.clone();
    future.schema_version = SCHEMA_VERSION + 1;
    let err = RunReport::from_json(&future.to_json()).expect_err("future schema must not parse");
    assert_eq!(
        err,
        ReportError::SchemaVersion {
            found: u64::from(SCHEMA_VERSION) + 1
        }
    );
}
