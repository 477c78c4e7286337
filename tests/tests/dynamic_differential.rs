//! Differential proof of incremental skyline maintenance: after every
//! single edge delta and after randomized batches, the incremental
//! engine (`MutableSkyline`) must agree exactly with a from-scratch
//! recompute — across adversarial generator families and composed with
//! the fault matrix (deadline trips mid-batch must leave an exact
//! committed prefix, and resume must converge to the exact answer).
//!
//! Randomness is the library's own SplitMix64 (seeded, reproducible);
//! the from-scratch reference is the `O(n²·dmax)` naive oracle, which
//! shares no code with the incremental path.

use nsky_graph::generators::{barabasi_albert, erdos_renyi};
use nsky_graph::prng::SplitMix64;
use nsky_graph::{EdgeDelta, Graph, VertexId};
use nsky_skyline::budget::{ExecutionBudget, TripClock};
use nsky_skyline::incremental::DynamicSkyline;
use nsky_skyline::oracle::naive_skyline;
use nsky_skyline::{filter_refine_sky, ExecutionContext, MutableSkyline, RefineConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A chain of closed-twin pairs: `2i`/`2i+1` share a closed
/// neighborhood, so every toggle shuffles tie-break decisions.
fn twin_chain(k: usize) -> Graph {
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    for i in 0..k {
        let v = (2 * i) as u32;
        let t = v + 1;
        edges.push((v, t));
        if i + 1 < k {
            for a in [v, t] {
                for b in [v + 2, v + 3] {
                    edges.push((a, b));
                }
            }
        }
    }
    Graph::from_edges(2 * k, edges)
}

/// Two bridged hubs with private leaves: hub/leaf domination flips on
/// single-edge changes near the bridge.
fn double_star(a: usize, b: usize) -> Graph {
    let mut edges: Vec<(VertexId, VertexId)> = vec![(0, 1)];
    for leaf in 0..a {
        edges.push((0, (2 + leaf) as u32));
    }
    for leaf in 0..b {
        edges.push((1, (2 + a + leaf) as u32));
    }
    Graph::from_edges(2 + a + b, edges)
}

/// Complete bipartite `K_{a,b}`: the skyline collapses to one side and
/// a single deletion un-collapses it.
fn complete_bipartite(a: usize, b: usize) -> Graph {
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    for u in 0..a {
        for v in 0..b {
            edges.push((u as u32, (a + v) as u32));
        }
    }
    Graph::from_edges(a + b, edges)
}

/// The differential matrix's generator families: twin-heavy, star-like,
/// bipartite-degenerate, and ER/BA random stand-ins.
fn families(seed: u64) -> Vec<(String, Graph)> {
    vec![
        ("twin_chain(6)".into(), twin_chain(6)),
        ("double_star(5,8)".into(), double_star(5, 8)),
        ("k_bipartite(4,7)".into(), complete_bipartite(4, 7)),
        ("er(40,0.08)".into(), erdos_renyi(40, 0.08, seed)),
        ("er(60,0.04)".into(), erdos_renyi(60, 0.04, seed ^ 0xA5)),
        ("ba(50,2)".into(), barabasi_albert(50, 2, seed ^ 0x5A)),
    ]
}

/// A uniformly random delta (either kind) on `n` vertices.
fn random_delta(rng: &mut SplitMix64, n: usize) -> EdgeDelta {
    let u = rng.next_below(n as u64) as VertexId;
    let mut v = rng.next_below(n as u64) as VertexId;
    if u == v {
        v = (v + 1) % n as VertexId;
    }
    if rng.next_bool(0.5) {
        EdgeDelta::Insert(u, v)
    } else {
        EdgeDelta::Delete(u, v)
    }
}

/// A batch of deltas that are all *effective* on `g` when applied in
/// order (no duplicate inserts / absent deletes), tracked against a
/// shadow edge set — the precondition for inverse round-trips.
fn effective_batch(rng: &mut SplitMix64, g: &Graph, len: usize) -> Vec<EdgeDelta> {
    let n = g.num_vertices();
    let mut present: BTreeSet<(VertexId, VertexId)> = g.edges().collect();
    let mut batch = Vec::with_capacity(len);
    while batch.len() < len {
        let d = random_delta(rng, n);
        let (u, v) = d.endpoints();
        let key = (u.min(v), u.max(v));
        if d.is_insert() == present.contains(&key) {
            continue; // would be a no-op at this point in the batch
        }
        if d.is_insert() {
            present.insert(key);
        } else {
            present.remove(&key);
        }
        batch.push(d);
    }
    batch
}

#[test]
fn every_single_delta_matches_from_scratch_across_families() {
    for (label, g) in families(101) {
        let mut engine = MutableSkyline::new(g.clone());
        let n = g.num_vertices();
        let mut rng = SplitMix64::new(0xD1FF ^ n as u64);
        for step in 0..50 {
            let d = random_delta(&mut rng, n);
            let out = engine.apply_batch(&[d]);
            assert!(out.is_complete(), "{label} step {step}");
            let current = engine.current_graph();
            let truth = naive_skyline(&current).skyline;
            assert_eq!(out.skyline, truth, "{label} step {step} delta {d}");
            // The from-scratch production kernel agrees too.
            assert_eq!(
                filter_refine_sky(&current, &RefineConfig::default()).skyline,
                truth,
                "{label} step {step}"
            );
        }
    }
}

#[test]
fn insert_only_delete_only_and_mixed_batches_match_from_scratch() {
    for (label, g) in families(202) {
        let n = g.num_vertices();
        let mut rng = SplitMix64::new(0xBA7C ^ n as u64);
        // Insert-only, delete-only, and mixed batches, each checked
        // against the oracle on the resulting graph.
        let inserts: Vec<EdgeDelta> = (0..40)
            .map(|_| {
                let (u, v) = random_delta(&mut rng, n).endpoints();
                EdgeDelta::Insert(u, v)
            })
            .collect();
        let deletes: Vec<EdgeDelta> = g
            .edges()
            .enumerate()
            .filter(|(i, _)| i % 2 == 0)
            .map(|(_, (u, v))| EdgeDelta::Delete(u, v))
            .collect();
        let mixed: Vec<EdgeDelta> = (0..60).map(|_| random_delta(&mut rng, n)).collect();
        for (kind, batch) in [
            ("insert-only", inserts),
            ("delete-only", deletes),
            ("mixed", mixed),
        ] {
            let mut engine = MutableSkyline::new(g.clone());
            let out = engine.apply_batch(&batch);
            assert!(out.is_complete(), "{label} {kind}");
            assert_eq!(out.cursor, batch.len(), "{label} {kind}");
            assert_eq!(
                out.skyline,
                naive_skyline(&engine.current_graph()).skyline,
                "{label} {kind}"
            );
        }
    }
}

#[test]
fn inverse_round_trips_restore_graph_and_skyline() {
    for (label, g) in families(303) {
        let mut rng = SplitMix64::new(0x1420 ^ g.num_edges() as u64);
        let forward = effective_batch(&mut rng, &g, 25);
        let backward: Vec<EdgeDelta> = forward.iter().rev().map(|d| d.inverse()).collect();
        let original_skyline = naive_skyline(&g).skyline;
        let mut engine = MutableSkyline::new(g.clone());
        let mid = engine.apply_batch(&forward);
        assert!(mid.is_complete(), "{label}");
        assert_eq!(mid.stats.skipped, 0, "{label}: batch built to be effective");
        let out = engine.apply_batch(&backward);
        assert!(out.is_complete(), "{label}");
        assert_eq!(engine.current_graph(), g, "{label}: graph not restored");
        assert_eq!(
            out.skyline, original_skyline,
            "{label}: skyline not restored"
        );
    }
}

/// Fault composition: a deadline trip mid-batch must leave the engine
/// exactly at a delta boundary — the partial answer is the *exact*
/// skyline of the committed prefix — and resuming the same batch (via
/// the trip's snapshot) must converge to the exact final answer.
#[test]
fn deadline_trips_mid_batch_yield_exact_prefixes_and_resume_converges() {
    for (label, g) in families(404) {
        let n = g.num_vertices();
        let mut rng = SplitMix64::new(0xFA17 ^ n as u64);
        let batch: Vec<EdgeDelta> = (0..30).map(|_| random_delta(&mut rng, n)).collect();
        let full_truth = {
            let mut reference = MutableSkyline::new(g.clone());
            let out = reference.apply_batch(&batch);
            assert_eq!(
                out.skyline,
                naive_skyline(&reference.current_graph()).skyline,
                "{label}: reference run"
            );
            out.skyline
        };
        for trip_at in [1u64, 5, 13, 41, 97] {
            let mut engine = MutableSkyline::new(g.clone());
            let budget = ExecutionBudget::unlimited()
                .deadline(TripClock::at_poll(trip_at))
                .check_interval(1);
            let run = engine.apply_batch_with(&batch, &mut ExecutionContext::new().budget(&budget));
            if run.outcome.is_complete() {
                assert_eq!(run.outcome.skyline, full_truth, "{label} trip@{trip_at}");
                continue;
            }
            let cursor = run.outcome.cursor;
            assert!(cursor < batch.len(), "{label} trip@{trip_at}");
            // Soundness, strengthened: the partial answer is the exact
            // skyline of the graph after the committed prefix.
            let mut prefix = MutableSkyline::new(g.clone());
            prefix.apply_batch(&batch[..cursor]);
            assert_eq!(
                run.outcome.skyline,
                naive_skyline(&prefix.current_graph()).skyline,
                "{label} trip@{trip_at}: partial not exact for prefix"
            );
            // Convergence: resume the same batch from the snapshot on
            // a *fresh* engine (crash recovery) and on the same engine.
            let snapshot = run.snapshot.expect("tripped run must snapshot");
            let mut fresh = MutableSkyline::new(g.clone());
            let recovered = fresh
                .apply_batch_with(&batch, &mut ExecutionContext::new().resume(Some(&snapshot)))
                .outcome;
            assert!(recovered.is_complete(), "{label} trip@{trip_at}");
            assert_eq!(
                recovered.skyline, full_truth,
                "{label} trip@{trip_at}: fresh"
            );
            let resumed = engine.apply_batch(&batch);
            assert!(resumed.is_complete(), "{label} trip@{trip_at}");
            assert_eq!(resumed.skyline, full_truth, "{label} trip@{trip_at}: same");
        }
    }
}

/// Satellite: the existing vertex-removal engine, swept with SplitMix64
/// removal orders across all generator families against the residual
/// oracle (induced subgraph + naive skyline, mapped back).
#[test]
fn vertex_removal_sweep_matches_residual_oracle_across_families() {
    for (label, g) in families(505) {
        let n = g.num_vertices();
        let mut rng = SplitMix64::new(0x0DE7 ^ n as u64);
        let mut dyn_sky = DynamicSkyline::new(&g);
        let mut order: Vec<VertexId> = g.vertices().collect();
        rng.shuffle(&mut order);
        let mut removed: BTreeSet<VertexId> = BTreeSet::new();
        for &x in order.iter().take(n / 2) {
            dyn_sky.remove_vertex(x);
            removed.insert(x);
            let keep: Vec<VertexId> = g.vertices().filter(|u| !removed.contains(u)).collect();
            let (sub, map) = nsky_graph::ops::induced_subgraph(&g, &keep);
            let expect: Vec<VertexId> = naive_skyline(&sub)
                .skyline
                .iter()
                .map(|&u| map[u as usize])
                .collect();
            assert_eq!(dyn_sky.skyline(), expect, "{label} removed {removed:?}");
        }
    }
}

/// Satellite cross-check: vertex removal re-expressed as a delta batch.
/// Deleting every edge incident to a removal set `X` leaves `X`
/// isolated (skyline by convention), so the edge-delta engine's skyline
/// must equal the vertex-removal engine's residual skyline plus `X`.
#[test]
fn vertex_removal_agrees_with_its_delta_batch_encoding() {
    for (label, g) in families(606) {
        let n = g.num_vertices();
        let mut rng = SplitMix64::new(0xC0DE ^ n as u64);
        let mut order: Vec<VertexId> = g.vertices().collect();
        rng.shuffle(&mut order);
        let removal: BTreeSet<VertexId> = order.iter().copied().take(n / 3).collect();
        // Vertex-removal engine.
        let mut dyn_sky = DynamicSkyline::new(&g);
        for &x in &removal {
            dyn_sky.remove_vertex(x);
        }
        // The same mutation as an edge-delta batch.
        let batch: Vec<EdgeDelta> = g
            .edges()
            .filter(|&(u, v)| removal.contains(&u) || removal.contains(&v))
            .map(|(u, v)| EdgeDelta::Delete(u, v))
            .collect();
        let mut engine = MutableSkyline::new(g.clone());
        let out = engine.apply_batch(&batch);
        assert!(out.is_complete(), "{label}");
        let mut expect: Vec<VertexId> = dyn_sky.skyline();
        expect.extend(removal.iter().copied());
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(out.skyline, expect, "{label} removal {removal:?}");
    }
}

/// Applies `batch` one delta per call: the per-delta repair that a
/// chunked batch must reproduce.
fn one_delta_per_call(g: &Graph, batch: &[EdgeDelta]) -> MutableSkyline {
    let mut engine = MutableSkyline::new(g.clone());
    for &d in batch {
        assert!(engine.apply_batch(&[d]).is_complete());
    }
    engine
}

/// Chunked repair is invisible in the answer: one `apply_batch` call
/// leaves the same skyline and the same witness for every vertex as
/// the same batch applied one delta per call, for batches shorter
/// than, as long as, and longer than one 64-delta chunk.
#[test]
fn one_call_matches_one_delta_per_call_witness_for_witness() {
    for (label, g) in families(707) {
        let n = g.num_vertices();
        let mut rng = SplitMix64::new(0xC4A2 ^ n as u64);
        for len in [1usize, 63, 64, 65, 130] {
            let batch: Vec<EdgeDelta> = (0..len).map(|_| random_delta(&mut rng, n)).collect();
            let mut chunked = MutableSkyline::new(g.clone());
            let out = chunked.apply_batch(&batch);
            assert!(out.is_complete(), "{label} len {len}");
            assert_eq!(out.cursor, len, "{label} len {len}");
            assert_eq!(out.stats.applied + out.stats.skipped, len as u64);
            let single = one_delta_per_call(&g, &batch);
            assert_eq!(out.skyline, single.skyline(), "{label} len {len}");
            assert_eq!(
                chunked.dominator(),
                single.dominator(),
                "{label} len {len}: witnesses differ"
            );
            assert_eq!(
                out.skyline,
                naive_skyline(&chunked.current_graph()).skyline,
                "{label} len {len}"
            );
        }
    }
}

/// A budget that trips at poll `k` (polling on every tick) and the
/// clock that counts its polls.
fn trip_at(k: u64) -> (ExecutionBudget, Arc<TripClock>) {
    let clock = Arc::new(TripClock::at_poll(k));
    let budget = ExecutionBudget::unlimited()
        .deadline(Arc::clone(&clock))
        .check_interval(1);
    (budget, clock)
}

/// A trip anywhere in a 130-delta batch undoes the open chunk: the
/// cursor lands on a chunk boundary (0, 64 or 128), the partial answer
/// is that prefix's exact skyline, and resuming converges to the
/// uninterrupted witnesses on the same engine and on a fresh one — a
/// fresh engine fast-forwards the committed prefix first.
#[test]
fn trips_at_every_poll_of_a_long_batch_leave_exact_chunk_prefixes() {
    for (label, g) in families(808) {
        let n = g.num_vertices();
        let mut rng = SplitMix64::new(0x7A11 ^ n as u64);
        let batch: Vec<EdgeDelta> = (0..130).map(|_| random_delta(&mut rng, n)).collect();
        let prefix_skyline = |cursor: usize| {
            let mut engine = MutableSkyline::new(g.clone());
            engine.apply_batch(&batch[..cursor]);
            naive_skyline(&engine.current_graph()).skyline
        };
        let prefixes: BTreeMap<usize, Vec<VertexId>> = [0, 64, 128]
            .into_iter()
            .map(|c| (c, prefix_skyline(c)))
            .collect();
        let mut reference = MutableSkyline::new(g.clone());
        let full = reference.apply_batch(&batch);
        assert_eq!(full.skyline, prefix_skyline(130), "{label}");

        let (budget, clock) = trip_at(u64::MAX);
        let mut calibration = MutableSkyline::new(g.clone());
        let run =
            calibration.apply_batch_with(&batch, &mut ExecutionContext::new().budget(&budget));
        assert!(run.outcome.is_complete(), "{label}");
        let total = clock.polls();

        let mut cursors = BTreeSet::new();
        for k in 1..=total {
            let (budget, _) = trip_at(k);
            let mut engine = MutableSkyline::new(g.clone());
            let run = engine.apply_batch_with(&batch, &mut ExecutionContext::new().budget(&budget));
            assert!(!run.outcome.is_complete(), "{label} k={k}/{total}");
            let cursor = run.outcome.cursor;
            let Some(expect) = prefixes.get(&cursor) else {
                panic!("{label} k={k}: cursor {cursor} is not a chunk boundary");
            };
            assert_eq!(&run.outcome.skyline, expect, "{label} k={k}");
            cursors.insert(cursor);

            let snapshot = run.snapshot.expect("a tripped run snapshots");
            let mut fresh = MutableSkyline::new(g.clone());
            let recovered = fresh
                .apply_batch_with(&batch, &mut ExecutionContext::new().resume(Some(&snapshot)))
                .outcome;
            assert!(recovered.is_complete(), "{label} k={k}");
            assert_eq!(recovered.stats, full.stats, "{label} k={k}: fresh");
            assert_eq!(fresh.dominator(), reference.dominator(), "{label} k={k}");

            let resumed = engine.apply_batch(&batch);
            assert!(resumed.is_complete(), "{label} k={k}");
            assert_eq!(resumed.stats, full.stats, "{label} k={k}: same");
            assert_eq!(engine.dominator(), reference.dominator(), "{label} k={k}");
        }
        assert_eq!(
            cursors.into_iter().collect::<Vec<_>>(),
            [0, 64, 128],
            "{label}: the sweep must reach every chunk boundary"
        );
    }
}

/// Checkpointing after every poll cannot starve a chunk: the driver's
/// backoff grows the period until a chunk commits, and the batch ends
/// with the same witnesses and counters as an unbudgeted run.
#[test]
fn a_one_poll_checkpoint_period_completes_with_the_same_bits() {
    for (label, g) in families(909) {
        let n = g.num_vertices();
        let mut rng = SplitMix64::new(0xC0C0 ^ n as u64);
        let batch: Vec<EdgeDelta> = (0..130).map(|_| random_delta(&mut rng, n)).collect();
        let mut reference = MutableSkyline::new(g.clone());
        let want = reference.apply_batch(&batch);
        let budget = ExecutionBudget::unlimited().check_interval(1);
        budget.set_checkpoint_period(1);
        let mut engine = MutableSkyline::new(g.clone());
        let run = engine.apply_batch_with(&batch, &mut ExecutionContext::new().budget(&budget));
        assert!(run.outcome.is_complete(), "{label}");
        assert!(run.snapshot.is_none(), "{label}");
        assert_eq!(run.outcome.skyline, want.skyline, "{label}");
        assert_eq!(run.outcome.stats, want.stats, "{label}");
        assert_eq!(engine.dominator(), reference.dominator(), "{label}");
    }
}
