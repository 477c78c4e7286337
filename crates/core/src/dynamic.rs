//! Incremental skyline maintenance under edge insert/delete.
//!
//! [`MutableSkyline`] owns a mutation-capable graph view
//! ([`DeltaGraph`]: packed CSR + sorted per-vertex overlays with
//! periodic compaction) and keeps the neighborhood skyline exact across
//! [`EdgeDelta`] streams. Each effective delta triggers a *scoped*
//! repair: a dirty-set worklist covering the touched endpoints, their
//! neighborhoods and each endpoint's twin candidates, re-refined with
//! exact per-vertex domination scans. Batches run through
//! [`ExecutionContext`] — budgeted, cancellable, recorded and
//! checkpointable like every other kernel.
//!
//! ## Why the dirty set is exhaustive
//!
//! Domination of `x` by `w` depends only on `N(x)` and `N[w]` plus the
//! `(deg, id)` tie-break (Definition 2). Toggling the edge `{u, v}`
//! changes only `N(u)`, `N(v)` and the two endpoint degrees, so a pair
//! `(x, w)` can change verdict only if `x ∈ {u, v}` or `w ∈ {u, v}`.
//! The first case puts `x` in the dirty set trivially. For the second,
//! take `w = u` (symmetric in `v`) and split on how the verdict flips:
//!
//! - **Inclusion flip.** `N(x) ⊆ N[u]` changes truth value only via
//!   the toggled element `v`: gaining `v` can complete the inclusion
//!   only if `v` was the missing element, and losing `v` can break it
//!   only if it was needed — both require `v ∈ N(x)`, i.e. `x ∈ N(v)`.
//! - **Tie-break flip.** With the inclusion true on both sides,
//!   `deg(u)` moves by one, so the verdict flips only when it crosses
//!   `deg(x)` — and inclusion with equal degrees forces `x` and `u` to
//!   be twins in the lower-degree graph. Adjacent twins satisfy
//!   `x ∈ N(u)`; non-adjacent twins have `N(x) = N(u) \ {v}` and hence
//!   lie in `N(a)` for *every* `a ∈ N(u) \ {v}`, so scanning the
//!   single cheapest such neighborhood `N(a_u)` (min-degree
//!   `a_u ∈ N(u) \ {v}`) covers them all. Isolated twins never flip:
//!   isolated vertices are unconditionally their own witness.
//!
//! The dirty set `{u, v} ∪ N(u) ∪ N(v) ∪ N(a_u) ∪ N(a_v)`, collected
//! on the *edge-present* graph (after an insert, before a delete — an
//! edge superset of both the old and the new graph, with `a_e` drawn
//! from `N(e) \ {other}` so its neighborhood is toggle-invariant),
//! therefore covers every vertex whose status can change, at
//! four-neighborhood cost instead of a 2-hop ball. An `x` outside the
//! dirty set keeps both its verdict *and* its recorded witness `w`:
//! the pair `(x, w)` flipped for no `w ∈ {u, v}`, and every other pair
//! is untouched, so the stored dominator array stays exact everywhere.
//!
//! ## Atomicity and anytime partials
//!
//! Per-delta repairs buffer recomputed `(vertex, dominator)` pairs in
//! scratch and commit only after the full dirty drain — the per-vertex
//! recompute never reads the dominator array, so the commit is
//! order-independent. On any mid-delta trip the scratch is discarded
//! and the graph edit rolled back with its exact inverse, leaving the
//! engine precisely at "after `cursor` fully-applied deltas": a
//! partial [`UpdateOutcome`] is not merely a sound subset but the
//! *exact* skyline of the committed prefix, and resume converges to
//! the exact final answer.

use crate::budget::{BudgetTicker, Completion, ExecutionBudget};
use crate::exec::{self, ExecutionContext};
use crate::obs::{Counter, Recorder};
use crate::refine::{filter_refine_sky, RefineConfig};
use crate::snapshot::{KernelId, KernelState, Reader, RecoveryError, ResumableRun, Writer};
use nsky_graph::{validate_batch, DeltaGraph, EdgeDelta, Graph, VertexId};

/// Cumulative bookkeeping of one delta batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Deltas that changed the graph (no-ops excluded).
    pub applied: u64,
    /// No-op deltas (duplicate inserts, absent deletes).
    pub skipped: u64,
    /// Vertices enqueued on the dirty worklist, summed over deltas.
    pub dirty_vertices: u64,
    /// Scoped per-vertex re-refine calls completed.
    pub scoped_refines: u64,
}

/// Result of [`MutableSkyline::apply_batch`] and
/// [`MutableSkyline::apply_batch_with`].
#[derive(Clone, Debug)]
pub struct UpdateOutcome {
    /// The exact skyline of the graph after the committed prefix,
    /// sorted ascending. On a partial run this is still *exact* — for
    /// the prefix graph — not just a sound subset.
    pub skyline: Vec<VertexId>,
    /// Deltas of the batch committed so far (`== total` iff complete).
    pub cursor: usize,
    /// Batch length.
    pub total: usize,
    /// Cumulative batch statistics (survive checkpoints and resume).
    pub stats: BatchStats,
    /// How the run ended.
    pub completion: Completion,
}

impl UpdateOutcome {
    /// Whether the whole batch was committed.
    pub fn is_complete(&self) -> bool {
        self.completion == Completion::Complete
    }
}

/// Flushes an outcome's counters into a recorder (bulk, at the
/// entry-point boundary — never from the hot loops).
pub fn record_update_stats(rec: &dyn Recorder, stats: &BatchStats) {
    rec.add(Counter::DeltasApplied, stats.applied);
    rec.add(Counter::DirtyVertices, stats.dirty_vertices);
    rec.add(Counter::ScopedRefines, stats.scoped_refines);
}

/// Resume state of an interrupted batch: the committed-prefix cursor,
/// the cumulative stats and the dominator array (exact for the prefix
/// graph). The graph itself is *not* serialized — it is reconstructed
/// by replaying the committed prefix of the same delta batch, which
/// the fingerprint binds to the snapshot (see
/// [`MutableSkyline::apply_batch_with`]).
struct DynamicState {
    cursor: usize,
    stats: BatchStats,
    dominator: Vec<VertexId>,
}

impl KernelState for DynamicState {
    const FORMAT_VERSION: u32 = 1;
    const KERNEL: KernelId = KernelId::DynamicMaintain;

    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.cursor);
        w.put_u64(self.stats.applied);
        w.put_u64(self.stats.skipped);
        w.put_u64(self.stats.dirty_vertices);
        w.put_u64(self.stats.scoped_refines);
        w.put_u32_slice(&self.dominator);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, RecoveryError> {
        r.expect_version(Self::FORMAT_VERSION)?;
        Ok(DynamicState {
            cursor: r.take_usize()?,
            stats: BatchStats {
                applied: r.take_u64()?,
                skipped: r.take_u64()?,
                dirty_vertices: r.take_u64()?,
                scoped_refines: r.take_u64()?,
            },
            dominator: r.take_u32_vec()?,
        })
    }
}

/// Reusable per-leg scratch (sized once, cleared per delta).
struct Scratch {
    nbrs: Vec<VertexId>,
    cand: Vec<VertexId>,
    dirty: Vec<VertexId>,
    newdom: Vec<(VertexId, VertexId)>,
    stamp: Vec<u32>,
    round: u32,
}

impl Scratch {
    fn new(n: usize) -> Scratch {
        Scratch {
            nbrs: Vec::new(),
            cand: Vec::new(),
            dirty: Vec::new(),
            newdom: Vec::new(),
            stamp: vec![u32::MAX; n],
            round: 0,
        }
    }
}

/// SplitMix64 finalizer (the same mixer as `Graph::fingerprint`).
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over a batch's ops and endpoints: binds a resume snapshot to
/// the exact batch it was taken from.
fn hash_deltas(deltas: &[EdgeDelta]) -> u64 {
    deltas.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, d| {
        let (u, v) = d.endpoints();
        let word = ((d.is_insert() as u64) << 63) | ((u as u64) << 32) | v as u64;
        (0..8).fold(h, |h, i| {
            (h ^ ((word >> (8 * i)) & 0xff)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    })
}

/// Exact dominator search for one vertex on the current view.
///
/// A dominator `w` of `x` satisfies `v ∈ N[w]` — equivalently
/// `w ∈ N[v]` — for **every** `v ∈ N(x)`, so scanning the closed
/// adjacency of a *single* neighbor covers all candidates; the
/// minimum-degree neighbor keeps the scan short (the `incremental`
/// module's trick, here on the mutable view). Inclusion `N(x) ⊆ N[w]`
/// forces `deg(w) ≥ deg(x)`, with equality exactly for mutual twins
/// (`domination` Fact 3 plus a short counting argument), so the twin
/// tie-break needs no second subset scan: `w` wins iff
/// `deg(w) > deg(x)` or `w < x`.
fn recompute_vertex(
    view: &DeltaGraph,
    x: VertexId,
    nbrs: &mut Vec<VertexId>,
    cand: &mut Vec<VertexId>,
    ticker: &mut BudgetTicker<'_>,
) -> Result<VertexId, Completion> {
    view.neighbors_into(x, nbrs);
    if nbrs.is_empty() {
        return Ok(x); // isolated: skyline by convention
    }
    let dx = nbrs.len();
    let Some(vmin) = nbrs.iter().copied().min_by_key(|&v| view.degree(v)) else {
        return Ok(x); // unreachable: nbrs was checked non-empty above
    };
    view.neighbors_into(vmin, cand);
    cand.push(vmin);
    // HOT: the scoped-refine scan — per-delta cost lives here.
    'cand: for &w in cand.iter() {
        if let Some(status) = ticker.check() {
            return Err(status);
        }
        if w == x || view.degree(w) < dx {
            continue;
        }
        for &y in nbrs.iter() {
            if let Some(status) = ticker.check() {
                return Err(status);
            }
            if y != w && !view.has_edge(w, y) {
                continue 'cand;
            }
        }
        // N(x) ⊆ N[w] holds; twins (equal degree) break by smaller ID.
        if view.degree(w) > dx || w < x {
            return Ok(w);
        }
    }
    Ok(x)
}

/// Neighborhood skyline of a graph under an edge-delta stream.
///
/// The engine owns its graph: construct it with [`MutableSkyline::new`]
/// and mutate through [`MutableSkyline::apply_batch`] (or
/// [`MutableSkyline::apply_batch_with`] under an [`ExecutionContext`]).
/// Between calls the skyline and witness array are exact for the
/// current graph.
///
/// Batches are validated up front ([`validate_batch`]) and panic on
/// structurally invalid deltas *before* any mutation — callers wanting
/// error-valued rejection run `validate_batch` themselves first.
/// An interrupted batch (budget trip) must be continued with the same
/// batch (optionally resuming its snapshot); applying a *different*
/// batch folds the committed prefix into history and starts fresh on
/// the current graph, which stays exact throughout.
///
/// # Examples
///
/// ```
/// use nsky_graph::{EdgeDelta, Graph};
/// use nsky_skyline::dynamic::MutableSkyline;
///
/// // A star: the hub dominates every leaf.
/// let g = Graph::from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]);
/// let mut engine = MutableSkyline::new(g);
/// assert_eq!(engine.skyline(), vec![0]);
/// // Connect two leaves: 1 and 2 now see a vertex (each other) the
/// // hub's closed neighborhood still covers — skyline unchanged —
/// // then cut the hub off vertex 4, isolating it into the skyline.
/// let out = engine.apply_batch(&[EdgeDelta::Insert(1, 2), EdgeDelta::Delete(0, 4)]);
/// assert!(out.is_complete());
/// assert_eq!(out.skyline, vec![0, 4]);
/// ```
#[derive(Clone, Debug)]
pub struct MutableSkyline {
    view: DeltaGraph,
    dominator: Vec<VertexId>,
    base_fingerprint: u64,
    /// Completed (or abandoned) batches — advances the fingerprint so
    /// stale snapshots from other batches are rejected as mismatches.
    epoch: u64,
    /// Hash of the in-flight (interrupted) batch, if any.
    inflight: Option<u64>,
    /// Committed deltas within the in-flight batch.
    batch_pos: usize,
    stats: BatchStats,
}

impl MutableSkyline {
    /// Builds the engine, computing the initial skyline with
    /// [`filter_refine_sky`].
    pub fn new(g: Graph) -> MutableSkyline {
        let r = filter_refine_sky(&g, &RefineConfig::default());
        let base_fingerprint = g.fingerprint();
        MutableSkyline {
            view: DeltaGraph::from_graph(g),
            dominator: r.dominator,
            base_fingerprint,
            epoch: 0,
            inflight: None,
            batch_pos: 0,
            stats: BatchStats::default(),
        }
    }

    /// Number of vertices (fixed for the engine's lifetime).
    pub fn num_vertices(&self) -> usize {
        self.view.num_vertices()
    }

    /// Number of edges of the current graph.
    pub fn num_edges(&self) -> usize {
        self.view.num_edges()
    }

    /// The current mutable view (read access).
    pub fn view(&self) -> &DeltaGraph {
        &self.view
    }

    /// A packed snapshot of the current graph.
    pub fn current_graph(&self) -> Graph {
        self.view.materialize()
    }

    /// The witness array: `dominator[u] == u` iff `u` is skyline,
    /// otherwise a vertex that dominates `u` in the current graph.
    pub fn dominator(&self) -> &[VertexId] {
        &self.dominator
    }

    /// Whether `u` is currently a skyline vertex.
    pub fn is_skyline(&self, u: VertexId) -> bool {
        self.dominator[u as usize] == u
    }

    /// The current skyline, sorted ascending.
    pub fn skyline(&self) -> Vec<VertexId> {
        self.dominator
            .iter()
            .enumerate()
            .filter(|&(u, &w)| w == u as VertexId)
            .map(|(u, _)| u as VertexId)
            .collect()
    }

    /// Applies a delta batch and repairs the skyline (uninstrumented).
    pub fn apply_batch(&mut self, deltas: &[EdgeDelta]) -> UpdateOutcome {
        self.apply_batch_with(deltas, &mut ExecutionContext::new())
            .outcome
    }

    /// The one entry point: a delta batch under an [`ExecutionContext`]
    /// — budget, cancellation, checkpoint/resume and observability in
    /// any combination.
    ///
    /// The drive fingerprint mixes the base graph's fingerprint, the
    /// batch hash and the engine's epoch, so a resume snapshot is
    /// accepted only for the same engine history and the same batch;
    /// anything else degrades to a clean continuation from the
    /// engine's own (always exact) state. A usable snapshot *ahead* of
    /// the engine fast-forwards the graph by replaying the committed
    /// prefix without maintenance — the crash-recovery path for a
    /// fresh engine rebuilt from the base graph.
    ///
    /// # Panics
    ///
    /// On a structurally invalid batch (self-loop / out-of-range
    /// endpoint), before any mutation.
    pub fn apply_batch_with(
        &mut self,
        deltas: &[EdgeDelta],
        ctx: &mut ExecutionContext<'_>,
    ) -> ResumableRun<UpdateOutcome> {
        if let Err(e) = validate_batch(deltas, self.view.num_vertices()) {
            // Callers validate untrusted batches first; a bad batch
            // reaching the engine is a caller bug, and panicking before
            // any mutation keeps the graph/skyline pair intact.
            // nsky-lint: allow(panic-free) — documented caller contract
            panic!("invalid delta batch: {e} (run validate_batch first)");
        }
        let hash = hash_deltas(deltas);
        match self.inflight {
            Some(h) if h == hash => {} // continuing an interrupted batch
            Some(_) => {
                // Different batch: fold the committed prefix into
                // history (the graph and skyline are exact for it).
                self.epoch += 1;
                self.batch_pos = 0;
                self.stats = BatchStats::default();
                self.inflight = Some(hash);
            }
            None => {
                self.batch_pos = 0;
                self.stats = BatchStats::default();
                self.inflight = Some(hash);
            }
        }
        let fingerprint =
            mix64(self.base_fingerprint ^ hash ^ self.epoch.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let rec = ctx.effective_recorder();
        let start = DynamicState {
            cursor: self.batch_pos,
            stats: self.stats,
            dominator: self.dominator.clone(),
        };
        let run = exec::drive(
            ctx,
            fingerprint,
            move || start,
            |state, budget| {
                let (outcome, state) = self.update_leg(deltas, state, budget);
                let completion = outcome.completion;
                (outcome, state, completion)
            },
        );
        if run.outcome.completion == Completion::Complete {
            self.epoch += 1;
            self.inflight = None;
            self.batch_pos = 0;
        }
        record_update_stats(rec, &run.outcome.stats);
        run
    }

    /// One drive leg: reconcile the incoming state with the engine,
    /// then commit deltas until the batch ends or the budget trips.
    fn update_leg(
        &mut self,
        deltas: &[EdgeDelta],
        state: DynamicState,
        budget: &ExecutionBudget,
    ) -> (UpdateOutcome, DynamicState) {
        let n = self.view.num_vertices();
        let mut ticker = budget.ticker();
        let DynamicState {
            cursor: snap_cursor,
            stats: snap_stats,
            dominator: snap_dom,
        } = state;
        if snap_dom.len() == n && snap_cursor <= deltas.len() && snap_cursor > self.batch_pos {
            // Crash recovery: the snapshot is ahead of this engine (a
            // fresh engine on the base graph resuming a persisted
            // run). Replay the committed prefix onto the graph without
            // maintenance, then adopt the snapshot's exact state.
            for &d in &deltas[self.batch_pos..snap_cursor] {
                if ticker.check().is_some() {
                    // Sticky: honored at the batch loop below — a
                    // fast-forward must not tear.
                }
                self.view.apply(d);
            }
            self.dominator = snap_dom;
            self.batch_pos = snap_cursor;
            self.stats = snap_stats;
        }
        // A snapshot at or behind the engine (or structurally invalid)
        // adds nothing: the engine is already exact at its position.
        let mut scratch = Scratch::new(n);
        let mut completion = Completion::Complete;
        while self.batch_pos < deltas.len() {
            if let Some(status) = ticker.check() {
                completion = status;
                break;
            }
            match self.process_delta(deltas[self.batch_pos], &mut scratch, &mut ticker) {
                Ok(()) => self.batch_pos += 1,
                Err(status) => {
                    completion = status;
                    break;
                }
            }
        }
        let outcome = UpdateOutcome {
            skyline: self.skyline(),
            cursor: self.batch_pos,
            total: deltas.len(),
            stats: self.stats,
            completion,
        };
        let state = DynamicState {
            cursor: self.batch_pos,
            stats: self.stats,
            dominator: self.dominator.clone(),
        };
        (outcome, state)
    }

    /// Applies one delta and repairs the skyline, or rolls the edit
    /// back and returns the trip status — the engine is always exactly
    /// at a delta boundary afterwards.
    fn process_delta(
        &mut self,
        d: EdgeDelta,
        s: &mut Scratch,
        ticker: &mut BudgetTicker<'_>,
    ) -> Result<(), Completion> {
        let (u, v) = d.endpoints();
        let insert = d.is_insert();
        if self.view.has_edge(u, v) == insert {
            self.stats.skipped += 1;
            return Ok(());
        }
        if insert {
            self.view.apply(d);
        }
        // The edge {u, v} is present NOW in both cases: the dirty set
        // {u, v} ∪ N(u) ∪ N(v) ∪ N(a_u) ∪ N(a_v) collected on the
        // edge-present graph covers every flippable pair of both the
        // old and the new graph (module docs), so one collection
        // serves insert and delete.
        s.round = s.round.wrapping_add(1);
        let round = s.round;
        s.dirty.clear();
        let mut tripped: Option<Completion> = None;
        for (e, other) in [(u, v), (v, u)] {
            if let Some(status) = ticker.check() {
                tripped = Some(status);
                break;
            }
            let (stamp, dirty) = (&mut s.stamp, &mut s.dirty);
            if stamp[e as usize] != round {
                stamp[e as usize] = round;
                dirty.push(e);
            }
            // The endpoint's neighborhood catches inclusion flips of
            // the *other* endpoint's pairs plus adjacent twins; the
            // cheapest toggle-invariant neighbor `a_e` covers the
            // endpoint's non-adjacent twin candidates.
            let mut twin_anchor: Option<(usize, VertexId)> = None;
            self.view.for_each_neighbor(e, |a| {
                if stamp[a as usize] != round {
                    stamp[a as usize] = round;
                    dirty.push(a);
                }
                if a != other {
                    let da = self.view.degree(a);
                    if twin_anchor.map_or(true, |(best, _)| da < best) {
                        twin_anchor = Some((da, a));
                    }
                }
            });
            if let Some((_, a)) = twin_anchor {
                if let Some(status) = ticker.check() {
                    tripped = Some(status);
                    break;
                }
                let (stamp, dirty) = (&mut s.stamp, &mut s.dirty);
                self.view.for_each_neighbor(a, |b| {
                    if stamp[b as usize] != round {
                        stamp[b as usize] = round;
                        dirty.push(b);
                    }
                });
            }
        }
        if let Some(status) = tripped {
            if insert {
                self.view.apply(d.inverse()); // a delete is not yet applied
            }
            return Err(status);
        }
        if !insert {
            self.view.apply(d);
        }
        // Recompute every dirty vertex into scratch; commit only after
        // the full drain (recompute reads the graph, never the
        // dominator array, so the commit is order-independent).
        s.newdom.clear();
        for i in 0..s.dirty.len() {
            let x = s.dirty[i];
            match recompute_vertex(&self.view, x, &mut s.nbrs, &mut s.cand, ticker) {
                Ok(w) => s.newdom.push((x, w)),
                Err(status) => {
                    self.view.apply(d.inverse()); // both kinds are applied by now
                    return Err(status);
                }
            }
        }
        for i in 0..s.newdom.len() {
            if ticker.check().is_some() {
                // Sticky: honored at the next delta boundary — a
                // commit must not tear.
            }
            let (x, w) = s.newdom[i];
            self.dominator[x as usize] = w;
        }
        self.stats.applied += 1;
        self.stats.dirty_vertices += s.dirty.len() as u64;
        self.stats.scoped_refines += s.newdom.len() as u64;
        self.view.maybe_compact();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::TripClock;
    use crate::obs::CountingRecorder;
    use crate::oracle::naive_skyline;
    use nsky_graph::generators::{chung_lu_power_law, erdos_renyi};
    use nsky_graph::prng::SplitMix64;

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

    #[test]
    fn tracks_oracle_after_every_single_delta() {
        for seed in 0..4u64 {
            let g = erdos_renyi(48, 0.08, seed);
            let mut engine = MutableSkyline::new(g.clone());
            let mut rng = SplitMix64::new(seed * 31 + 7);
            for step in 0..60 {
                let d = random_delta(&mut rng, 48);
                let out = engine.apply_batch(&[d]);
                assert!(out.is_complete());
                let truth = naive_skyline(&engine.current_graph()).skyline;
                assert_eq!(out.skyline, truth, "seed {seed} step {step} delta {d}");
                assert_eq!(engine.skyline(), truth);
            }
        }
    }

    #[test]
    fn batches_match_oracle_and_count_noops() {
        let g = chung_lu_power_law(120, 2.8, 5.0, 11);
        let mut engine = MutableSkyline::new(g);
        let mut rng = SplitMix64::new(99);
        let batch: Vec<EdgeDelta> = (0..80).map(|_| random_delta(&mut rng, 120)).collect();
        let out = engine.apply_batch(&batch);
        assert!(out.is_complete());
        assert_eq!(out.cursor, 80);
        assert_eq!(out.stats.applied + out.stats.skipped, 80);
        assert_eq!(out.skyline, naive_skyline(&engine.current_graph()).skyline);
    }

    #[test]
    fn zero_delta_update_is_identity() {
        let g = erdos_renyi(40, 0.1, 5);
        let mut engine = MutableSkyline::new(g);
        let before = engine.dominator().to_vec();
        let rec = CountingRecorder::new();
        let out = engine
            .apply_batch_with(&[], &mut ExecutionContext::new().recorder(&rec))
            .outcome;
        assert!(out.is_complete());
        assert_eq!(engine.dominator(), before.as_slice());
        assert_eq!(out.stats, BatchStats::default());
        assert_eq!(rec.value(Counter::DeltasApplied), 0);
        assert_eq!(rec.value(Counter::DirtyVertices), 0);
        assert_eq!(rec.value(Counter::ScopedRefines), 0);
    }

    #[test]
    fn trip_mid_batch_is_exact_prefix_and_resume_converges() {
        let g = erdos_renyi(60, 0.09, 3);
        let mut rng = SplitMix64::new(17);
        let batch: Vec<EdgeDelta> = (0..40).map(|_| random_delta(&mut rng, 60)).collect();
        for trip_at in [1u64, 3, 7, 19, 55] {
            let mut engine = MutableSkyline::new(g.clone());
            let budget = ExecutionBudget::unlimited()
                .deadline(TripClock::at_poll(trip_at))
                .check_interval(1);
            let run = engine.apply_batch_with(&batch, &mut ExecutionContext::new().budget(&budget));
            if run.outcome.is_complete() {
                continue; // trip landed after the batch finished
            }
            assert!(run.outcome.cursor < batch.len());
            // The partial is the *exact* skyline of the committed prefix.
            let mut prefix = MutableSkyline::new(g.clone());
            prefix.apply_batch(&batch[..run.outcome.cursor]);
            assert_eq!(
                run.outcome.skyline,
                naive_skyline(&prefix.current_graph()).skyline,
                "trip_at {trip_at}"
            );
            // Resume (same engine, same batch) converges to exact.
            let snapshot = run.snapshot;
            let out = engine
                .apply_batch_with(
                    &batch,
                    &mut ExecutionContext::new().resume(snapshot.as_ref()),
                )
                .outcome;
            assert!(out.is_complete());
            assert_eq!(out.stats.applied + out.stats.skipped, 40);
            assert_eq!(out.skyline, naive_skyline(&engine.current_graph()).skyline);
        }
    }

    #[test]
    fn snapshot_recovers_a_fresh_engine() {
        let g = erdos_renyi(50, 0.1, 8);
        let mut rng = SplitMix64::new(23);
        let batch: Vec<EdgeDelta> = (0..30).map(|_| random_delta(&mut rng, 50)).collect();
        let mut first = MutableSkyline::new(g.clone());
        let budget = ExecutionBudget::unlimited()
            .deadline(TripClock::at_poll(25))
            .check_interval(1);
        let run = first.apply_batch_with(&batch, &mut ExecutionContext::new().budget(&budget));
        let Some(snapshot) = run.snapshot else {
            return; // completed before the trip: nothing to recover
        };
        // A brand-new engine on the base graph resumes the snapshot:
        // the leg replays the committed prefix, then finishes exactly.
        let mut fresh = MutableSkyline::new(g.clone());
        let out = fresh
            .apply_batch_with(&batch, &mut ExecutionContext::new().resume(Some(&snapshot)))
            .outcome;
        assert!(out.is_complete());
        let mut reference = MutableSkyline::new(g);
        let full = reference.apply_batch(&batch);
        assert_eq!(out.skyline, full.skyline);
    }

    #[test]
    fn stale_snapshot_from_other_batch_degrades_cleanly() {
        let g = erdos_renyi(40, 0.12, 2);
        let mut rng = SplitMix64::new(5);
        let batch_a: Vec<EdgeDelta> = (0..20).map(|_| random_delta(&mut rng, 40)).collect();
        let batch_b: Vec<EdgeDelta> = (0..20).map(|_| random_delta(&mut rng, 40)).collect();
        let mut engine = MutableSkyline::new(g.clone());
        let budget = ExecutionBudget::unlimited()
            .deadline(TripClock::at_poll(9))
            .check_interval(1);
        let run = engine.apply_batch_with(&batch_a, &mut ExecutionContext::new().budget(&budget));
        let Some(snapshot) = run.snapshot else { return };
        // Feeding batch A's snapshot to a batch-B run must not corrupt
        // anything: the fingerprint mismatch degrades to a fresh start.
        let mut other = MutableSkyline::new(g);
        let run_b = other.apply_batch_with(
            &batch_b,
            &mut ExecutionContext::new().resume(Some(&snapshot)),
        );
        assert!(run_b.recovery.is_some(), "mismatch must be reported");
        assert!(run_b.outcome.is_complete());
        assert_eq!(
            run_b.outcome.skyline,
            naive_skyline(&other.current_graph()).skyline
        );
    }

    #[test]
    fn armed_contexts_agree_with_the_base_entry_point() {
        let g = erdos_renyi(50, 0.1, 4);
        let mut rng = SplitMix64::new(77);
        let batch: Vec<EdgeDelta> = (0..25).map(|_| random_delta(&mut rng, 50)).collect();
        let mut a = MutableSkyline::new(g.clone());
        let mut b = MutableSkyline::new(g.clone());
        let mut c = MutableSkyline::new(g);
        let rec = CountingRecorder::new();
        let out_a = a.apply_batch(&batch);
        let budget = ExecutionBudget::unlimited();
        let out_b = b
            .apply_batch_with(&batch, &mut ExecutionContext::new().budget(&budget))
            .outcome;
        let out_c = c
            .apply_batch_with(&batch, &mut ExecutionContext::new().recorder(&rec))
            .outcome;
        assert_eq!(out_a.skyline, out_b.skyline);
        assert_eq!(out_a.skyline, out_c.skyline);
        assert_eq!(rec.value(Counter::DeltasApplied), out_a.stats.applied);
        assert_eq!(
            rec.value(Counter::DirtyVertices),
            out_a.stats.dirty_vertices
        );
        assert_eq!(
            rec.value(Counter::ScopedRefines),
            out_a.stats.scoped_refines
        );
    }

    #[test]
    #[should_panic(expected = "invalid delta batch")]
    fn invalid_batch_panics_before_mutation() {
        let g = erdos_renyi(10, 0.2, 1);
        let mut engine = MutableSkyline::new(g);
        engine.apply_batch(&[EdgeDelta::Insert(0, 1), EdgeDelta::Insert(3, 3)]);
    }
}
