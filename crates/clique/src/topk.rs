//! Top-k maximum cliques (paper Sec. IV-C.3): round-based search where
//! each round reports a maximum clique of the residual graph and retires
//! the seed vertex that produced it.
//!
//! * `BaseTopkMCC` re-runs the full exact solver (`mc_brb`) on the
//!   residual graph every round.
//! * `NeiSkyTopkMCC` maintains the neighborhood skyline incrementally
//!   (vertices dominated by a retired seed re-enter the skyline,
//!   Lemma 6) and keeps a **lazy queue** of per-seed maximum-containing
//!   cliques: an entry is either an upper bound
//!   `min(core(s) + 1, deg(s) + 1)` or a cached exact clique, which
//!   stays exact as long as all of its members are alive (the graph only
//!   shrinks, so a still-alive cached clique is still maximum). Each
//!   round pops the queue, recomputing only the seeds whose bound tops
//!   the queue — this is what makes rounds `≥ 2` cheaper than a full
//!   solver re-run, reproducing the paper's Fig. 9 crossover at `k = 2`.

use crate::bnb::{max_clique_containing, record_clique_stats, valid_clique, CliqueStats};
use crate::mcbrb::mc_brb_with;
use nsky_graph::degeneracy::core_decomposition;
use nsky_graph::ops::induced_subgraph;
use nsky_graph::{Graph, VertexId};
use nsky_skyline::budget::{Completion, ExecutionBudget};
use nsky_skyline::exec::{self, ExecutionContext};
use nsky_skyline::incremental::DynamicSkyline;
use nsky_skyline::snapshot::{KernelId, KernelState, Reader, RecoveryError, ResumableRun, Writer};
use std::collections::BinaryHeap;

/// Which engine drives each round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopkMode {
    /// `BaseTopkMCC`: full exact solver (`mc_brb`) on the residual graph
    /// each round; the retired seed is the smallest clique member.
    Base,
    /// `NeiSkyTopkMCC`: lazy per-seed search over the incrementally
    /// maintained skyline; the retired seed is the skyline vertex whose
    /// ego network produced the clique.
    NeiSky,
}

/// Result of [`top_k_cliques`].
#[derive(Clone, Debug)]
pub struct TopkOutcome {
    /// The cliques found, one per completed round, each sorted ascending.
    pub cliques: Vec<Vec<VertexId>>,
    /// The retired seed of each round.
    pub seeds: Vec<VertexId>,
    /// Aggregated search counters.
    pub stats: CliqueStats,
    /// How the run ended. On a trip, only fully *completed* rounds are
    /// reported (an in-progress round is dropped), so `cliques` may hold
    /// fewer than `k` entries even when the graph has vertices left.
    pub completion: Completion,
}

/// Max-heap entry of the NeiSky lazy queue. At equal keys, exact entries
/// pop first (they can end the round immediately), then *low-degree*
/// seeds: a small ego network resolves in microseconds, and its exact
/// size floors every remaining entry — so the expensive hub egos are
/// peeled away instead of searched.
#[derive(PartialEq, Eq)]
struct Entry {
    key: usize,
    exact: bool,
    degree: usize,
    seed: VertexId,
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key
            .cmp(&other.key)
            .then_with(|| self.exact.cmp(&other.exact))
            .then_with(|| other.degree.cmp(&self.degree))
            .then_with(|| other.seed.cmp(&self.seed))
    }
}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Finds up to `k` maximum cliques by seed-retiring rounds.
///
/// Fewer than `k` cliques are returned only if the graph runs out of
/// vertices.
///
/// # Examples
///
/// ```
/// use nsky_graph::generators::special::clique;
/// use nsky_clique::{top_k_cliques, TopkMode};
///
/// let g = clique(5);
/// let out = top_k_cliques(&g, 2, TopkMode::NeiSky);
/// assert_eq!(out.cliques[0].len(), 5);
/// assert_eq!(out.cliques[1].len(), 4); // seed retired
/// ```
pub fn top_k_cliques(g: &Graph, k: usize, mode: TopkMode) -> TopkOutcome {
    top_k_cliques_with(g, k, mode, &mut ExecutionContext::new()).outcome
}

/// The one entry point: [`top_k_cliques`] under an
/// [`ExecutionContext`] — budget, cancellation, checkpoint/resume and
/// observability in any combination. The recorder sees one `"topk"`
/// span around the round loop plus a bulk flush of the aggregated
/// [`CliqueStats`] at exit. After a trip the outcome reports every
/// round completed before the trip (the round in progress is dropped —
/// its clique was not yet proven maximum for the residual graph). The
/// two modes persist different state (distinct kernel ids), so a
/// snapshot taken in one mode resumed in the other is rejected as a
/// kernel mismatch and the run degrades to a fresh start.
pub fn top_k_cliques_with(
    g: &Graph,
    k: usize,
    mode: TopkMode,
    ctx: &mut ExecutionContext<'_>,
) -> ResumableRun<TopkOutcome> {
    let rec = ctx.effective_recorder();
    rec.phase_start("topk");
    let run = match mode {
        TopkMode::Base => exec::drive(
            ctx,
            g.fingerprint(),
            TopkBaseState::fresh,
            |mut state, budget| {
                if !valid_rounds(g, k, &state.cliques, &state.seeds) {
                    state = TopkBaseState::fresh();
                }
                let (out, state) = topk_base_leg(g, k, budget, state);
                let completion = out.completion;
                (out, state, completion)
            },
        ),
        TopkMode::NeiSky => exec::drive(
            ctx,
            g.fingerprint(),
            TopkNeiSkyState::fresh,
            |mut state, budget| {
                if !valid_neisky_state(g, k, &state) {
                    state = TopkNeiSkyState::fresh();
                }
                let (out, state) = topk_neisky_leg(g, k, budget, state);
                let completion = out.completion;
                (out, state, completion)
            },
        ),
    };
    rec.phase_end("topk");
    record_clique_stats(rec, &run.outcome.stats);
    run
}

/// Resume state of an interrupted `BaseTopkMCC` run: the fully completed
/// rounds (clique + retired seed per round). An in-progress round is
/// dropped on trip — its solver run had not proven the clique maximum —
/// so resuming re-runs that round from scratch on the residual graph
/// (itself a pure function of the retired seeds), which is deterministic
/// and therefore byte-identical to the uninterrupted run.
struct TopkBaseState {
    cliques: Vec<Vec<VertexId>>,
    seeds: Vec<VertexId>,
}

impl TopkBaseState {
    fn fresh() -> Self {
        TopkBaseState {
            cliques: Vec::new(),
            seeds: Vec::new(),
        }
    }
}

impl KernelState for TopkBaseState {
    const FORMAT_VERSION: u32 = 1;
    const KERNEL: KernelId = KernelId::TopkBase;

    // nsky-lint: allow(budget-check) — bounded single pass over completed rounds
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.cliques.len());
        for c in &self.cliques {
            w.put_u32_slice(c);
        }
        w.put_u32_slice(&self.seeds);
    }

    // nsky-lint: allow(budget-check) — bounded decode of a length-checked snapshot payload
    fn decode(r: &mut Reader<'_>) -> Result<Self, RecoveryError> {
        r.expect_version(Self::FORMAT_VERSION)?;
        let rounds = r.take_usize()?;
        let mut cliques = Vec::new();
        for _ in 0..rounds {
            cliques.push(r.take_u32_vec()?);
        }
        let seeds = r.take_u32_vec()?;
        Ok(TopkBaseState { cliques, seeds })
    }
}

/// Structural validation of resumed top-k rounds: one distinct in-range
/// seed per round, each clique a genuine clique containing its seed.
fn valid_rounds(g: &Graph, k: usize, cliques: &[Vec<VertexId>], seeds: &[VertexId]) -> bool {
    let n = g.num_vertices();
    let mut seen = std::collections::BTreeSet::new();
    cliques.len() == seeds.len()
        && cliques.len() <= k
        && seeds.iter().zip(cliques).all(|(&s, c)| {
            (s as usize) < n && seen.insert(s) && c.contains(&s) && valid_clique(g, c)
        })
}

fn topk_base_leg(
    g: &Graph,
    k: usize,
    budget: &ExecutionBudget,
    state: TopkBaseState,
) -> (TopkOutcome, TopkBaseState) {
    let mut out = TopkOutcome {
        cliques: state.cliques,
        seeds: state.seeds,
        stats: CliqueStats::default(),
        completion: Completion::Complete,
    };
    let mut alive = vec![true; g.num_vertices()];
    for &s in &out.seeds {
        alive[s as usize] = false;
    }
    let mut alive_count = g.num_vertices().saturating_sub(out.seeds.len());
    let mut ticker = budget.ticker();
    while out.cliques.len() < k {
        if alive_count == 0 {
            break;
        }
        if let Some(status) = ticker.check() {
            out.completion = status;
            break;
        }
        let keep: Vec<VertexId> = g.vertices().filter(|&u| alive[u as usize]).collect();
        let (sub, map) = induced_subgraph(g, &keep);
        let run = mc_brb_with(&sub, &mut ExecutionContext::new().budget(budget)).outcome;
        out.stats.branches += run.stats.branches;
        out.stats.bound_prunes += run.stats.bound_prunes;
        out.stats.root_calls += run.stats.root_calls;
        out.stats.skyline_prunes += run.stats.skyline_prunes;
        if !run.completion.is_complete() {
            // The round's clique was not proven maximum: drop it.
            out.completion = run.completion;
            break;
        }
        let mut clique: Vec<VertexId> = run.clique.iter().map(|&u| map[u as usize]).collect();
        clique.sort_unstable();
        let seed = clique[0];
        out.cliques.push(clique);
        out.seeds.push(seed);
        alive[seed as usize] = false;
        alive_count -= 1;
    }
    let state = TopkBaseState {
        cliques: out.cliques.clone(),
        seeds: out.seeds.clone(),
    };
    (out, state)
}

/// Resume state of an interrupted `NeiSkyTopkMCC` run: the completed
/// rounds, the lazy queue's live entries (sorted for a canonical
/// encoding — [`Entry`]'s order is total, so the rebuilt heap pops in
/// the identical sequence), the exact-clique cache, and the in-progress
/// round's incumbent. `alive` and the [`DynamicSkyline`] are rebuilt by
/// replaying the retired seeds; re-entry vertices reported during the
/// replay are discarded because their queue entries were already pushed
/// — and therefore saved — before the snapshot was taken. A trip inside
/// a seed's ego search re-pushes the popped entry before snapshotting,
/// so the resumed pop re-resolves that seed from scratch with the same
/// floor.
struct TopkNeiSkyState {
    /// False only for the pristine pre-seeding state; a genuine snapshot
    /// is always taken after the initial queue seeding.
    started: bool,
    cliques: Vec<Vec<VertexId>>,
    seeds: Vec<VertexId>,
    entries: Vec<Entry>,
    cache: Vec<(VertexId, Vec<VertexId>)>,
    incumbent: Option<(Vec<VertexId>, VertexId)>,
}

impl TopkNeiSkyState {
    fn fresh() -> Self {
        TopkNeiSkyState {
            started: false,
            cliques: Vec::new(),
            seeds: Vec::new(),
            entries: Vec::new(),
            cache: Vec::new(),
            incumbent: None,
        }
    }

    /// Captures the live search structures at a trip point.
    fn packed(
        out: &TopkOutcome,
        heap: BinaryHeap<Entry>,
        cache: Vec<Option<Vec<VertexId>>>,
        incumbent: Option<(Vec<VertexId>, VertexId)>,
    ) -> Self {
        let mut entries = heap.into_vec();
        entries.sort_unstable();
        TopkNeiSkyState {
            started: true,
            cliques: out.cliques.clone(),
            seeds: out.seeds.clone(),
            entries,
            cache: cache
                .into_iter()
                .enumerate()
                .filter_map(|(v, c)| c.map(|c| (v as VertexId, c)))
                .collect(),
            incumbent,
        }
    }
}

impl KernelState for TopkNeiSkyState {
    const FORMAT_VERSION: u32 = 1;
    const KERNEL: KernelId = KernelId::TopkNeiSky;

    // nsky-lint: allow(budget-check) — bounded single pass over the saved search structures
    fn encode(&self, w: &mut Writer) {
        w.put_bool(self.started);
        w.put_usize(self.cliques.len());
        for c in &self.cliques {
            w.put_u32_slice(c);
        }
        w.put_u32_slice(&self.seeds);
        w.put_usize(self.entries.len());
        for e in &self.entries {
            w.put_usize(e.key);
            w.put_bool(e.exact);
            w.put_usize(e.degree);
            w.put_u32(e.seed);
        }
        w.put_usize(self.cache.len());
        for (v, c) in &self.cache {
            w.put_u32(*v);
            w.put_u32_slice(c);
        }
        match &self.incumbent {
            Some((c, s)) => {
                w.put_bool(true);
                w.put_u32(*s);
                w.put_u32_slice(c);
            }
            None => w.put_bool(false),
        }
    }

    // nsky-lint: allow(budget-check) — bounded decode of a length-checked snapshot payload
    fn decode(r: &mut Reader<'_>) -> Result<Self, RecoveryError> {
        r.expect_version(Self::FORMAT_VERSION)?;
        let started = r.take_bool()?;
        let rounds = r.take_usize()?;
        let mut cliques = Vec::new();
        for _ in 0..rounds {
            cliques.push(r.take_u32_vec()?);
        }
        let seeds = r.take_u32_vec()?;
        let entry_count = r.take_usize()?;
        let mut entries = Vec::new();
        for _ in 0..entry_count {
            entries.push(Entry {
                key: r.take_usize()?,
                exact: r.take_bool()?,
                degree: r.take_usize()?,
                seed: r.take_u32()?,
            });
        }
        let cache_count = r.take_usize()?;
        let mut cache = Vec::new();
        for _ in 0..cache_count {
            let v = r.take_u32()?;
            cache.push((v, r.take_u32_vec()?));
        }
        let incumbent = if r.take_bool()? {
            let s = r.take_u32()?;
            Some((r.take_u32_vec()?, s))
        } else {
            None
        };
        Ok(TopkNeiSkyState {
            started,
            cliques,
            seeds,
            entries,
            cache,
            incumbent,
        })
    }
}

/// Structural validation of a resumed NeiSky top-k state. Beyond the
/// shared round checks: queue seeds in range, `exact` entries backed by
/// a cache line (the pop path relies on that invariant), cached cliques
/// genuine, and the incumbent a genuine clique containing its seed.
fn valid_neisky_state(g: &Graph, k: usize, st: &TopkNeiSkyState) -> bool {
    let n = g.num_vertices();
    let cached: std::collections::BTreeSet<VertexId> = st.cache.iter().map(|(v, _)| *v).collect();
    valid_rounds(g, k, &st.cliques, &st.seeds)
        && st
            .entries
            .iter()
            .all(|e| (e.seed as usize) < n && (!e.exact || cached.contains(&e.seed)))
        && st
            .cache
            .iter()
            .all(|(v, c)| (*v as usize) < n && c.contains(v) && valid_clique(g, c))
        && st
            .incumbent
            .as_ref()
            .map_or(true, |(c, s)| c.contains(s) && valid_clique(g, c))
}

fn topk_neisky_leg(
    g: &Graph,
    k: usize,
    budget: &ExecutionBudget,
    state: TopkNeiSkyState,
) -> (TopkOutcome, TopkNeiSkyState) {
    let mut out = TopkOutcome {
        cliques: Vec::with_capacity(k),
        seeds: Vec::with_capacity(k),
        stats: CliqueStats::default(),
        completion: Completion::Complete,
    };
    if g.num_vertices() == 0 || k == 0 {
        return (out, state);
    }
    // Skyline maintenance + core numbers + lazy queue scratch.
    if let Some(status) = budget.charge(g.num_vertices() * 24) {
        out.completion = status;
        return (out, state);
    }
    let mut ticker = budget.ticker();
    let mut dyn_sky = DynamicSkyline::new(g);
    let deco = core_decomposition(g); // static bounds stay valid as g shrinks
    let mut alive = vec![true; g.num_vertices()];
    let mut cache: Vec<Option<Vec<VertexId>>> = vec![None; g.num_vertices()];
    let mut heap: BinaryHeap<Entry> = BinaryHeap::new();
    let ub = |s: VertexId| (deco.core[s as usize] as usize + 1).min(g.degree(s) + 1);
    // Incumbent: best exact clique resolved so far in the current round.
    // A popped upper bound that cannot beat it ends the round (every
    // other queue key is no larger).
    let mut incumbent: Option<(Vec<VertexId>, VertexId)> = None;
    if state.started {
        // Replay the retired seeds; the re-entry reports are discarded
        // because their entries are already in the saved queue.
        out.cliques = state.cliques;
        out.seeds = state.seeds;
        // nsky-lint: allow(poll-reachability) — bounded: replays at most k retired seeds
        for &s in &out.seeds {
            alive[s as usize] = false;
            let _ = dyn_sky.remove_vertex_report(s);
        }
        for (v, c) in state.cache {
            cache[v as usize] = Some(c);
        }
        heap = BinaryHeap::from(state.entries);
        incumbent = state.incumbent;
    } else {
        for s in g.vertices().filter(|&s| dyn_sky.is_skyline(s)) {
            if let Some(status) = ticker.check() {
                // Trip during seeding: nothing is retired yet, so the
                // resume token restarts the (idempotent) seeding scan.
                out.completion = status;
                return (out, TopkNeiSkyState::fresh());
            }
            heap.push(Entry {
                key: ub(s),
                exact: false,
                degree: g.degree(s),
                seed: s,
            });
        }
    }

    'rounds: while out.cliques.len() < k {
        loop {
            if let Some(status) = ticker.check() {
                // Trip mid-round: the incumbent was not yet proven
                // maximum for the residual graph — keep it in the
                // snapshot, but report only completed rounds.
                out.completion = status;
                let state = TopkNeiSkyState::packed(&out, heap, cache, incumbent);
                return (out, state);
            }
            let Some(top) = heap.pop() else {
                // Queue exhausted: the incumbent (if any) is the answer.
                match incumbent.take() {
                    Some(ans) => {
                        finish_round(g, ans, &mut out, &mut alive, &mut dyn_sky, &mut heap, &ub);
                        continue 'rounds;
                    }
                    None => break 'rounds,
                }
            };
            let s = top.seed;
            if !alive[s as usize] || !dyn_sky.is_skyline(s) {
                continue; // stale: retired or left the skyline
            }
            let floor = incumbent.as_ref().map_or(0, |(c, _)| c.len());
            if top.key <= floor {
                // Nothing in the queue can beat the incumbent.
                heap.push(top);
                // nsky-lint: allow(panic-free) — invariant: key > 0 and key ≤ floor, so floor > 0 and the incumbent is set
                let ans = incumbent.take().expect("floor > 0 ⇒ incumbent");
                finish_round(g, ans, &mut out, &mut alive, &mut dyn_sky, &mut heap, &ub);
                continue 'rounds;
            }
            if top.exact {
                // nsky-lint: allow(panic-free) — invariant: `exact` entries are pushed only after caching the clique
                let clique = cache[s as usize].as_ref().expect("exact ⇒ cached");
                if clique.iter().all(|&v| alive[v as usize]) {
                    // Still fully alive ⇒ still maximum-containing (the
                    // graph only shrank), and it tops the queue ⇒ answer.
                    finish_round(
                        g,
                        (clique.clone(), s),
                        &mut out,
                        &mut alive,
                        &mut dyn_sky,
                        &mut heap,
                        &ub,
                    );
                    incumbent = None;
                    continue 'rounds;
                }
                // Cached clique lost a member: fall through to recompute.
            }
            // Resolve with the incumbent as a floor: seeds that cannot
            // beat it are bound-pruned at the root instead of searched.
            let resolved =
                max_clique_containing(g, s, Some(&alive), floor, &mut out.stats, &mut ticker);
            if !ticker.status().is_complete() {
                // The search tripped: its result is not proven maximum.
                // Re-push the popped entry so the resumed run pops it
                // again and re-resolves from scratch with the same floor.
                out.completion = ticker.status();
                heap.push(top);
                let state = TopkNeiSkyState::packed(&out, heap, cache, incumbent);
                return (out, state);
            }
            match resolved {
                Some(found) => {
                    heap.push(Entry {
                        key: found.len(),
                        exact: true,
                        degree: g.degree(s),
                        seed: s,
                    });
                    cache[s as usize] = Some(found.clone());
                    incumbent = Some((found, s));
                }
                None => {
                    // True value ≤ floor: remember the tightened bound.
                    heap.push(Entry {
                        key: floor,
                        exact: false,
                        degree: g.degree(s),
                        seed: s,
                    });
                }
            }
        }
    }
    let state = TopkNeiSkyState::packed(&out, heap, cache, incumbent);
    (out, state)
}

/// Records a round's answer and retires its seed, feeding vertices that
/// entered the skyline back into the lazy queue.
// nsky-lint: allow(budget-check) — bounded by the skyline re-entry report of one removal, ticked by the caller
fn finish_round(
    g: &Graph,
    (clique, seed): (Vec<VertexId>, VertexId),
    out: &mut TopkOutcome,
    alive: &mut [bool],
    dyn_sky: &mut DynamicSkyline<'_>,
    heap: &mut BinaryHeap<Entry>,
    ub: &impl Fn(VertexId) -> usize,
) {
    debug_assert!(clique.contains(&seed));
    out.cliques.push(clique);
    out.seeds.push(seed);
    alive[seed as usize] = false;
    for v in dyn_sky.remove_vertex_report(seed) {
        heap.push(Entry {
            key: ub(v),
            exact: false,
            degree: g.degree(v),
            seed: v,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::is_clique;
    use crate::mcbrb::mc_brb;
    use nsky_graph::generators::special::clique;
    use nsky_graph::generators::{affiliation_model, chung_lu_power_law, erdos_renyi};

    fn check_mode(g: &Graph, k: usize, mode: TopkMode, label: &str) -> TopkOutcome {
        let out = top_k_cliques(g, k, mode);
        assert!(out.cliques.len() <= k);
        // Each clique is valid, contains its seed, seeds distinct.
        let mut seen = std::collections::BTreeSet::new();
        for (c, &s) in out.cliques.iter().zip(&out.seeds) {
            assert!(is_clique(g, c), "{label}");
            assert!(c.contains(&s), "{label}: seed {s} not in clique {c:?}");
            assert!(seen.insert(s), "{label}: duplicate seed");
        }
        // Sizes are non-increasing (removing a vertex cannot grow ω).
        for w in out.cliques.windows(2) {
            assert!(w[0].len() >= w[1].len(), "{label}");
        }
        out
    }

    #[test]
    fn both_modes_produce_valid_rounds() {
        for seed in 0..5 {
            let g = erdos_renyi(40, 0.25, seed);
            let a = check_mode(&g, 4, TopkMode::Base, &format!("base {seed}"));
            let b = check_mode(&g, 4, TopkMode::NeiSky, &format!("neisky {seed}"));
            // Round 1 is the maximum clique in both modes.
            assert_eq!(a.cliques[0].len(), b.cliques[0].len(), "seed {seed}");
        }
    }

    #[test]
    fn neisky_round_sizes_are_exact() {
        // Replay: every NeiSky round size equals the exact max clique of
        // its residual graph.
        for seed in 0..4 {
            let g = erdos_renyi(35, 0.3, seed + 20);
            let out = top_k_cliques(&g, 4, TopkMode::NeiSky);
            let mut removed: Vec<VertexId> = Vec::new();
            for (round, c) in out.cliques.iter().enumerate() {
                let keep: Vec<VertexId> = g.vertices().filter(|u| !removed.contains(u)).collect();
                let (sub, _) = induced_subgraph(&g, &keep);
                let (exact, _) = mc_brb(&sub);
                assert_eq!(
                    c.len(),
                    exact.len(),
                    "seed {} round {round}: {c:?}",
                    seed + 20
                );
                removed.push(out.seeds[round]);
            }
        }
    }

    #[test]
    fn neisky_matches_base_sizes_on_affiliation_graphs() {
        let g = affiliation_model(300, 4, 7, 0.6, 5);
        let a = top_k_cliques(&g, 5, TopkMode::Base);
        let b = top_k_cliques(&g, 5, TopkMode::NeiSky);
        // Round 1 identical; later rounds may retire different seeds but
        // round sizes stay within one of each other in practice — assert
        // exactness per mode instead of cross-equality.
        assert_eq!(a.cliques[0].len(), b.cliques[0].len());
    }

    #[test]
    fn clique_family_degrades_one_by_one() {
        let g = clique(6);
        let out = top_k_cliques(&g, 3, TopkMode::NeiSky);
        let sizes: Vec<usize> = out.cliques.iter().map(|c| c.len()).collect();
        assert_eq!(sizes, vec![6, 5, 4]);
    }

    #[test]
    fn exhausts_small_graphs_gracefully() {
        let g = Graph::from_edges(2, [(0, 1)]);
        let out = top_k_cliques(&g, 10, TopkMode::Base);
        assert_eq!(out.cliques.len(), 2);
        let out = top_k_cliques(&g, 10, TopkMode::NeiSky);
        assert_eq!(out.cliques.len(), 2);
        let out = top_k_cliques(&Graph::empty(0), 3, TopkMode::NeiSky);
        assert!(out.cliques.is_empty());
    }

    #[test]
    fn works_on_structured_graphs() {
        let g = affiliation_model(200, 4, 8, 0.5, 3);
        check_mode(&g, 5, TopkMode::NeiSky, "affiliation");
        let g = chung_lu_power_law(300, 2.7, 6.0, 1);
        let a = check_mode(&g, 3, TopkMode::Base, "cl base");
        let b = check_mode(&g, 3, TopkMode::NeiSky, "cl neisky");
        assert_eq!(a.cliques[0].len(), b.cliques[0].len());
    }
}
