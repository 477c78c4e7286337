//! The greedy group-centrality maximization engine.
//!
//! One engine covers the paper's four algorithm variants:
//!
//! | paper name | configuration |
//! |---|---|
//! | `BaseGC` / `BaseGH` | plain re-evaluation, all vertices |
//! | `Greedy++` / `Greedy-H` | [`GreedyOptions::lazy`] CELF queue + pruned marginal-gain BFS |
//! | `NeiSkyGC` / `NeiSkyGH` | either engine with [`GreedyOptions::candidates`] = skyline |
//!
//! The engine maximizes the *raw-total gain* each round (distance-sum
//! reduction for closeness, contribution increase for harmonic/decay),
//! which is a monotone transform of the score gain, so the selected
//! vertex matches the paper's `argmax GC(S ∪ {u}) − GC(S)` rule. Raw
//! gains are non-increasing as `S` grows (adding members only lowers
//! `d(v, S)` pointwise), which justifies the CELF lazy queue.

use crate::measure::GroupMeasure;
use nsky_graph::{Graph, VertexId};
use nsky_skyline::budget::{BudgetTicker, Completion, ExecutionBudget};
use nsky_skyline::exec::{self, ExecutionContext};
use nsky_skyline::snapshot::{KernelId, KernelState, Reader, RecoveryError, ResumableRun, Writer};
use std::collections::{BinaryHeap, VecDeque};

/// Options of [`greedy_group`].
#[derive(Clone, Debug, Default)]
pub struct GreedyOptions {
    /// Use the CELF lazy-evaluation queue instead of re-evaluating every
    /// candidate each round.
    pub lazy: bool,
    /// Prune marginal-gain BFS branches that can no longer improve any
    /// distance (`d_u(v) ≥ d(v, S)` implies no descendant improves).
    pub pruned_bfs: bool,
    /// Restrict the candidate pool (e.g. to the neighborhood skyline).
    /// `None` means all vertices.
    pub candidates: Option<Vec<VertexId>>,
}

impl GreedyOptions {
    /// The paper's optimized baseline (`Greedy++` / `Greedy-H`): CELF +
    /// pruned BFS over all vertices.
    pub fn optimized() -> Self {
        GreedyOptions {
            lazy: true,
            pruned_bfs: true,
            candidates: None,
        }
    }
}

/// Result of a greedy maximization run.
#[derive(Clone, Debug)]
pub struct GreedyOutcome {
    /// Selected group, in selection order.
    pub group: Vec<VertexId>,
    /// Final score of the measure (e.g. `GC(S)`).
    pub score: f64,
    /// Number of marginal-gain evaluations performed — the quantity the
    /// paper's `k(2n−k+1)/2` vs `k(2r−k+1)/2` comparison is about.
    pub gain_evaluations: u64,
    /// CELF lazy-queue pops resolved *without* a fresh gain evaluation:
    /// stale entries of already-committed vertices, and entries whose
    /// cached gain was still current and committed directly. Always zero
    /// for the plain engine.
    pub lazy_skips: u64,
    /// Score after each selection (length = |group|).
    pub score_trace: Vec<f64>,
    /// How the run ended. On a trip the group holds the seeds committed
    /// before the budget ran out — a valid greedy prefix of fewer than
    /// `k` members (selections already made are never rolled back).
    pub completion: Completion,
}

struct HeapEntry {
    gain: f64,
    vertex: VertexId,
    round: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.gain == other.gain && self.vertex == other.vertex
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap on gain; ties broken toward the smaller vertex id for
        // determinism.
        self.gain
            .total_cmp(&other.gain)
            .then_with(|| other.vertex.cmp(&self.vertex))
    }
}

/// Scratch state shared by marginal evaluations.
struct Evaluator<'g, M> {
    g: &'g Graph,
    measure: M,
    n: usize,
    /// `d(v, S)`; `u32::MAX` while `S = ∅` (or unreachable).
    dist_s: Vec<u32>,
    in_group: Vec<bool>,
    /// Raw total `Σ_{v∉S} f(d(v, S))`.
    total: f64,
    // BFS scratch (stamped, reused across evaluations).
    dist_u: Vec<u32>,
    stamp: Vec<u32>,
    round: u32,
    queue: VecDeque<VertexId>,
    improvements: Vec<(VertexId, u32)>,
}

impl<'g, M: GroupMeasure> Evaluator<'g, M> {
    fn new(g: &'g Graph, measure: M) -> Self {
        let n = g.num_vertices();
        let total = n as f64 * measure.contribution(u32::MAX, n);
        Evaluator {
            g,
            measure,
            n,
            dist_s: vec![u32::MAX; n],
            in_group: vec![false; n],
            total,
            dist_u: vec![u32::MAX; n],
            stamp: vec![u32::MAX; n],
            round: 0,
            queue: VecDeque::new(),
            improvements: Vec::new(),
        }
    }

    /// BFS from `src` collecting `(v, d_u(v))` for every vertex whose
    /// distance improves on `d(v, S)`. Returns the trip status if the
    /// budget runs out mid-traversal (the improvement list is then
    /// incomplete and must be discarded).
    fn collect_improvements(
        &mut self,
        src: VertexId,
        prune: bool,
        ticker: &mut BudgetTicker<'_>,
    ) -> Option<Completion> {
        self.round += 1;
        let round = self.round;
        self.queue.clear();
        self.improvements.clear();
        self.dist_u[src as usize] = 0;
        self.stamp[src as usize] = round;
        self.queue.push_back(src);
        if self.dist_s[src as usize] > 0 {
            self.improvements.push((src, 0));
        }
        while let Some(v) = self.queue.pop_front() {
            if let Some(status) = ticker.check() {
                return Some(status);
            }
            let dv = self.dist_u[v as usize];
            if prune && dv >= self.dist_s[v as usize] {
                // No descendant can improve: d_u(w) ≥ d_u(v) + d(v,w)
                // ≥ d(v,S) + d(v,w) ≥ d(w,S).
                continue;
            }
            for &w in self.g.neighbors(v) {
                if let Some(status) = ticker.check() {
                    return Some(status);
                }
                if self.stamp[w as usize] == round {
                    continue;
                }
                self.stamp[w as usize] = round;
                self.dist_u[w as usize] = dv + 1;
                if dv + 1 < self.dist_s[w as usize] {
                    self.improvements.push((w, dv + 1));
                }
                self.queue.push_back(w);
            }
        }
        None
    }

    /// Raw-total gain of adding `u` (non-negative, in the maximize
    /// orientation of the measure), or `None` when the budget tripped
    /// mid-evaluation (the partial improvement list is discarded).
    // nsky-lint: allow(budget-check) — bounded by one BFS's improvement list; the BFS itself is ticked
    fn gain(&mut self, u: VertexId, prune: bool, ticker: &mut BudgetTicker<'_>) -> Option<f64> {
        debug_assert!(!self.in_group[u as usize]);
        if self.collect_improvements(u, prune, ticker).is_some() {
            return None;
        }
        let mut delta = 0.0; // new_total − total, excluding u's own term
        for &(v, du) in &self.improvements {
            if v == u || self.in_group[v as usize] {
                continue;
            }
            delta += self.measure.contribution(du, self.n)
                - self.measure.contribution(self.dist_s[v as usize], self.n);
        }
        // u leaves the sum.
        let own = self.measure.contribution(self.dist_s[u as usize], self.n);
        let new_total = self.total + delta - own;
        Some(if self.measure.maximize_total() {
            new_total - self.total
        } else {
            self.total - new_total
        })
    }

    /// Adds `u` to the group, updating `dist_s` and `total`.
    ///
    /// Runs to completion even under an exhausted budget: the incremental
    /// `dist_s`/`total` state must stay consistent, so a commit is atomic
    /// (its cost is one BFS — the same as the gain evaluation that chose
    /// `u`).
    // nsky-lint: allow(budget-check) — atomic by design: an interrupted commit would corrupt dist_s/total
    fn commit(&mut self, u: VertexId) {
        self.collect_improvements(u, true, &mut BudgetTicker::inert());
        self.total -= self.measure.contribution(self.dist_s[u as usize], self.n);
        self.in_group[u as usize] = true;
        // Drain improvements to release the borrow while mutating state.
        let improvements = std::mem::take(&mut self.improvements);
        for &(v, du) in &improvements {
            if v != u && !self.in_group[v as usize] {
                self.total += self.measure.contribution(du, self.n)
                    - self.measure.contribution(self.dist_s[v as usize], self.n);
            }
            self.dist_s[v as usize] = du;
        }
        self.improvements = improvements;
        self.dist_s[u as usize] = 0;
    }

    fn score(&self) -> f64 {
        self.measure.score(self.total, self.n)
    }
}

/// Greedily selects a group of (at most) `k` vertices maximizing the
/// group measure `M`.
///
/// Returns fewer than `k` vertices only when the candidate pool is
/// smaller than `k`.
///
/// # Examples
///
/// ```
/// use nsky_graph::generators::special::star;
/// use nsky_centrality::{greedy::{greedy_group, GreedyOptions}, measure::Harmonic};
///
/// let g = star(8);
/// let out = greedy_group(&g, Harmonic, 1, &GreedyOptions::default());
/// assert_eq!(out.group, vec![0]); // the hub maximizes GH for k = 1
/// ```
pub fn greedy_group<M: GroupMeasure>(
    g: &Graph,
    measure: M,
    k: usize,
    opts: &GreedyOptions,
) -> GreedyOutcome {
    greedy_group_with(g, measure, k, opts, &mut ExecutionContext::new()).outcome
}

/// The one entry point: [`greedy_group`] under an [`ExecutionContext`]
/// — budget, cancellation, checkpoint/resume and observability in any
/// combination. The recorder sees one `"greedy"` span around the
/// selection rounds plus a bulk flush of the run's evaluation counters
/// (`gain_evaluations`, `lazy_skips`) at exit; the round loops never
/// touch it. After a budget trip the outcome holds the greedy prefix
/// committed so far (each member was a genuine per-round argmax) with
/// the trip status in [`GreedyOutcome::completion`]; commits are atomic
/// — the budget is polled between and within gain *evaluations*, never
/// inside the state update of an already-chosen seed. When resuming,
/// use the same measure, `k`, and options the snapshot was taken under
/// — the state embeds none of them, so a mismatched resume silently
/// maximizes the wrong objective (the graph fingerprint only pins the
/// graph).
pub fn greedy_group_with<M: GroupMeasure>(
    g: &Graph,
    measure: M,
    k: usize,
    opts: &GreedyOptions,
    ctx: &mut ExecutionContext<'_>,
) -> ResumableRun<GreedyOutcome> {
    let rec = ctx.effective_recorder();
    rec.phase_start("greedy");
    let run = exec::drive(
        ctx,
        g.fingerprint(),
        GreedyState::fresh,
        |mut state, budget| {
            if !valid_greedy_state(g, &state) {
                state = GreedyState::fresh();
            }
            let (outcome, state) = greedy_leg(g, measure, k, opts, budget, state);
            let completion = outcome.completion;
            (outcome, state, completion)
        },
    );
    rec.phase_end("greedy");
    record_greedy_counters(rec, &run.outcome);
    run
}

/// Flushes a finished run's evaluation counters into a recorder — one
/// bulk call per field, at the entry-point boundary.
pub(crate) fn record_greedy_counters(rec: &dyn nsky_skyline::obs::Recorder, out: &GreedyOutcome) {
    rec.add(
        nsky_skyline::obs::Counter::GainEvaluations,
        out.gain_evaluations,
    );
    rec.add(nsky_skyline::obs::Counter::LazySkips, out.lazy_skips);
}

/// CELF is still seeding its queue with first-round gains.
const PHASE_SEEDING: u8 = 0;
/// Selection rounds are running (always the phase for the plain engine).
const PHASE_ROUNDS: u8 = 1;

/// Resume state of an interrupted greedy maximization.
///
/// The committed group is the durable core: commits are deterministic,
/// so replaying them rebuilds the incremental `dist_s`/`total` state
/// bit-identically (gain *evaluations* never mutate that state). For
/// the CELF engine the lazy queue rides along — entry gains are `f64`s
/// preserved bit-exactly — plus the seeding cursor and the round
/// counter; entries are sorted for a canonical encoding ([`HeapEntry`]'s
/// order is total on live queues, which hold one entry per vertex). A
/// trip during a gain re-evaluation re-pushes the popped entry with its
/// stale gain, so the resumed pop re-evaluates the same vertex against
/// the identical evaluator state.
pub(crate) struct GreedyState {
    phase: u8,
    group: Vec<VertexId>,
    seed_cursor: usize,
    round: u32,
    entries: Vec<(f64, VertexId, u32)>,
}

impl GreedyState {
    pub(crate) fn fresh() -> Self {
        GreedyState {
            phase: PHASE_SEEDING,
            group: Vec::new(),
            seed_cursor: 0,
            round: 0,
            entries: Vec::new(),
        }
    }

    /// Captures the live engine structures at a trip point.
    fn packed(
        phase: u8,
        group: &[VertexId],
        seed_cursor: usize,
        round: u32,
        heap: BinaryHeap<HeapEntry>,
    ) -> Self {
        let mut entries = heap.into_vec();
        entries.sort_unstable();
        GreedyState {
            phase,
            group: group.to_vec(),
            seed_cursor,
            round,
            entries: entries
                .into_iter()
                .map(|e| (e.gain, e.vertex, e.round))
                .collect(),
        }
    }

    /// Decodes the fields that follow the version gate. Shared with the
    /// `NeiSkyGroup` wrapper state, which checks its *own* format
    /// version first — `Snapshot::pack` writes the outermost type's
    /// version, so the wrapper must not re-check this type's.
    // nsky-lint: allow(budget-check) — bounded decode of a length-checked snapshot payload
    pub(crate) fn decode_fields(r: &mut Reader<'_>) -> Result<Self, RecoveryError> {
        let phase = r.take_u8()?;
        let group = r.take_u32_vec()?;
        let seed_cursor = r.take_usize()?;
        let round = r.take_u32()?;
        let entry_count = r.take_usize()?;
        let mut entries = Vec::new();
        for _ in 0..entry_count {
            let gain = r.take_f64()?;
            let vertex = r.take_u32()?;
            entries.push((gain, vertex, r.take_u32()?));
        }
        Ok(GreedyState {
            phase,
            group,
            seed_cursor,
            round,
            entries,
        })
    }
}

impl KernelState for GreedyState {
    const FORMAT_VERSION: u32 = 1;
    const KERNEL: KernelId = KernelId::GreedyGroup;

    // nsky-lint: allow(budget-check) — bounded single pass over the saved queue
    fn encode(&self, w: &mut Writer) {
        w.put_u8(self.phase);
        w.put_u32_slice(&self.group);
        w.put_usize(self.seed_cursor);
        w.put_u32(self.round);
        w.put_usize(self.entries.len());
        for &(gain, vertex, round) in &self.entries {
            w.put_f64(gain);
            w.put_u32(vertex);
            w.put_u32(round);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, RecoveryError> {
        r.expect_version(Self::FORMAT_VERSION)?;
        Self::decode_fields(r)
    }
}

/// Structural validation of a resumed greedy state: known phase, group
/// members distinct and in range (they are blindly re-committed), queue
/// vertices in range, and no committed members while still seeding
/// (seed gains are evaluated against the empty group). NaN gains are
/// tolerated — the queue orders by `total_cmp`, which is total.
pub(crate) fn valid_greedy_state(g: &Graph, st: &GreedyState) -> bool {
    let n = g.num_vertices();
    let mut seen = std::collections::BTreeSet::new();
    st.phase <= PHASE_ROUNDS
        && (st.phase == PHASE_ROUNDS || st.group.is_empty())
        && st.seed_cursor <= n
        && st.group.iter().all(|&u| (u as usize) < n && seen.insert(u))
        && st.entries.iter().all(|&(_, v, _)| (v as usize) < n)
}

pub(crate) fn greedy_leg<M: GroupMeasure>(
    g: &Graph,
    measure: M,
    k: usize,
    opts: &GreedyOptions,
    budget: &ExecutionBudget,
    state: GreedyState,
) -> (GreedyOutcome, GreedyState) {
    let pool: Vec<VertexId> = match &opts.candidates {
        Some(c) => c.clone(),
        None => g.vertices().collect(),
    };
    let k = k.min(pool.len());
    let mut ev = Evaluator::new(g, measure);
    let mut outcome = GreedyOutcome {
        group: Vec::with_capacity(k),
        score: ev.score(),
        gain_evaluations: 0,
        lazy_skips: 0,
        score_trace: Vec::with_capacity(k),
        // Inherit an earlier sticky trip on the shared budget (e.g. a
        // skyline phase that already timed out upstream).
        completion: budget.status(),
    };
    if k == 0 {
        return (outcome, state);
    }
    // Evaluator scratch: dist_s/dist_u/stamp (u32) + in_group + queue.
    if let Some(status) = budget.charge(g.num_vertices() * 17) {
        outcome.completion = status;
        return (outcome, state);
    }
    let mut state = state;
    if state.phase == PHASE_SEEDING && state.seed_cursor > pool.len() {
        // A seeding cursor beyond the pool cannot come from a genuine
        // snapshot of this configuration; degrade to a fresh run.
        state = GreedyState::fresh();
    }
    let mut ticker = budget.ticker();

    // Replay the committed prefix: commits are deterministic, so the
    // incremental dist_s/total state is rebuilt bit-identically.
    for &u in &state.group {
        ev.commit(u);
        outcome.group.push(u);
        outcome.score_trace.push(ev.score());
    }

    if opts.lazy {
        let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::with_capacity(pool.len());
        // nsky-lint: allow(poll-reachability) — bounded: rebuilds the saved lazy queue, at most one entry per pool vertex
        for &(gain, vertex, entry_round) in &state.entries {
            heap.push(HeapEntry {
                gain,
                vertex,
                round: entry_round,
            });
        }
        let mut round = state.round;
        if state.phase == PHASE_SEEDING {
            for (idx, &u) in pool.iter().enumerate().skip(state.seed_cursor) {
                outcome.gain_evaluations += 1;
                let Some(gain) = ev.gain(u, opts.pruned_bfs, &mut ticker) else {
                    outcome.completion = ticker.status();
                    outcome.score = ev.score();
                    let state =
                        GreedyState::packed(PHASE_SEEDING, &outcome.group, idx, round, heap);
                    return (outcome, state);
                };
                heap.push(HeapEntry {
                    gain,
                    vertex: u,
                    round: 0,
                });
            }
        }
        'rounds: while outcome.group.len() < k {
            let Some(top) = heap.pop() else {
                break; // pool smaller than k: return the partial group
            };
            if ev.in_group[top.vertex as usize] {
                outcome.lazy_skips += 1;
                continue;
            }
            if top.round == round {
                outcome.lazy_skips += 1;
                ev.commit(top.vertex);
                outcome.group.push(top.vertex);
                outcome.score_trace.push(ev.score());
                round += 1;
            } else {
                outcome.gain_evaluations += 1;
                let Some(gain) = ev.gain(top.vertex, opts.pruned_bfs, &mut ticker) else {
                    // Re-push the popped entry (stale gain intact) so the
                    // resumed run re-pops and re-evaluates it against the
                    // identical evaluator state.
                    outcome.completion = ticker.status();
                    heap.push(top);
                    break 'rounds;
                };
                heap.push(HeapEntry {
                    gain,
                    vertex: top.vertex,
                    round,
                });
            }
        }
        outcome.score = ev.score();
        let state = GreedyState::packed(PHASE_ROUNDS, &outcome.group, pool.len(), round, heap);
        (outcome, state)
    } else {
        'plain: while outcome.group.len() < k {
            let mut best: Option<(f64, VertexId)> = None;
            for &u in &pool {
                if ev.in_group[u as usize] {
                    continue;
                }
                outcome.gain_evaluations += 1;
                let Some(gain) = ev.gain(u, opts.pruned_bfs, &mut ticker) else {
                    // Trip mid-round: the round's argmax is unknown, so
                    // the in-progress round is dropped entirely.
                    outcome.completion = ticker.status();
                    break 'plain;
                };
                let better = match best {
                    None => true,
                    Some((bg, bv)) => gain > bg || (gain == bg && u < bv),
                };
                if better {
                    best = Some((gain, u));
                }
            }
            let Some((_, v)) = best else {
                break; // pool smaller than k: return the partial group
            };
            ev.commit(v);
            outcome.group.push(v);
            outcome.score_trace.push(ev.score());
        }
        outcome.score = ev.score();
        let state = GreedyState {
            phase: PHASE_ROUNDS,
            group: outcome.group.clone(),
            seed_cursor: pool.len(),
            round: 0,
            entries: Vec::new(),
        };
        (outcome, state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::group_score;
    use crate::measure::{Closeness, Decay, Harmonic};
    use nsky_graph::generators::special::{cycle, path, star};
    use nsky_graph::generators::{chung_lu_power_law, erdos_renyi};

    #[test]
    fn star_hub_first() {
        let g = star(10);
        for lazy in [false, true] {
            let opts = GreedyOptions {
                lazy,
                pruned_bfs: true,
                candidates: None,
            };
            let gc = greedy_group(&g, Closeness, 3, &opts);
            assert_eq!(gc.group[0], 0, "lazy={lazy}");
            let gh = greedy_group(&g, Harmonic, 3, &opts);
            assert_eq!(gh.group[0], 0, "lazy={lazy}");
        }
    }

    #[test]
    fn score_matches_independent_evaluation() {
        let g = erdos_renyi(120, 0.05, 3);
        for lazy in [false, true] {
            let opts = GreedyOptions {
                lazy,
                pruned_bfs: lazy,
                candidates: None,
            };
            let out = greedy_group(&g, Harmonic, 5, &opts);
            let independent = group_score(&g, Harmonic, &out.group);
            assert!(
                (out.score - independent).abs() < 1e-9,
                "incremental total drifted: {} vs {independent}",
                out.score
            );
            let out = greedy_group(&g, Closeness, 5, &opts);
            let independent = group_score(&g, Closeness, &out.group);
            assert!((out.score - independent).abs() < 1e-9);
        }
    }

    #[test]
    fn lazy_and_plain_agree() {
        // CELF returns a group with the same greedy score sequence.
        for seed in 0..4 {
            let g = erdos_renyi(80, 0.06, seed);
            let plain = greedy_group(&g, Harmonic, 6, &GreedyOptions::default());
            let lazy = greedy_group(&g, Harmonic, 6, &GreedyOptions::optimized());
            assert_eq!(plain.group, lazy.group, "seed {seed}");
            assert!(lazy.gain_evaluations <= plain.gain_evaluations);
        }
    }

    #[test]
    fn pruned_bfs_changes_nothing() {
        let g = chung_lu_power_law(300, 2.8, 5.0, 7);
        let a = greedy_group(
            &g,
            Closeness,
            5,
            &GreedyOptions {
                lazy: false,
                pruned_bfs: false,
                candidates: None,
            },
        );
        let b = greedy_group(
            &g,
            Closeness,
            5,
            &GreedyOptions {
                lazy: false,
                pruned_bfs: true,
                candidates: None,
            },
        );
        assert_eq!(a.group, b.group);
        assert!((a.score - b.score).abs() < 1e-9);
    }

    #[test]
    fn candidate_restriction_respected() {
        let g = cycle(12);
        let opts = GreedyOptions {
            lazy: false,
            pruned_bfs: false,
            candidates: Some(vec![0, 3, 6, 9]),
        };
        let out = greedy_group(&g, Harmonic, 3, &opts);
        assert!(out.group.iter().all(|u| [0, 3, 6, 9].contains(u)));
        assert_eq!(out.group.len(), 3);
    }

    #[test]
    fn evaluation_counts_match_formula_for_plain_greedy() {
        // BaseGC performs k(2n − k + 1)/2 gain evaluations.
        let g = path(20);
        let (n, k) = (20u64, 4u64);
        let out = greedy_group(&g, Closeness, k as usize, &GreedyOptions::default());
        assert_eq!(out.gain_evaluations, k * (2 * n - k + 1) / 2);
    }

    #[test]
    fn greedy_monotone_score_trace() {
        let g = erdos_renyi(100, 0.05, 11);
        for lazy in [false, true] {
            let out = greedy_group(
                &g,
                Harmonic,
                8,
                &GreedyOptions {
                    lazy,
                    pruned_bfs: true,
                    candidates: None,
                },
            );
            for w in out.score_trace.windows(2) {
                assert!(w[1] >= w[0] - 1e-9, "harmonic trace must not decrease");
            }
        }
    }

    #[test]
    fn k_edge_cases() {
        let g = path(5);
        assert!(greedy_group(&g, Harmonic, 0, &GreedyOptions::default())
            .group
            .is_empty());
        let all = greedy_group(&g, Harmonic, 99, &GreedyOptions::default());
        assert_eq!(all.group.len(), 5);
        let empty = greedy_group(&Graph::empty(0), Harmonic, 3, &GreedyOptions::default());
        assert!(empty.group.is_empty());
    }

    #[test]
    fn decay_measure_works_in_greedy() {
        let g = star(8);
        let out = greedy_group(&g, Decay::new(0.5), 2, &GreedyOptions::default());
        assert_eq!(out.group[0], 0);
        assert_eq!(out.group.len(), 2);
    }

    #[test]
    fn disconnected_graph_selection_spans_components() {
        let g = Graph::from_edges(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]);
        let out = greedy_group(&g, Closeness, 2, &GreedyOptions::default());
        let comp = |u: VertexId| u / 4;
        assert_ne!(
            comp(out.group[0]),
            comp(out.group[1]),
            "second pick should cover the other component: {:?}",
            out.group
        );
    }
}
