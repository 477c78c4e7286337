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
//!
//! The first round scores every pool vertex against the empty group —
//! CELF's queue seeding, and the plain engine's first round. Nothing
//! prunes those traversals, so they run as one bit-parallel BFS per
//! batch of 64 pool vertices (multi-source BFS: Then et al., *The More
//! the Merrier*, PVLDB 8(4), 2014), one bit of a `u64` word per source.
//! Against the empty group every vertex a source first reaches at
//! distance `d` adds the same term `f(d) − f(∞)`, and the sequential BFS
//! adds them in nondecreasing `d`; adding each level's term once per
//! vertex, level by level, repeats that sum bit for bit. Later rounds
//! keep the pruned sequential BFS. A budget trip inside a batch drops
//! the batch and saves its first pool index as the seeding cursor. The
//! first round depends only on the graph and the pool, so a caller that
//! runs many groups on one graph computes it once
//! (`first_round_gains`) and hands it to every leg.

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

impl GreedyOutcome {
    /// The outcome of a run that committed nothing: the empty group's
    /// score, after `gain_evaluations` evaluations.
    pub(crate) fn unstarted<M: GroupMeasure>(
        measure: M,
        n: usize,
        gain_evaluations: u64,
        completion: Completion,
    ) -> GreedyOutcome {
        GreedyOutcome {
            group: Vec::new(),
            score: measure.score(empty_total(measure, n), n),
            gain_evaluations,
            lazy_skips: 0,
            score_trace: Vec::new(),
            completion,
        }
    }
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

/// Pool vertices scored by one bit-parallel seeding BFS: one bit of a
/// `u64` row word each.
const BATCH: usize = 64;

/// Raw total `Σ_v f(∞)` of the empty group.
fn empty_total<M: GroupMeasure>(measure: M, n: usize) -> f64 {
    // CAST: n < 2^32 vertices, exact in f64.
    n as f64 * measure.contribution(u32::MAX, n)
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
    // Seeding rows, bit `i` for source `i` of the batch: reached so far,
    // this level's frontier, the next level's. A vertex's words are
    // valid while its stamp equals the batch's round. Empty in legs
    // with no empty-group round.
    seen: Vec<u64>,
    frontier: Vec<u64>,
    next: Vec<u64>,
}

impl<'g, M: GroupMeasure> Evaluator<'g, M> {
    fn new(g: &'g Graph, measure: M, seeding: bool) -> Self {
        let n = g.num_vertices();
        let rows = if seeding { n } else { 0 };
        Evaluator {
            g,
            measure,
            n,
            dist_s: vec![u32::MAX; n],
            in_group: vec![false; n],
            total: empty_total(measure, n),
            dist_u: vec![u32::MAX; n],
            stamp: vec![u32::MAX; n],
            round: 0,
            queue: VecDeque::new(),
            improvements: Vec::new(),
            seen: vec![0; rows],
            frontier: vec![0; rows],
            next: vec![0; rows],
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
    /// mid-evaluation (the partial improvement list is discarded). The
    /// engine calls it only once the group has a member; empty-group
    /// gains come from [`Evaluator::seed_gains`].
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
        Some(self.oriented_gain(delta, own))
    }

    /// The gain of a candidate whose reached vertices change the raw
    /// total by `delta` and whose own term `own` leaves the sum, in the
    /// maximize orientation of the measure.
    fn oriented_gain(&self, delta: f64, own: f64) -> f64 {
        let new_total = self.total + delta - own;
        if self.measure.maximize_total() {
            new_total - self.total
        } else {
            self.total - new_total
        }
    }

    /// Empty-group gains of up to [`BATCH`] pool vertices from one
    /// bit-parallel BFS, bit-identical to [`Evaluator::gain`]'s: entry
    /// `i` belongs to `batch[i]` (a repeated vertex gets one bit per
    /// occurrence). Polls once per frontier vertex and once per edge,
    /// like the sequential BFS; returns `None` on a trip, dropping the
    /// batch's partial counts.
    fn seed_gains(
        &mut self,
        batch: &[VertexId],
        ticker: &mut BudgetTicker<'_>,
    ) -> Option<[f64; BATCH]> {
        debug_assert!(batch.len() <= BATCH && self.seen.len() == self.n);
        self.round += 1;
        let round = self.round;
        self.queue.clear();
        // nsky-lint: allow(poll-reachability) — bounded: one pass over the batch, at most 64 sources
        for (i, &s) in batch.iter().enumerate() {
            let s = s as usize;
            self.touch(s, round);
            if self.frontier[s] == 0 {
                self.queue.push_back(s as VertexId);
            }
            self.seen[s] |= 1 << i;
            self.frontier[s] |= 1 << i;
        }
        let unreached = self.measure.contribution(u32::MAX, self.n);
        let mut delta = [0.0; BATCH];
        let mut level = 1;
        let mut level_left = self.queue.len();
        while let Some(v) = self.queue.pop_front() {
            if ticker.check().is_some() {
                return None;
            }
            let reach = std::mem::take(&mut self.frontier[v as usize]);
            for &w in self.g.neighbors(v) {
                if ticker.check().is_some() {
                    return None;
                }
                let w = w as usize;
                self.touch(w, round);
                let fresh = reach & !self.seen[w];
                if fresh != 0 {
                    if self.next[w] == 0 {
                        self.queue.push_back(w as VertexId);
                    }
                    self.next[w] |= fresh;
                    self.seen[w] |= fresh;
                }
            }
            level_left -= 1;
            if level_left == 0 {
                // The queue now holds exactly the next level.
                self.close_level(level, unreached, &mut delta);
                level += 1;
                level_left = self.queue.len();
            }
        }
        // Against the empty group the candidate's own term is f(∞).
        Some(delta.map(|d| self.oriented_gain(d, unreached)))
    }

    /// Clears a seeding vertex's words the first time a batch reaches it.
    fn touch(&mut self, v: usize, round: u32) {
        if self.stamp[v] != round {
            self.stamp[v] = round;
            self.seen[v] = 0;
            self.frontier[v] = 0;
            self.next[v] = 0;
        }
    }

    /// Ends BFS level `level` of a seeding batch, whose queue holds the
    /// vertices some source first reached at `level`: their `next`
    /// words become the frontier, and each source's `delta` gains one
    /// `f(level) − f(∞)` per vertex it first reached. The sequential
    /// BFS adds the same terms in the same order — all of level 1, then
    /// all of level 2, … — so repeated addition (not a product, which
    /// rounds differently) reproduces its sum bit for bit.
    // nsky-lint: allow(budget-check) — bounded by one level's queue and discoveries; the expansion that built them is ticked
    fn close_level(&mut self, level: u32, unreached: f64, delta: &mut [f64; BATCH]) {
        let mut counts = [0u32; BATCH];
        // nsky-lint: allow(poll-reachability) — bounded: one pass over the next level, each vertex queued once
        for &w in &self.queue {
            let bits = std::mem::take(&mut self.next[w as usize]);
            self.frontier[w as usize] = bits;
            let mut rest = bits;
            // nsky-lint: allow(poll-reachability) — bounded: one step per set bit, at most 64
            while rest != 0 {
                counts[rest.trailing_zeros() as usize] += 1;
                rest &= rest - 1;
            }
        }
        let term = self.measure.contribution(level, self.n) - unreached;
        // nsky-lint: allow(poll-reachability) — bounded: one pass over the batch's sources
        for (d, &c) in delta.iter_mut().zip(&counts) {
            // nsky-lint: allow(poll-reachability) — bounded: one add per vertex first reached at this level
            for _ in 0..c {
                *d += term;
            }
        }
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
        || g.fingerprint(),
        GreedyState::fresh,
        |mut state, budget| {
            if !valid_greedy_state(g, &state) {
                state = GreedyState::fresh();
            }
            let (outcome, state) = greedy_leg(g, measure, k, opts, None, budget, state);
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

/// The empty-group gain of every `pool` entry, in pool order: the
/// engine's first round, as the batched seeding BFS a seeding leg runs,
/// so the gains are bit-identical to that leg's. Charges the evaluator
/// and the seeding rows (17 + 24 B/vertex) before allocating them. On a
/// trip returns the status and the evaluations a seeding leg would have
/// counted by then: one per pool entry of every batch it started.
pub(crate) fn first_round_gains<M: GroupMeasure>(
    g: &Graph,
    measure: M,
    pool: &[VertexId],
    budget: &ExecutionBudget,
) -> Result<Vec<f64>, (Completion, u64)> {
    if let Some(status) = budget.charge(g.num_vertices() * (17 + 24)) {
        return Err((status, 0));
    }
    let mut ev = Evaluator::new(g, measure, true);
    let mut ticker = budget.ticker();
    let mut gains = Vec::with_capacity(pool.len());
    for batch in pool.chunks(BATCH) {
        let Some(batch_gains) = ev.seed_gains(batch, &mut ticker) else {
            return Err((ticker.status(), (gains.len() + batch.len()) as u64));
        };
        gains.extend_from_slice(&batch_gains[..batch.len()]);
    }
    Ok(gains)
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
/// (seed gains are evaluated against the empty group). The CELF round
/// counter never exceeds the committed group and no queue entry is
/// newer than it, so a stale entry always postdates a commit and is
/// never re-evaluated against the empty group. NaN gains are tolerated
/// — the queue orders by `total_cmp`, which is total.
pub(crate) fn valid_greedy_state(g: &Graph, st: &GreedyState) -> bool {
    let n = g.num_vertices();
    let mut seen = std::collections::BTreeSet::new();
    st.phase <= PHASE_ROUNDS
        && (st.phase == PHASE_ROUNDS || st.group.is_empty())
        && st.seed_cursor <= n
        && st.round as usize <= st.group.len()
        && st.group.iter().all(|&u| (u as usize) < n && seen.insert(u))
        && st
            .entries
            .iter()
            .all(|&(_, v, r)| (v as usize) < n && r <= st.round)
}

/// One argmax step of the plain engine: the larger gain wins, ties go
/// to the smaller vertex id.
fn keep_best(best: &mut Option<(f64, VertexId)>, gain: f64, u: VertexId) {
    let better = match *best {
        None => true,
        Some((bg, bv)) => gain > bg || (gain == bg && u < bv),
    };
    if better {
        *best = Some((gain, u));
    }
}

/// One leg of the greedy engine. `seeded` holds the pool's empty-group
/// gains from [`first_round_gains`] when the caller computed them once
/// for many runs: the first round then reads them instead of running
/// the seeding BFS, and still counts one evaluation per pool entry.
pub(crate) fn greedy_leg<M: GroupMeasure>(
    g: &Graph,
    measure: M,
    k: usize,
    opts: &GreedyOptions,
    seeded: Option<&[f64]>,
    budget: &ExecutionBudget,
    state: GreedyState,
) -> (GreedyOutcome, GreedyState) {
    let all: Vec<VertexId>;
    let pool: &[VertexId] = match &opts.candidates {
        Some(c) => c,
        None => {
            all = g.vertices().collect();
            &all
        }
    };
    debug_assert!(seeded.map_or(true, |gains| gains.len() == pool.len()));
    let k = k.min(pool.len());
    let mut state = state;
    if state.phase == PHASE_SEEDING && state.seed_cursor > pool.len() {
        // A seeding cursor beyond the pool cannot come from a genuine
        // snapshot of this configuration; degrade to a fresh run.
        state = GreedyState::fresh();
    }
    let n = g.num_vertices();
    // Inherit an earlier sticky trip on the shared budget.
    let mut outcome = GreedyOutcome::unstarted(measure, n, 0, budget.status());
    if k == 0 {
        return (outcome, state);
    }
    // Evaluator scratch: dist_s/dist_u/stamp (u32) + in_group + queue,
    // plus the seen/frontier/next rows (u64) if this leg still scores
    // the pool against the empty group itself.
    let seeding = seeded.is_none()
        && if opts.lazy {
            state.phase == PHASE_SEEDING
        } else {
            state.group.is_empty()
        };
    let rows = if seeding { 24 } else { 0 };
    if let Some(status) = budget.charge(n * (17 + rows)) {
        outcome.completion = status;
        return (outcome, state);
    }
    let mut ev = Evaluator::new(g, measure, seeding);
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
        if let Some(gains) = seeded.filter(|_| state.phase == PHASE_SEEDING) {
            let from = state.seed_cursor;
            outcome.gain_evaluations += (pool.len() - from) as u64;
            // nsky-lint: allow(poll-reachability) — bounded: one queue entry per pool vertex
            for (&vertex, &gain) in pool[from..].iter().zip(&gains[from..]) {
                heap.push(HeapEntry {
                    gain,
                    vertex,
                    round: 0,
                });
            }
        } else if state.phase == PHASE_SEEDING {
            let from = state.seed_cursor;
            for (b, batch) in pool[from..].chunks(BATCH).enumerate() {
                outcome.gain_evaluations += batch.len() as u64;
                let Some(gains) = ev.seed_gains(batch, &mut ticker) else {
                    // A resumed run rescores the whole batch.
                    outcome.completion = ticker.status();
                    outcome.score = ev.score();
                    let cursor = from + b * BATCH;
                    let state =
                        GreedyState::packed(PHASE_SEEDING, &outcome.group, cursor, round, heap);
                    return (outcome, state);
                };
                // nsky-lint: allow(poll-reachability) — bounded: one queue entry per batch vertex
                for (&vertex, &gain) in batch.iter().zip(&gains) {
                    heap.push(HeapEntry {
                        gain,
                        vertex,
                        round: 0,
                    });
                }
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
                // Entry rounds never exceed `round`, which never exceeds
                // the group size (see `valid_greedy_state`): a stale
                // entry implies a member, so `gain` never sees S = ∅.
                debug_assert!(!outcome.group.is_empty());
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
            if let Some(gains) = seeded.filter(|_| outcome.group.is_empty()) {
                outcome.gain_evaluations += pool.len() as u64;
                // nsky-lint: allow(poll-reachability) — bounded: one argmax step per pool vertex
                for (&u, &gain) in pool.iter().zip(gains) {
                    keep_best(&mut best, gain, u);
                }
            } else if outcome.group.is_empty() {
                for batch in pool.chunks(BATCH) {
                    outcome.gain_evaluations += batch.len() as u64;
                    let Some(gains) = ev.seed_gains(batch, &mut ticker) else {
                        outcome.completion = ticker.status();
                        break 'plain;
                    };
                    // nsky-lint: allow(poll-reachability) — bounded: one argmax step per batch vertex
                    for (&u, &gain) in batch.iter().zip(&gains) {
                        keep_best(&mut best, gain, u);
                    }
                }
            } else {
                for &u in pool {
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
                    keep_best(&mut best, gain, u);
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
    use nsky_graph::traversal::bfs_distances;
    use nsky_skyline::budget::TripClock;

    /// Scores `pool` against the empty group through the batched
    /// seeding BFS and through the sequential `gain`, and requires the
    /// same bits for every pool entry.
    fn assert_seed_gains_match<M: GroupMeasure>(g: &Graph, measure: M, pool: &[VertexId]) {
        let mut ev = Evaluator::new(g, measure, true);
        let mut ticker = BudgetTicker::inert();
        for batch in pool.chunks(BATCH) {
            let gains = ev
                .seed_gains(batch, &mut ticker)
                .expect("an inert ticker never trips");
            for (&u, &batched) in batch.iter().zip(&gains) {
                let sequential = ev
                    .gain(u, true, &mut ticker)
                    .expect("an inert ticker never trips");
                assert_eq!(
                    batched.to_bits(),
                    sequential.to_bits(),
                    "{} vertex {u}: batched {batched} vs sequential {sequential}",
                    M::NAME
                );
            }
        }
    }

    fn assert_seed_gains_match_all_measures(g: &Graph, pool: &[VertexId]) {
        assert_seed_gains_match(g, Closeness, pool);
        assert_seed_gains_match(g, Harmonic, pool);
        assert_seed_gains_match(g, Decay::new(0.6), pool);
    }

    #[test]
    fn seed_gains_match_sequential_gains_bit_for_bit() {
        // Sparse random graphs: long distances, where 1/d and 0.6^d are
        // inexact in binary and the summation order shows.
        for seed in 0..4 {
            for g in [
                erdos_renyi(150, 0.02, seed),
                chung_lu_power_law(200, 2.5, 2.5, seed),
            ] {
                let far = bfs_distances(&g, 0)
                    .into_iter()
                    .filter(|&d| d != u32::MAX)
                    .max();
                assert!(far >= Some(3), "seed {seed}: distances stay below 3");
                let pool: Vec<VertexId> = g.vertices().collect();
                assert_seed_gains_match_all_measures(&g, &pool);
            }
        }
        assert_seed_gains_match_all_measures(&path(70), &(0..70).collect::<Vec<_>>());
        assert_seed_gains_match_all_measures(&cycle(131), &(0..131).collect::<Vec<_>>());
    }

    #[test]
    fn seed_gains_cover_unreachable_vertices() {
        // Two paths, a triangle and six isolated vertices: every source
        // leaves most of the graph at f(∞) — the penalty n for
        // closeness, 0 for harmonic and decay.
        let g = Graph::from_edges(
            16,
            [
                (0, 1),
                (1, 2),
                (2, 3),
                (4, 5),
                (5, 6),
                (7, 8),
                (8, 9),
                (9, 7),
            ],
        );
        assert_seed_gains_match_all_measures(&g, &(0..16).collect::<Vec<_>>());
    }

    #[test]
    fn seed_gains_hold_across_batch_boundaries() {
        let g = erdos_renyi(140, 0.02, 9);
        for size in [1, 63, 64, 65, 129] {
            // Stride through the graph so batches mix components.
            let pool: Vec<VertexId> = (0..size).map(|i| (i * 37 % 140) as VertexId).collect();
            assert_seed_gains_match_all_measures(&g, &pool);
        }
        // A candidate pool may repeat a vertex: each occurrence gets its
        // own bit, and the same gain.
        let repeated: Vec<VertexId> = (0..100).map(|i| [3, 3, 17, 3, 88][i % 5]).collect();
        assert_seed_gains_match_all_measures(&g, &repeated);
    }

    #[test]
    fn repeated_candidates_keep_the_pool_semantics() {
        let g = erdos_renyi(90, 0.04, 2);
        let pool: Vec<VertexId> = (0..90).chain(0..40).collect();
        for lazy in [false, true] {
            let opts = GreedyOptions {
                lazy,
                pruned_bfs: lazy,
                candidates: Some(pool.clone()),
            };
            let out = greedy_group(&g, Harmonic, 4, &opts);
            let unique = greedy_group(
                &g,
                Harmonic,
                4,
                &GreedyOptions {
                    candidates: None,
                    ..opts
                },
            );
            assert_eq!(out.group, unique.group, "lazy={lazy}");
            assert_eq!(out.score.to_bits(), unique.score.to_bits(), "lazy={lazy}");
            if !lazy {
                // Every pool entry is one evaluation in the first round.
                assert!(out.gain_evaluations > unique.gain_evaluations);
            }
        }
    }

    #[test]
    fn seeding_trips_save_the_batch_start() {
        let g = erdos_renyi(130, 0.01, 43);
        let opts = GreedyOptions::optimized();
        let leg = |budget: &ExecutionBudget, state| {
            greedy_leg(&g, Closeness, 2, &opts, None, budget, state)
        };
        let (full, _) = leg(&ExecutionBudget::unlimited(), GreedyState::fresh());
        let mut cursors = std::collections::BTreeSet::new();
        // Seeding polls come first: trip at each until the rounds begin.
        for k in 1.. {
            let budget = ExecutionBudget::unlimited()
                .deadline(TripClock::at_poll(k))
                .check_interval(1);
            let (partial, state) = leg(&budget, GreedyState::fresh());
            if state.phase != PHASE_SEEDING {
                break;
            }
            assert_eq!(partial.completion, Completion::DeadlineExceeded, "k={k}");
            assert_eq!(state.seed_cursor % BATCH, 0, "k={k}: cursor inside a batch");
            assert_eq!(state.entries.len(), state.seed_cursor, "k={k}");
            if cursors.insert(state.seed_cursor) || k % 97 == 0 {
                let (resumed, _) = leg(&ExecutionBudget::unlimited(), state);
                assert_eq!(resumed.group, full.group, "k={k}");
                assert_eq!(resumed.score.to_bits(), full.score.to_bits(), "k={k}");
            }
        }
        // Trips landed in all three batches: 64 + 64 + 2.
        assert_eq!(cursors.into_iter().collect::<Vec<_>>(), [0, 64, 128]);
    }

    #[test]
    fn a_cursor_inside_a_batch_still_resumes() {
        // Sequential seeding saved any pool index as its cursor; a
        // batch may start there.
        let g = erdos_renyi(130, 0.02, 5);
        let opts = GreedyOptions::optimized();
        let (full, _) = greedy_leg(
            &g,
            Harmonic,
            3,
            &opts,
            None,
            &ExecutionBudget::unlimited(),
            GreedyState::fresh(),
        );
        for cursor in [1, 37, 63, 65, 100, 129] {
            let mut ev = Evaluator::new(&g, Harmonic, false);
            let mut ticker = BudgetTicker::inert();
            let entries = (0..cursor)
                .map(|u| (ev.gain(u, true, &mut ticker).expect("inert"), u, 0))
                .collect();
            let state = GreedyState {
                phase: PHASE_SEEDING,
                group: Vec::new(),
                seed_cursor: cursor as usize,
                round: 0,
                entries,
            };
            let (resumed, _) = greedy_leg(
                &g,
                Harmonic,
                3,
                &opts,
                None,
                &ExecutionBudget::unlimited(),
                state,
            );
            assert_eq!(resumed.group, full.group, "cursor {cursor}");
            assert_eq!(
                resumed.score.to_bits(),
                full.score.to_bits(),
                "cursor {cursor}"
            );
            assert_eq!(resumed.score_trace, full.score_trace, "cursor {cursor}");
        }
    }

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
