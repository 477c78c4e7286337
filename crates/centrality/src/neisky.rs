//! `NeiSkyGC` / `NeiSkyGH` — greedy group-centrality maximization
//! restricted to the neighborhood skyline (paper Algorithm 4 and
//! Sec. IV-B.2).
//!
//! Soundness comes from Lemma 3/4: if `v ≤ u` then for any group `S` not
//! containing them, `GC(S ∪ {u}) ≥ GC(S ∪ {v})` (same for `GH`), so
//! restricting the per-round `argmax` to skyline vertices loses nothing:
//! any dominated candidate has a skyline dominator with at least its
//! marginal gain. (The intuition: a shortest path ending in `v` can be
//! rerouted to end in `u` with the same length because every neighbor of
//! `v` also neighbors `u`.)
//!
//! The greedy runs on a [`NeiSkyGroupInput`]: the skyline pool and its
//! empty-group gains for one measure, the engine's whole first round.
//! Both depend on the graph alone, so a caller that answers many queries
//! on one graph builds them once and each run is only the later rounds.

use crate::greedy::{
    first_round_gains, greedy_leg, record_greedy_counters, valid_greedy_state, GreedyOptions,
    GreedyOutcome, GreedyState,
};
use crate::measure::{Closeness, GroupMeasure, Harmonic};
use nsky_graph::{Graph, VertexId};
use nsky_skyline::budget::ExecutionBudget;
use nsky_skyline::exec::{self, ExecutionContext};
use nsky_skyline::obs::{Counter, Recorder};
use nsky_skyline::snapshot::{KernelId, KernelState, Reader, RecoveryError, ResumableRun, Writer};
use nsky_skyline::{filter_refine_sky_with, RefineConfig};

/// Result of a skyline-pruned maximization, with the skyline size the
/// evaluation-count formula `k(2r − k + 1)/2` depends on.
#[derive(Clone, Debug)]
pub struct NeiSkyOutcome {
    /// The greedy outcome over the restricted pool.
    pub greedy: GreedyOutcome,
    /// `r = |R|`, the skyline size.
    pub skyline_size: usize,
}

/// The graph-only input of a skyline-restricted greedy for one measure:
/// the exact skyline (the candidate pool, ascending) and every pool
/// vertex's gain against the empty group. Build it with
/// [`NeiSkyGroupInput::build`]; it is only meaningful for the graph it
/// was built from.
#[derive(Clone, Debug)]
pub struct NeiSkyGroupInput<M> {
    measure: M,
    pool: Vec<VertexId>,
    gains: Vec<f64>,
}

impl<M: GroupMeasure> NeiSkyGroupInput<M> {
    /// Builds the input of `g` for `measure` under the context's budget,
    /// inside one `"skyline"` recorder span. `skyline` is `g`'s exact
    /// skyline when the caller already holds it; otherwise
    /// FilterRefineSky computes it. The batched seeding BFS then scores
    /// every skyline vertex against the empty group, charging 41
    /// B/vertex first. A trip returns the run's partial answer as `Err`,
    /// an empty group with the trip status, and flushes its counters
    /// into the context's recorder as [`nei_sky_group_with`] would. A
    /// partial skyline seeds nothing; a trip while seeding counts the
    /// evaluations of the batches started. The build saves nothing
    /// durable, so the context's resume and checkpoint slots are unused:
    /// build before arming a checkpoint period.
    pub fn build(
        g: &Graph,
        measure: M,
        skyline: Option<&[VertexId]>,
        ctx: &ExecutionContext<'_>,
    ) -> Result<NeiSkyGroupInput<M>, NeiSkyOutcome> {
        let rec = ctx.effective_recorder();
        rec.phase_start("skyline");
        let built = Self::build_under(g, measure, skyline, ctx.effective_budget());
        rec.phase_end("skyline");
        built.map_err(|partial| {
            record_outcome(rec, &partial);
            partial
        })
    }

    fn build_under(
        g: &Graph,
        measure: M,
        skyline: Option<&[VertexId]>,
        budget: &ExecutionBudget,
    ) -> Result<NeiSkyGroupInput<M>, NeiSkyOutcome> {
        let unstarted = |evaluations, completion, skyline_size| NeiSkyOutcome {
            greedy: GreedyOutcome::unstarted(measure, g.num_vertices(), evaluations, completion),
            skyline_size,
        };
        let pool = match skyline {
            Some(skyline) => skyline.to_vec(),
            None => {
                let sky = filter_refine_sky_with(
                    g,
                    &RefineConfig::default(),
                    &mut ExecutionContext::new().budget(budget),
                )
                .outcome;
                if !sky.completion.is_complete() {
                    return Err(unstarted(0, sky.completion, sky.skyline.len()));
                }
                sky.skyline
            }
        };
        match first_round_gains(g, measure, &pool, budget) {
            Ok(gains) => Ok(NeiSkyGroupInput {
                measure,
                pool,
                gains,
            }),
            Err((completion, evaluations)) => Err(unstarted(evaluations, completion, pool.len())),
        }
    }

    /// The candidate pool: the exact skyline, ascending.
    pub fn pool(&self) -> &[VertexId] {
        &self.pool
    }
}

/// Generic skyline-restricted greedy: computes `R` with
/// `FilterRefineSky` and its first-round gains, then runs the configured
/// greedy engine over `R`.
pub fn nei_sky_group<M: GroupMeasure>(
    g: &Graph,
    measure: M,
    k: usize,
    lazy: bool,
) -> NeiSkyOutcome {
    match NeiSkyGroupInput::build(g, measure, None, &ExecutionContext::new()) {
        Ok(input) => nei_sky_group_with(g, &input, k, lazy, &mut ExecutionContext::new()).outcome,
        // An unlimited budget never trips.
        Err(partial) => partial,
    }
}

/// The one entry point: [`nei_sky_group`]'s greedy on a prepared
/// `input` built from `g`, under an [`ExecutionContext`] — budget,
/// cancellation, checkpoint/resume and observability in any
/// combination. The first round reads the input's gains; every later
/// round runs the configured engine. The recorder sees a `"greedy"`
/// span around the selection rounds and a bulk flush of the evaluation
/// counters plus the skyline size (as `candidates_emitted`) at exit.
/// `gain_evaluations` still counts the first round, one evaluation per
/// pool vertex, so complete runs keep the `k(2r − k + 1)/2` identity.
/// The run charges only the evaluator (17 B/vertex): the seeding rows
/// belong to the build. After a budget trip the outcome carries the
/// trip status and the committed greedy prefix; when checkpointing,
/// only the greedy engine's progress is persisted.
pub fn nei_sky_group_with<M: GroupMeasure>(
    g: &Graph,
    input: &NeiSkyGroupInput<M>,
    k: usize,
    lazy: bool,
    ctx: &mut ExecutionContext<'_>,
) -> ResumableRun<NeiSkyOutcome> {
    let rec = ctx.effective_recorder();
    let skyline_size = input.pool.len();
    let opts = GreedyOptions {
        lazy,
        pruned_bfs: lazy,
        candidates: Some(input.pool.clone()),
    };
    let run = exec::drive(
        ctx,
        || g.fingerprint(),
        || NeiSkyGroupState(GreedyState::fresh()),
        |mut state, budget| {
            if !valid_greedy_state(g, &state.0) {
                state = NeiSkyGroupState(GreedyState::fresh());
            }
            rec.phase_start("greedy");
            let seeded = Some(input.gains.as_slice());
            let (greedy, inner) = greedy_leg(g, input.measure, k, &opts, seeded, budget, state.0);
            rec.phase_end("greedy");
            let completion = greedy.completion;
            (
                NeiSkyOutcome {
                    greedy,
                    skyline_size,
                },
                NeiSkyGroupState(inner),
                completion,
            )
        },
    );
    record_outcome(rec, &run.outcome);
    run
}

/// Flushes a finished run's counters: the greedy evaluation counters
/// and the skyline size.
fn record_outcome(rec: &dyn Recorder, out: &NeiSkyOutcome) {
    record_greedy_counters(rec, &out.greedy);
    rec.add(Counter::CandidatesEmitted, out.skyline_size as u64);
}

/// Resume state of an interrupted skyline-restricted greedy run: the
/// embedded [`GreedyState`] under its own kernel id. The distinct id
/// matters because the seeding cursor indexes the candidate *pool* —
/// the skyline here, all vertices for the unrestricted engine — so a
/// snapshot from one engine resumed in the other is rejected as a
/// kernel mismatch instead of silently misaligning the cursor.
struct NeiSkyGroupState(GreedyState);

impl KernelState for NeiSkyGroupState {
    const FORMAT_VERSION: u32 = 1;
    const KERNEL: KernelId = KernelId::NeiSkyGroup;

    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, RecoveryError> {
        // Gate on *this* type's version — `Snapshot::pack` wrote it, not
        // the embedded engine's — then decode the shared fields.
        r.expect_version(Self::FORMAT_VERSION)?;
        Ok(NeiSkyGroupState(GreedyState::decode_fields(r)?))
    }
}

/// `NeiSkyGC` (paper Algorithm 4): group closeness maximization over the
/// skyline, with the optimized (CELF + pruned BFS) engine.
///
/// # Examples
///
/// ```
/// use nsky_graph::generators::special::star;
/// use nsky_centrality::neisky::nei_sky_gc;
///
/// let out = nei_sky_gc(&star(9), 1);
/// assert_eq!(out.greedy.group, vec![0]);
/// assert_eq!(out.skyline_size, 1); // only the hub is skyline
/// ```
pub fn nei_sky_gc(g: &Graph, k: usize) -> NeiSkyOutcome {
    nei_sky_group(g, Closeness, k, true)
}

/// `NeiSkyGH`: group harmonic maximization over the skyline.
pub fn nei_sky_gh(g: &Graph, k: usize) -> NeiSkyOutcome {
    nei_sky_group(g, Harmonic, k, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::greedy_group;
    use crate::group::group_score;
    use crate::measure::Decay;
    use nsky_graph::generators::{chung_lu_power_law, erdos_renyi};
    use nsky_graph::VertexId;
    use nsky_skyline::domination::dominates;
    use nsky_skyline::filter_refine_sky;

    /// Lemma 3/4 spot check for *adjacent* dominator pairs: swapping a
    /// dominated vertex for an adjacent dominator never lowers the group
    /// score. (For adjacent pairs the excluded-term swap is exact:
    /// `d(v, S∪{u}) = d(u, S∪{v}) = 1`; for non-adjacent pairs the
    /// paper's lemma as literally stated admits counterexamples — see
    /// DESIGN.md — and the skyline restriction is validated empirically
    /// by `neisky_matches_unrestricted_greedy_score` below.)
    fn lemma_holds<M: GroupMeasure>(g: &Graph, measure: M) -> u32 {
        let mut checked = 0;
        for (a, b) in g.edges() {
            for (v, u) in [(a, b), (b, a)] {
                if !dominates(g, u, v) {
                    continue;
                }
                checked += 1;
                // S = some fixed small set avoiding u, v.
                let s: Vec<VertexId> = g.vertices().filter(|&x| x != u && x != v).take(2).collect();
                let mut with_u = s.clone();
                with_u.push(u);
                let mut with_v = s.clone();
                with_v.push(v);
                let su = group_score(g, measure, &with_u);
                let sv = group_score(g, measure, &with_v);
                assert!(
                    su >= sv - 1e-9,
                    "Lemma violated for {} with v={v} ≤ u={u}: {su} < {sv}",
                    M::NAME
                );
            }
        }
        checked
    }

    #[test]
    fn lemma3_closeness_on_random_graphs() {
        let mut checked = 0;
        for seed in 0..3 {
            checked += lemma_holds(&erdos_renyi(40, 0.12, seed), Closeness);
            checked += lemma_holds(&chung_lu_power_law(60, 2.6, 4.0, seed), Closeness);
        }
        assert!(checked > 0, "test vacuous: no adjacent dominations found");
    }

    #[test]
    fn lemma4_harmonic_on_random_graphs() {
        let mut checked = 0;
        for seed in 0..3 {
            checked += lemma_holds(&erdos_renyi(40, 0.12, seed + 10), Harmonic);
            checked += lemma_holds(&chung_lu_power_law(60, 2.6, 4.0, seed + 10), Harmonic);
        }
        assert!(checked > 0, "test vacuous: no adjacent dominations found");
    }

    #[test]
    fn lemma_extends_to_decay() {
        // The Sec. IV-D generality claim: any shortest-path measure.
        let mut checked = 0;
        for seed in 0..4 {
            checked += lemma_holds(
                &chung_lu_power_law(60, 2.6, 4.0, seed + 20),
                Decay::new(0.6),
            );
        }
        assert!(checked > 0, "test vacuous");
    }

    #[test]
    fn neisky_matches_unrestricted_greedy_score() {
        // Lemma 3/4 ⇒ the restricted greedy achieves the same score
        // sequence as the unrestricted one (ties may pick different but
        // equally good vertices).
        for seed in 0..4 {
            let g = chung_lu_power_law(200, 2.7, 5.0, seed);
            let k = 5;
            let full = greedy_group(&g, Harmonic, k, &GreedyOptions::default());
            let pruned = nei_sky_group(&g, Harmonic, k, false);
            assert!(
                pruned.greedy.score >= full.score - 1e-9,
                "seed {seed}: pruned {} < full {}",
                pruned.greedy.score,
                full.score
            );
            let full = greedy_group(&g, Closeness, k, &GreedyOptions::default());
            let pruned = nei_sky_group(&g, Closeness, k, false);
            assert!(pruned.greedy.score >= full.score - 1e-9, "seed {seed}");
        }
    }

    #[test]
    fn neisky_reduces_evaluations() {
        let g = chung_lu_power_law(400, 2.7, 6.0, 9);
        let k = 4;
        let full = greedy_group(&g, Closeness, k, &GreedyOptions::default());
        let pruned = nei_sky_group(&g, Closeness, k, false);
        assert!(pruned.skyline_size < g.num_vertices());
        assert!(pruned.greedy.gain_evaluations < full.gain_evaluations);
        // The formula from Sec. IV-A.2: k(2r − k + 1)/2 evaluations.
        let r = pruned.skyline_size as u64;
        let kk = k as u64;
        assert_eq!(pruned.greedy.gain_evaluations, kk * (2 * r - kk + 1) / 2);
    }

    #[test]
    fn build_trips_answer_like_the_unseeded_engine() {
        // A trip in the build's FilterRefineSky seeds nothing; a trip in
        // its gains answers as the from-scratch engine's seeding does
        // when the same poll trips it: the same counted evaluations, no
        // group, the empty group's score.
        use crate::greedy::greedy_group_with;
        use nsky_skyline::budget::{Completion, ExecutionBudget, TripClock};
        use std::sync::Arc;
        let trip_at = |k| {
            let clock = Arc::new(TripClock::at_poll(k));
            let budget = ExecutionBudget::unlimited()
                .deadline(Arc::clone(&clock))
                .check_interval(1);
            (budget, clock)
        };
        // 130 vertices, a pool of more than one 64-source batch.
        let g = erdos_renyi(130, 0.02, 5);
        let cfg = RefineConfig::default();
        let (budget, clock) = trip_at(u64::MAX);
        let skyline =
            filter_refine_sky_with(&g, &cfg, &mut ExecutionContext::new().budget(&budget))
                .outcome
                .skyline;
        let frs = clock.polls();
        assert!(skyline.len() > 64, "pool of {}", skyline.len());
        let (budget, clock) = trip_at(u64::MAX);
        let built =
            NeiSkyGroupInput::build(&g, Harmonic, None, &ExecutionContext::new().budget(&budget));
        assert!(built.is_ok_and(|input| input.pool() == skyline));
        let total = clock.polls();
        let opts = GreedyOptions {
            lazy: true,
            pruned_bfs: true,
            candidates: Some(skyline.clone()),
        };
        for k in 1..=total {
            let (budget, _) = trip_at(k);
            let ctx = ExecutionContext::new().budget(&budget);
            let Err(partial) = NeiSkyGroupInput::build(&g, Harmonic, None, &ctx) else {
                panic!("k={k}: the build completed");
            };
            let expected = if k <= frs {
                let (budget, _) = trip_at(k);
                let mut ctx = ExecutionContext::new().budget(&budget);
                let sky = filter_refine_sky_with(&g, &cfg, &mut ctx).outcome;
                assert_eq!(partial.skyline_size, sky.skyline.len(), "k={k}");
                GreedyOutcome::unstarted(Harmonic, g.num_vertices(), 0, sky.completion)
            } else {
                assert_eq!(partial.skyline_size, skyline.len(), "k={k}");
                let (budget, _) = trip_at(k - frs);
                let mut ctx = ExecutionContext::new().budget(&budget);
                greedy_group_with(&g, Harmonic, 3, &opts, &mut ctx).outcome
            };
            let got = &partial.greedy;
            assert_eq!(got.completion, Completion::DeadlineExceeded, "k={k}");
            assert_eq!(got.completion, expected.completion, "k={k}");
            assert_eq!(got.group, expected.group, "k={k}");
            assert_eq!(got.score.to_bits(), expected.score.to_bits(), "k={k}");
            assert_eq!(got.gain_evaluations, expected.gain_evaluations, "k={k}");
            assert_eq!(got.lazy_skips, expected.lazy_skips, "k={k}");
        }
    }

    #[test]
    fn group_members_are_skyline_vertices() {
        let g = chung_lu_power_law(300, 2.8, 5.0, 4);
        let out = nei_sky_gh(&g, 6);
        let skyline = filter_refine_sky(&g, &RefineConfig::default()).skyline;
        for u in &out.greedy.group {
            assert!(skyline.binary_search(u).is_ok());
        }
    }
}
