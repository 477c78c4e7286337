//! The `MC-BRB`-style exact solver: heuristic lower bound, core-number
//! reduction, degeneracy-ordered ego-subgraph branch and bound.
//!
//! Chang's MC-BRB (KDD 2019) finds the maximum clique by searching small
//! dense ego subgraphs instead of the whole sparse graph, guarded by a
//! near-linear heuristic and reductions. This module implements that
//! framework shape: (1) greedy heuristic lower bound `lb`; (2) drop every
//! vertex with `core(v) + 1 ≤ lb`; (3) for each surviving vertex `u` in
//! degeneracy order, branch-and-bound over `u`'s *later* neighbors.

use crate::bnb::{
    max_clique_containing, record_clique_stats, valid_clique, CliqueRun, CliqueStats,
};
use crate::heuristic::heuristic_clique;
use nsky_graph::degeneracy::core_decomposition;
use nsky_graph::{Graph, VertexId};
use nsky_skyline::budget::{Completion, ExecutionBudget};
use nsky_skyline::exec::{self, ExecutionContext};
use nsky_skyline::snapshot::{KernelId, KernelState, Reader, RecoveryError, ResumableRun, Writer};

/// Exact maximum clique (the paper's `MC-BRB` comparison point).
///
/// # Examples
///
/// ```
/// use nsky_graph::generators::chung_lu_power_law;
/// use nsky_clique::{max_clique_bnb, mc_brb};
///
/// let g = chung_lu_power_law(400, 2.7, 6.0, 3);
/// let (fast, _) = mc_brb(&g);
/// let (slow, _) = max_clique_bnb(&g);
/// assert_eq!(fast.len(), slow.len());
/// ```
pub fn mc_brb(g: &Graph) -> (Vec<VertexId>, CliqueStats) {
    let run = mc_brb_with(g, &mut ExecutionContext::new()).outcome;
    (run.clique, run.stats)
}

/// The one entry point: [`mc_brb`] under an [`ExecutionContext`] —
/// budget, cancellation, checkpoint/resume and observability in any
/// combination. The recorder sees one `"mcbrb"` span around the search
/// plus a bulk flush of the run's [`CliqueStats`] at exit; the search
/// loops never touch it. After a trip the returned clique is the best
/// found so far — never smaller than the near-linear heuristic lower
/// bound, which runs before any budgeted search — and a resumed
/// incumbent is structurally validated before it is trusted.
pub fn mc_brb_with(g: &Graph, ctx: &mut ExecutionContext<'_>) -> ResumableRun<CliqueRun> {
    let rec = ctx.effective_recorder();
    rec.phase_start("mcbrb");
    let run = exec::drive(
        ctx,
        || g.fingerprint(),
        McBrbState::fresh,
        |mut state, budget| {
            if !valid_clique(g, &state.best) || state.cursor > g.num_vertices() {
                state = McBrbState::fresh();
            }
            let (run, state) = mcbrb_leg(g, budget, state);
            let completion = run.completion;
            (run, state, completion)
        },
    );
    rec.phase_end("mcbrb");
    record_clique_stats(rec, &run.outcome.stats);
    run
}

/// Resume state of an interrupted [`mc_brb`] run: the best clique found
/// so far plus the index (into the degeneracy order) of the next root to
/// search. The `later` exclusion mask is a pure function of the cursor
/// (positions before it), so it is rebuilt on resume rather than stored.
/// An in-flight root search is restarted from scratch with the saved
/// incumbent as floor; the coloring bound is admissible, so the restart
/// visits exactly the improving leaves the uninterrupted run would have.
struct McBrbState {
    best: Vec<VertexId>,
    cursor: usize,
}

impl McBrbState {
    fn fresh() -> Self {
        McBrbState {
            best: Vec::new(),
            cursor: 0,
        }
    }
}

impl KernelState for McBrbState {
    const FORMAT_VERSION: u32 = 1;
    const KERNEL: KernelId = KernelId::CliqueMcBrb;

    fn encode(&self, w: &mut Writer) {
        w.put_u32_slice(&self.best);
        w.put_usize(self.cursor);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, RecoveryError> {
        r.expect_version(Self::FORMAT_VERSION)?;
        Ok(McBrbState {
            best: r.take_u32_vec()?,
            cursor: r.take_usize()?,
        })
    }
}

fn mcbrb_leg(g: &Graph, budget: &ExecutionBudget, state: McBrbState) -> (CliqueRun, McBrbState) {
    let mut stats = CliqueStats::default();
    if g.num_vertices() == 0 {
        let run = CliqueRun {
            clique: Vec::new(),
            stats,
            completion: Completion::Complete,
        };
        return (run, state);
    }
    let start = state.cursor;
    // One core decomposition orders the roots, prunes them and guides
    // the heuristic.
    let deco = core_decomposition(g);
    // A genuine snapshot is taken after the heuristic, so a resumed
    // incumbent is never smaller than the heuristic would produce.
    let mut best = if state.best.is_empty() {
        heuristic_clique(g, &deco.core, 16)
    } else {
        state.best
    };
    // Core decomposition + the per-root allowed mask dominate the scratch.
    if let Some(status) = budget.charge(g.num_vertices() * 10) {
        best.sort_unstable();
        let run = CliqueRun {
            clique: best.clone(),
            stats,
            completion: status,
        };
        return (
            run,
            McBrbState {
                best,
                cursor: start,
            },
        );
    }
    let mut ticker = budget.ticker();

    // Process vertices in degeneracy order; u's candidates are its
    // neighbors later in the order (each clique is found exactly once,
    // rooted at its earliest member). Roots before the resume cursor are
    // already processed, so they re-enter the exclusion mask up front.
    let mut later: Vec<bool> = vec![false; g.num_vertices()];
    for &u in deco.order.iter().take(start) {
        later[u as usize] = true;
    }
    for idx in start..deco.order.len() {
        let u = deco.order[idx];
        if let Some(status) = ticker.check() {
            best.sort_unstable();
            let run = CliqueRun {
                clique: best.clone(),
                stats,
                completion: status,
            };
            return (run, McBrbState { best, cursor: idx });
        }
        later[u as usize] = true; // mark processed ⇒ excluded from later runs
        if (deco.core[u as usize] + 1) as usize <= best.len() {
            continue; // core reduction
        }
        let allowed: Vec<bool> = g.vertices().map(|v| !later[v as usize]).collect();
        if let Some(c) =
            max_clique_containing(g, u, Some(&allowed), best.len(), &mut stats, &mut ticker)
        {
            best = c;
        }
        let status = ticker.status();
        if status != Completion::Complete {
            // Tripped inside this root's search: re-run the root on
            // resume with the (possibly improved) incumbent as floor.
            best.sort_unstable();
            let run = CliqueRun {
                clique: best.clone(),
                stats,
                completion: status,
            };
            return (run, McBrbState { best, cursor: idx });
        }
    }
    best.sort_unstable();
    let run = CliqueRun {
        clique: best.clone(),
        stats,
        completion: ticker.status(),
    };
    let cursor = deco.order.len();
    (run, McBrbState { best, cursor })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bnb::max_clique_bnb;
    use crate::is_clique;
    use nsky_graph::generators::special::{clique, cycle};
    use nsky_graph::generators::{chung_lu_power_law, erdos_renyi, planted_partition};

    #[test]
    fn matches_plain_bnb() {
        for seed in 0..8 {
            let g = erdos_renyi(40, 0.25, seed);
            let (a, _) = mc_brb(&g);
            let (b, _) = max_clique_bnb(&g);
            assert!(is_clique(&g, &a), "seed {seed}");
            assert_eq!(a.len(), b.len(), "seed {seed}");
        }
        for seed in 0..3 {
            let g = chung_lu_power_law(500, 2.7, 6.0, seed);
            assert_eq!(mc_brb(&g).0.len(), max_clique_bnb(&g).0.len());
        }
        let g = planted_partition(90, 3, 0.6, 0.02, 5);
        assert_eq!(mc_brb(&g).0.len(), max_clique_bnb(&g).0.len());
    }

    #[test]
    fn special_families() {
        assert_eq!(mc_brb(&clique(8)).0.len(), 8);
        assert_eq!(mc_brb(&cycle(8)).0.len(), 2);
        assert!(mc_brb(&Graph::empty(0)).0.is_empty());
        assert_eq!(mc_brb(&Graph::empty(3)).0.len(), 1);
    }

    #[test]
    fn core_reduction_prunes_roots() {
        // On a power-law graph most vertices have core + 1 ≤ ω and never
        // spawn a root search.
        let g = chung_lu_power_law(2_000, 2.6, 8.0, 7);
        let (_, stats) = mc_brb(&g);
        assert!(
            (stats.root_calls as usize) < g.num_vertices() / 2,
            "expected heavy root pruning, got {} roots",
            stats.root_calls
        );
    }
}
