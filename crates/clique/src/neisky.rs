//! `NeiSkyMC` (paper Algorithm 5): maximum clique with root branches
//! restricted to neighborhood-skyline vertices.
//!
//! **Why it is sound (Lemma 5 made precise).** Let `H` be any maximum
//! clique and `v ∈ H` dominated by `u ∉ H`. Every member of `H \ {v}` is
//! a neighbor of `v`, hence in `N[u]`; so `H' = H \ {v} ∪ {u}` is a
//! clique of the same size containing `u`. Iterating along the (acyclic)
//! domination order, some maximum clique contains a *skyline* vertex —
//! so searching only the ego networks of skyline vertices finds a
//! maximum clique.

use crate::bnb::{max_clique_containing, record_clique_stats, valid_clique, CliqueStats};
use crate::heuristic::heuristic_clique;
use nsky_graph::degeneracy::core_decomposition;
use nsky_graph::{Graph, VertexId};
use nsky_skyline::budget::{Completion, ExecutionBudget};
use nsky_skyline::exec::{self, ExecutionContext};
use nsky_skyline::snapshot::{KernelId, KernelState, Reader, RecoveryError, ResumableRun, Writer};
use nsky_skyline::{filter_refine_sky_with, RefineConfig};

/// Outcome of [`nei_sky_mc`].
#[derive(Clone, Debug)]
pub struct NeiSkyMcOutcome {
    /// A maximum clique, sorted ascending. On a budget trip this is the
    /// best clique found so far (never smaller than the heuristic lower
    /// bound), not necessarily maximum.
    pub clique: Vec<VertexId>,
    /// Search counters.
    pub stats: CliqueStats,
    /// `|R|` — the number of root seeds considered before pruning.
    pub skyline_size: usize,
    /// How the run ended.
    pub completion: Completion,
}

/// Exact maximum clique with skyline-restricted roots.
///
/// Seeds are the skyline vertices in degeneracy order; already-processed
/// seeds are excluded from later ego searches (a clique whose earliest
/// skyline member is `z` is found in `z`'s run), and seeds with
/// `core(u) + 1 ≤ |best|` are skipped.
///
/// # Examples
///
/// ```
/// use nsky_graph::generators::chung_lu_power_law;
/// use nsky_clique::{mc_brb, nei_sky_mc};
///
/// let g = chung_lu_power_law(400, 2.7, 6.0, 3);
/// assert_eq!(nei_sky_mc(&g).clique.len(), mc_brb(&g).0.len());
/// ```
pub fn nei_sky_mc(g: &Graph) -> NeiSkyMcOutcome {
    nei_sky_mc_with(g, &mut ExecutionContext::new()).outcome
}

/// The one entry point: [`nei_sky_mc`] under an [`ExecutionContext`] —
/// budget, cancellation, checkpoint/resume and observability in any
/// combination. The recorder sees one `"neisky_mc"` span around the
/// whole run plus a bulk flush of the run's [`CliqueStats`] and the
/// skyline size (as `candidates_emitted`) at exit. If the budget trips
/// during the *skyline* computation the partial skyline cannot soundly
/// seed the root searches (a missing skyline vertex could hide the
/// maximum clique), so the heuristic clique is returned directly with
/// the trip status; a trip during the search phase returns the best
/// clique found so far.
pub fn nei_sky_mc_with(g: &Graph, ctx: &mut ExecutionContext<'_>) -> ResumableRun<NeiSkyMcOutcome> {
    let rec = ctx.effective_recorder();
    rec.phase_start("neisky_mc");
    let run = exec::drive(
        ctx,
        g.fingerprint(),
        NeiSkyState::fresh,
        |mut state, budget| {
            if !valid_clique(g, &state.best) || state.cursor > g.num_vertices() {
                state = NeiSkyState::fresh();
            }
            let (out, state) = neisky_leg(g, budget, state);
            let completion = out.completion;
            (out, state, completion)
        },
    );
    rec.phase_end("neisky_mc");
    record_clique_stats(rec, &run.outcome.stats);
    rec.add(
        nsky_skyline::obs::Counter::CandidatesEmitted,
        run.outcome.skyline_size as u64,
    );
    run
}

/// Resume state of an interrupted [`nei_sky_mc`] run: the best clique
/// found so far plus the index of the next seed in the (deterministic)
/// skyline-by-degeneracy-position seed order. The skyline itself, the
/// seed order, and the `allowed` exclusion mask are recomputed on resume
/// — they are pure functions of the graph and the cursor. A trip during
/// the skyline phase leaves the state untouched (nothing durable has
/// happened yet), so that phase simply re-runs.
struct NeiSkyState {
    best: Vec<VertexId>,
    cursor: usize,
}

impl NeiSkyState {
    fn fresh() -> Self {
        NeiSkyState {
            best: Vec::new(),
            cursor: 0,
        }
    }
}

impl KernelState for NeiSkyState {
    const FORMAT_VERSION: u32 = 1;
    const KERNEL: KernelId = KernelId::CliqueNeiSky;

    fn encode(&self, w: &mut Writer) {
        w.put_u32_slice(&self.best);
        w.put_usize(self.cursor);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, RecoveryError> {
        r.expect_version(Self::FORMAT_VERSION)?;
        Ok(NeiSkyState {
            best: r.take_u32_vec()?,
            cursor: r.take_usize()?,
        })
    }
}

fn neisky_leg(
    g: &Graph,
    budget: &ExecutionBudget,
    state: NeiSkyState,
) -> (NeiSkyMcOutcome, NeiSkyState) {
    let mut stats = CliqueStats::default();
    if g.num_vertices() == 0 {
        let out = NeiSkyMcOutcome {
            clique: Vec::new(),
            stats,
            skyline_size: 0,
            completion: Completion::Complete,
        };
        return (out, state);
    }
    let sky = filter_refine_sky_with(
        g,
        &RefineConfig::default(),
        &mut ExecutionContext::new().budget(budget),
    )
    .outcome;
    if !sky.completion.is_complete() {
        let mut best = if state.best.is_empty() {
            heuristic_clique(g, 16)
        } else {
            state.best.clone()
        };
        best.sort_unstable();
        let out = NeiSkyMcOutcome {
            clique: best,
            stats,
            skyline_size: sky.skyline.len(),
            completion: sky.completion,
        };
        return (out, state);
    }
    let skyline = sky.skyline;
    let skyline_size = skyline.len();
    let deco = core_decomposition(g);
    let mut seeds = skyline;
    seeds.sort_by_key(|&u| deco.position[u as usize]);

    // A cursor beyond the seed list cannot come from a genuine snapshot;
    // degrade to a fresh search rather than skipping every seed.
    let corrupt = state.cursor > seeds.len();
    let start = if corrupt { 0 } else { state.cursor };
    let mut best = if corrupt || state.best.is_empty() {
        heuristic_clique(g, 16)
    } else {
        state.best
    };
    let mut ticker = budget.ticker();
    let mut allowed = vec![true; g.num_vertices()];
    for &u in seeds.iter().take(start) {
        allowed[u as usize] = false; // seeds before the cursor are done
    }
    for (idx, &u) in seeds.iter().enumerate().skip(start) {
        if let Some(status) = ticker.check() {
            best.sort_unstable();
            let out = NeiSkyMcOutcome {
                clique: best.clone(),
                stats,
                skyline_size,
                completion: status,
            };
            return (out, NeiSkyState { best, cursor: idx });
        }
        allowed[u as usize] = false; // exclude this seed from later runs
        if (deco.core[u as usize] + 1) as usize <= best.len() {
            stats.skyline_prunes += 1;
            continue;
        }
        // Re-allow u itself as the seed of its own search.
        if let Some(c) =
            max_clique_containing(g, u, Some(&allowed), best.len(), &mut stats, &mut ticker)
        {
            best = c;
        }
        let status = ticker.status();
        if status != Completion::Complete {
            // Tripped inside this seed's search: re-run the seed on
            // resume with the (possibly improved) incumbent as floor.
            best.sort_unstable();
            let out = NeiSkyMcOutcome {
                clique: best.clone(),
                stats,
                skyline_size,
                completion: status,
            };
            return (out, NeiSkyState { best, cursor: idx });
        }
    }
    best.sort_unstable();
    let out = NeiSkyMcOutcome {
        clique: best.clone(),
        stats,
        skyline_size,
        completion: ticker.status(),
    };
    let cursor = seeds.len();
    (out, NeiSkyState { best, cursor })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bnb::max_clique_bnb;
    use crate::is_clique;
    use nsky_graph::generators::special::{clique, cycle, star};
    use nsky_graph::generators::{chung_lu_power_law, erdos_renyi, planted_partition};

    #[test]
    fn matches_exact_solvers() {
        for seed in 0..8 {
            let g = erdos_renyi(40, 0.25, seed);
            let out = nei_sky_mc(&g);
            assert!(is_clique(&g, &out.clique), "seed {seed}");
            assert_eq!(out.clique.len(), max_clique_bnb(&g).0.len(), "seed {seed}");
        }
        for seed in 0..3 {
            let g = chung_lu_power_law(600, 2.7, 6.0, seed);
            assert_eq!(nei_sky_mc(&g).clique.len(), max_clique_bnb(&g).0.len());
        }
        let g = planted_partition(80, 4, 0.6, 0.03, 9);
        assert_eq!(nei_sky_mc(&g).clique.len(), max_clique_bnb(&g).0.len());
    }

    #[test]
    fn special_families() {
        assert_eq!(nei_sky_mc(&clique(9)).clique.len(), 9);
        assert_eq!(nei_sky_mc(&cycle(9)).clique.len(), 2);
        assert_eq!(nei_sky_mc(&star(9)).clique.len(), 2);
        assert!(nei_sky_mc(&Graph::empty(0)).clique.is_empty());
        assert_eq!(nei_sky_mc(&Graph::empty(4)).clique.len(), 1);
    }

    #[test]
    fn lemma5_swap_argument() {
        // Directly verify: for every max clique found and every dominated
        // member v with dominator u ∉ H, the swap is a clique.
        use nsky_skyline::domination::dominates;
        let g = erdos_renyi(30, 0.3, 4);
        let (h, _) = max_clique_bnb(&g);
        for &v in &h {
            for u in g.vertices() {
                if h.contains(&u) || !dominates(&g, u, v) {
                    continue;
                }
                let mut swapped: Vec<VertexId> = h.iter().copied().filter(|&x| x != v).collect();
                swapped.push(u);
                assert!(is_clique(&g, &swapped), "swap {v}→{u} broke the clique");
            }
        }
    }

    #[test]
    fn fewer_roots_than_vertices_on_power_law() {
        let g = chung_lu_power_law(2_000, 2.6, 8.0, 2);
        let out = nei_sky_mc(&g);
        assert!(out.skyline_size < g.num_vertices());
        assert!(out.stats.root_calls <= out.skyline_size as u64);
    }
}
