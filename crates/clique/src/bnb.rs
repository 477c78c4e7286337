//! Branch-and-bound maximum-clique kernel with greedy-coloring bounds.

use nsky_graph::{Graph, VertexId};
use nsky_skyline::budget::{BudgetTicker, Completion, ExecutionBudget};
use nsky_skyline::exec::{self, ExecutionContext};
use nsky_skyline::obs::{Counter, Recorder};
use nsky_skyline::snapshot::{KernelId, KernelState, Reader, RecoveryError, ResumableRun, Writer};

/// Search counters, printed by the harness to show *why* the skyline
/// pruning wins (fewer root branches).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CliqueStats {
    /// Branch-and-bound tree nodes expanded.
    pub branches: u64,
    /// Nodes cut by the coloring bound.
    pub bound_prunes: u64,
    /// Root searches started (ego subgraphs explored).
    pub root_calls: u64,
    /// Seed roots skipped by the skyline/core prune before any ego
    /// search started (stays zero for kernels without that prune).
    pub skyline_prunes: u64,
}

/// Flushes search counters into an observability recorder — one bulk
/// call per field, at the entry-point boundary (never from search loops).
pub(crate) fn record_clique_stats(rec: &dyn Recorder, stats: &CliqueStats) {
    rec.add(Counter::NodesExpanded, stats.branches);
    rec.add(Counter::BoundCuts, stats.bound_prunes);
    rec.add(Counter::RootCalls, stats.root_calls);
    rec.add(Counter::SkylinePrunes, stats.skyline_prunes);
}

/// Outcome of a budgeted clique search. When `completion` is not
/// [`Completion::Complete`], `clique` is the best (largest) clique found
/// before the budget tripped — a valid clique, but not necessarily
/// maximum.
#[derive(Clone, Debug)]
pub struct CliqueRun {
    /// The best clique found, sorted ascending.
    pub clique: Vec<VertexId>,
    /// Search counters.
    pub stats: CliqueStats,
    /// How the search ended.
    pub completion: Completion,
}

/// Greedy sequential coloring of `cand`; returns `(vertex, color)` pairs
/// sorted by color ascending (colors start at 1). The number of colors
/// upper-bounds the clique number of the induced subgraph.
// nsky-lint: allow(budget-check) — bounded O(|cand|²) work per call, ticked by the caller
fn color_candidates(g: &Graph, cand: &[VertexId]) -> Vec<(VertexId, u32)> {
    let mut classes: Vec<Vec<VertexId>> = Vec::new();
    for &v in cand {
        let mut placed = false;
        for class in classes.iter_mut() {
            if class.iter().all(|&w| !g.has_edge(v, w)) {
                class.push(v);
                placed = true;
                break;
            }
        }
        if !placed {
            classes.push(vec![v]);
        }
    }
    let mut out = Vec::with_capacity(cand.len());
    for (ci, class) in classes.iter().enumerate() {
        for &v in class {
            // CAST: color-class counts are ≤ n ≤ u32::MAX.
            out.push((v, ci as u32 + 1));
        }
    }
    out
}

/// Tomita-style expansion. `floor` is an external lower bound: only
/// cliques strictly larger than `max(best.len(), floor)` replace `best`.
///
/// Returns the trip status when the budget runs out mid-search; `best`
/// then holds the largest clique found so far and the whole recursion
/// unwinds without exploring further branches.
fn expand(
    g: &Graph,
    current: &mut Vec<VertexId>,
    cand: &mut Vec<(VertexId, u32)>,
    best: &mut Vec<VertexId>,
    floor: usize,
    stats: &mut CliqueStats,
    ticker: &mut BudgetTicker<'_>,
) -> Option<Completion> {
    while let Some(&(v, color)) = cand.last() {
        if let Some(status) = ticker.check() {
            return Some(status);
        }
        let bound = best.len().max(floor);
        if current.len() + color as usize <= bound {
            stats.bound_prunes += 1;
            return None; // every remaining candidate has color ≤ this one
        }
        stats.branches += 1;
        cand.pop();
        current.push(v);
        let next: Vec<VertexId> = cand
            .iter()
            .map(|&(w, _)| w)
            .filter(|&w| g.has_edge(v, w))
            .collect();
        if next.is_empty() {
            if current.len() > best.len().max(floor) {
                *best = current.clone();
            }
        } else {
            let mut colored = color_candidates(g, &next);
            let tripped = expand(g, current, &mut colored, best, floor, stats, ticker);
            if tripped.is_some() {
                current.pop();
                return tripped;
            }
        }
        current.pop();
    }
    None
}

/// Iteratively removes candidates with fewer than `min_inside` neighbors
/// inside the candidate set (a one-shot core reduction over the ego).
///
/// `cand` must be sorted ascending (it comes from a CSR adjacency list);
/// membership tests are binary searches, keeping the whole peel at
/// `O(Σ_{x∈cand} deg(x) · log |cand|)`.
// nsky-lint: allow(budget-check) — near-linear bounded peel per call, ticked by the caller
fn peel_candidates(g: &Graph, cand: Vec<VertexId>, min_inside: usize) -> Vec<VertexId> {
    debug_assert!(cand.windows(2).all(|w| w[0] < w[1]));
    let pos = |x: VertexId| cand.binary_search(&x).ok();
    let mut inside: Vec<usize> = cand
        .iter()
        .map(|&x| g.neighbors(x).iter().filter(|&&w| pos(w).is_some()).count())
        .collect();
    let mut alive = vec![true; cand.len()];
    let mut queue: Vec<usize> = (0..cand.len())
        .filter(|&i| inside[i] < min_inside)
        .collect();
    while let Some(i) = queue.pop() {
        if !alive[i] {
            continue;
        }
        alive[i] = false;
        for &w in g.neighbors(cand[i]) {
            if let Some(j) = pos(w) {
                if alive[j] {
                    inside[j] -= 1;
                    if inside[j] + 1 == min_inside {
                        queue.push(j);
                    }
                }
            }
        }
    }
    cand.iter()
        .zip(&alive)
        .filter(|&(_, &a)| a)
        .map(|(&x, _)| x)
        .collect()
}

/// Exact maximum clique by plain branch and bound over the whole vertex
/// set (`BaseMCC`). Suitable for small/medium sparse graphs; the
/// production entry point is [`crate::mc_brb`].
///
/// # Examples
///
/// ```
/// use nsky_graph::Graph;
/// use nsky_clique::max_clique_bnb;
///
/// let g = Graph::from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]);
/// let (clique, _) = max_clique_bnb(&g);
/// assert_eq!(clique, vec![0, 1, 2]);
/// ```
pub fn max_clique_bnb(g: &Graph) -> (Vec<VertexId>, CliqueStats) {
    let run = max_clique_bnb_with(g, &mut ExecutionContext::new()).outcome;
    (run.clique, run.stats)
}

/// The one entry point: [`max_clique_bnb`] under an
/// [`ExecutionContext`] — budget, cancellation, checkpoint/resume and
/// observability in any combination. The recorder sees one `"bnb"` span
/// around the search plus a bulk flush of the run's [`CliqueStats`] at
/// exit; the search loops never touch it. After a trip the returned
/// clique is the largest found before the trip (anytime semantics — a
/// valid clique, possibly sub-maximum), and a resumed incumbent is
/// structurally validated before it is trusted as a bound.
pub fn max_clique_bnb_with(g: &Graph, ctx: &mut ExecutionContext<'_>) -> ResumableRun<CliqueRun> {
    let rec = ctx.effective_recorder();
    rec.phase_start("bnb");
    let run = exec::drive(
        ctx,
        g.fingerprint(),
        || BnbState { best: Vec::new() },
        |mut state, budget| {
            if !valid_clique(g, &state.best) {
                state.best = Vec::new();
            }
            let (run, state) = bnb_leg(g, budget, state);
            let completion = run.completion;
            (run, state, completion)
        },
    );
    rec.phase_end("bnb");
    record_clique_stats(rec, &run.outcome.stats);
    run
}

/// Resume state of an interrupted [`max_clique_bnb`] run: the best
/// clique found before the trip. Resuming restarts the (deterministic)
/// search with the saved clique as the incumbent; the coloring bound is
/// admissible, so every subtree the higher incumbent prunes contains no
/// larger clique, and the first strict improvement — hence the final
/// best — is byte-identical to the uninterrupted run's.
struct BnbState {
    best: Vec<VertexId>,
}

impl KernelState for BnbState {
    const FORMAT_VERSION: u32 = 1;
    const KERNEL: KernelId = KernelId::CliqueBnb;

    fn encode(&self, w: &mut Writer) {
        w.put_u32_slice(&self.best);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, RecoveryError> {
        r.expect_version(Self::FORMAT_VERSION)?;
        Ok(BnbState {
            best: r.take_u32_vec()?,
        })
    }
}

/// Whether `c` is a genuine clique of `g` with in-range, strictly
/// ascending vertices — the structural validation applied to any resumed
/// incumbent before it is trusted as a bound.
pub(crate) fn valid_clique(g: &Graph, c: &[VertexId]) -> bool {
    c.iter().all(|&v| (v as usize) < g.num_vertices())
        && c.windows(2).all(|w| w[0] < w[1])
        && crate::is_clique(g, c)
}

fn bnb_leg(g: &Graph, budget: &ExecutionBudget, state: BnbState) -> (CliqueRun, BnbState) {
    let mut stats = CliqueStats::default();
    if g.num_vertices() == 0 {
        let run = CliqueRun {
            clique: Vec::new(),
            stats,
            completion: Completion::Complete,
        };
        return (run, state);
    }
    let mut best = if state.best.is_empty() {
        vec![0 as VertexId] // any single vertex is a clique
    } else {
        state.best
    };
    // Coloring classes + candidate stack are the dominant scratch.
    if let Some(status) = budget.charge(g.num_vertices() * 16) {
        let run = CliqueRun {
            clique: best.clone(),
            stats,
            completion: status,
        };
        return (run, BnbState { best });
    }
    let cand: Vec<VertexId> = g.vertices().collect();
    let mut colored = color_candidates(g, &cand);
    let mut current = Vec::new();
    stats.root_calls = 1;
    let mut ticker = budget.ticker();
    let tripped = expand(
        g,
        &mut current,
        &mut colored,
        &mut best,
        0,
        &mut stats,
        &mut ticker,
    );
    best.sort_unstable();
    let run = CliqueRun {
        clique: best.clone(),
        stats,
        completion: tripped.unwrap_or(Completion::Complete),
    };
    (run, BnbState { best })
}

/// Largest clique **containing** `seed` that strictly beats
/// `lower_bound`, searched within `seed`'s ego network restricted to
/// `allowed` (pass `None` for no restriction), driven by a caller-owned
/// [`BudgetTicker`] (pass [`BudgetTicker::inert`] for an unbudgeted
/// search).
///
/// Returns `None` when no containing clique exceeds `lower_bound`
/// (passing `lower_bound = 0` therefore always yields the exact
/// maximum-containing clique, since `{seed}` itself has size 1). When
/// the ticker trips mid-search the best containing clique found so far
/// (if it beats `lower_bound`) is returned; inspect
/// [`BudgetTicker::status`] to distinguish an exhausted search from a
/// tripped one.
pub fn max_clique_containing(
    g: &Graph,
    seed: VertexId,
    allowed: Option<&[bool]>,
    lower_bound: usize,
    stats: &mut CliqueStats,
    ticker: &mut BudgetTicker<'_>,
) -> Option<Vec<VertexId>> {
    let mut cand: Vec<VertexId> = g
        .neighbors(seed)
        .iter()
        .copied()
        .filter(|&w| allowed.map_or(true, |a| a[w as usize]))
        .collect();
    stats.root_calls += 1;
    if cand.len() < lower_bound {
        return None; // cannot beat the floor even if the ego is a clique
    }
    if lower_bound >= 3 {
        // Ego-core peeling: a containing clique beating the floor has
        // ≥ lower_bound + 1 members, so every candidate needs at least
        // lower_bound − 1 neighbors inside the candidate set. Peeling
        // the rest (iteratively) usually empties hub egos outright,
        // long before the O(|cand|²) coloring would run.
        cand = peel_candidates(g, cand, lower_bound - 1);
        if cand.len() < lower_bound {
            return None;
        }
    }
    let mut best: Vec<VertexId> = Vec::new();
    let mut current = vec![seed];
    let mut colored = color_candidates(g, &cand);
    // `current` already holds the seed, and any clique found includes it.
    expand(
        g,
        &mut current,
        &mut colored,
        &mut best,
        lower_bound,
        stats,
        ticker,
    );
    if best.is_empty() {
        // No clique beat the floor; {seed} counts only if it does.
        if lower_bound == 0 {
            Some(vec![seed])
        } else {
            None
        }
    } else {
        debug_assert!(best.contains(&seed));
        best.sort_unstable();
        Some(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::is_clique;
    use nsky_graph::generators::erdos_renyi;
    use nsky_graph::generators::special::{clique, cycle, path};

    /// Exponential oracle via simple enumeration (tiny graphs only).
    pub(crate) fn oracle_max_clique_size(g: &Graph) -> usize {
        fn bk(g: &Graph, r: usize, mut p: Vec<VertexId>, best: &mut usize) {
            if p.is_empty() {
                *best = (*best).max(r);
                return;
            }
            while let Some(v) = p.pop() {
                let np: Vec<VertexId> = p.iter().copied().filter(|&w| g.has_edge(v, w)).collect();
                bk(g, r + 1, np, best);
            }
        }
        let mut best = usize::from(g.num_vertices() > 0);
        bk(g, 0, g.vertices().collect(), &mut best);
        best
    }

    #[test]
    fn special_families() {
        assert_eq!(max_clique_bnb(&clique(6)).0.len(), 6);
        assert_eq!(max_clique_bnb(&cycle(6)).0.len(), 2);
        assert_eq!(max_clique_bnb(&path(5)).0.len(), 2);
        assert!(max_clique_bnb(&Graph::empty(0)).0.is_empty());
        assert_eq!(max_clique_bnb(&Graph::empty(3)).0.len(), 1);
    }

    #[test]
    fn matches_oracle_on_random_graphs() {
        for seed in 0..10 {
            let g = erdos_renyi(30, 0.3, seed);
            let (c, stats) = max_clique_bnb(&g);
            assert!(is_clique(&g, &c), "seed {seed}");
            assert_eq!(c.len(), oracle_max_clique_size(&g), "seed {seed}");
            assert!(stats.branches > 0);
        }
    }

    #[test]
    fn containing_clique_is_exact() {
        let mut ticker = BudgetTicker::inert();
        for seed in 0..5 {
            let g = erdos_renyi(25, 0.35, seed);
            let mut stats = CliqueStats::default();
            for u in g.vertices() {
                let c = max_clique_containing(&g, u, None, 0, &mut stats, &mut ticker)
                    .expect("lower_bound 0 always yields a clique");
                assert!(c.contains(&u));
                assert!(is_clique(&g, &c));
                // Oracle: max clique of the ego subgraph, plus u itself.
                let keep: Vec<VertexId> = g.neighbors(u).to_vec();
                let (sub, _) = nsky_graph::ops::induced_subgraph(&g, &keep);
                assert_eq!(c.len(), oracle_max_clique_size(&sub) + 1, "vertex {u}");
            }
        }
    }

    #[test]
    fn containing_respects_allowed_mask() {
        let g = clique(5);
        let mut allowed = vec![true; 5];
        allowed[4] = false;
        let mut stats = CliqueStats::default();
        let mut ticker = BudgetTicker::inert();
        let c = max_clique_containing(&g, 0, Some(&allowed), 0, &mut stats, &mut ticker).unwrap();
        assert_eq!(c, vec![0, 1, 2, 3]);
    }

    #[test]
    fn lower_bound_floor_suppresses_small_cliques() {
        let g = path(4);
        let mut stats = CliqueStats::default();
        let mut ticker = BudgetTicker::inert();
        // Max clique containing 0 has size 2; floor 3 cannot be beaten.
        assert!(max_clique_containing(&g, 0, None, 3, &mut stats, &mut ticker).is_none());
        // Floor 1 is beaten by the edge {0, 1}.
        let c = max_clique_containing(&g, 0, None, 1, &mut stats, &mut ticker).unwrap();
        assert_eq!(c, vec![0, 1]);
    }

    #[test]
    fn isolated_seed() {
        let g = Graph::from_edges(3, [(0, 1)]);
        let mut stats = CliqueStats::default();
        let mut ticker = BudgetTicker::inert();
        let c = max_clique_containing(&g, 2, None, 0, &mut stats, &mut ticker).unwrap();
        assert_eq!(c, vec![2]);
        assert!(max_clique_containing(&g, 2, None, 1, &mut stats, &mut ticker).is_none());
    }
}
