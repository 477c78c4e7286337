//! `BaseSky` — the paper's Algorithm 1, adapted from Brandes et al.'s
//! positional-dominance computation.
//!
//! Two variants are provided:
//!
//! * [`base_sky`] — **faithful** to the printed pseudo-code: the
//!   `O(u)`-updated-at-most-once rule prevents re-*writing* the
//!   dominator, but the 2-hop counting scan runs to completion (only the
//!   innermost loop breaks on the first strict dominator), giving the
//!   full `O(m·dmax)` of Theorem 1. This is the baseline every paper
//!   figure compares against.
//! * [`base_sky_early_exit`] — our improvement: the whole scan of `u`
//!   aborts as soon as `u` is known dominated. On leaf-heavy graphs this
//!   closes much of the gap to `FilterRefineSky` (quantified by the
//!   `ablation_early_exit` bench and discussed in EXPERIMENTS.md).

use crate::budget::{Completion, ExecutionBudget};
use crate::exec::{self, ExecutionContext};
use crate::obs::record_skyline_stats;
use crate::result::{SkylineResult, SkylineStats};
use crate::snapshot::{KernelId, KernelState, Reader, RecoveryError, ResumableRun, Writer};
use nsky_graph::{Graph, VertexId};

/// How the counting scan terminates once a vertex is resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ScanMode {
    /// Paper-faithful: finish the 2-hop scan regardless.
    Faithful,
    /// Abort the scan of `u` once `u` is known dominated.
    EarlyExit,
}

/// Computes the neighborhood skyline with the baseline algorithm
/// (paper-faithful scan; see the module docs).
///
/// For each still-unresolved vertex `u` it scans the 2-hop neighborhood,
/// counting for every `w` the overlap `T(w) = |N(u) ∩ N[w]|` (each
/// `v ∈ N(u)` contributes `+1` to all `w ∈ N[v] \ {u}`, since
/// `w ∈ N[v] ⟺ v ∈ N[w]`). When `T(w)` reaches `deg(u)` we have
/// `N(u) ⊆ N[w]`:
///
/// * `deg(w) > deg(u)` — strict domination: `O(u) ← w` if still unset
///   (the "at most once" rule);
/// * `deg(w) == deg(u)` — mutual inclusion (see `domination` Fact 3):
///   the smaller ID dominates; a larger-ID twin `w` is marked dominated
///   by `u` so its own scan can be skipped later.
///
/// Skipping the scan of already-dominated vertices is sound: a vertex's
/// own status is always decided during its *own* scan (or by a
/// smaller-ID twin whose scan ran earlier), never delegated forward.
///
/// `O(m · dmax)` time, `O(n + m)` space (Theorem 1).
///
/// # Examples
///
/// ```
/// use nsky_graph::generators::special::star;
/// use nsky_skyline::base_sky;
///
/// let r = base_sky(&star(5));
/// assert_eq!(r.skyline, vec![0]); // the hub dominates every leaf
/// ```
pub fn base_sky(g: &Graph) -> SkylineResult {
    base_sky_with(g, &mut ExecutionContext::new()).outcome
}

/// [`base_sky`] with the scan of a vertex aborted as soon as the vertex
/// is known dominated — a strict improvement over the printed
/// Algorithm 1 (same output, measured in `ablation_early_exit`).
pub fn base_sky_early_exit(g: &Graph) -> SkylineResult {
    base_sky_impl(g, ScanMode::EarlyExit, &ExecutionBudget::unlimited())
}

/// The one entry point: [`base_sky`] under an [`ExecutionContext`] —
/// budget, cancellation, checkpoint/resume and observability in any
/// combination. Opens one `"scan"` phase span around the counting scan
/// and bulk-flushes the run's [`SkylineStats`] at exit; the hot loop
/// itself never touches the recorder. With an inert context the outcome
/// is byte-identical to [`base_sky`]; after a trip it is partial (scans
/// run in increasing vertex order, so the reported skyline is exactly
/// the verified prefix — a sound subset of the true skyline) and
/// [`ResumableRun::snapshot`] carries the resume state.
pub fn base_sky_with(g: &Graph, ctx: &mut ExecutionContext<'_>) -> ResumableRun<SkylineResult> {
    let n = g.num_vertices();
    let rec = ctx.effective_recorder();
    rec.phase_start("scan");
    let run = exec::drive(
        ctx,
        || g.fingerprint(),
        || BaseSkyState::fresh(n),
        |mut state, budget| {
            if state.dominator.len() != n || state.cursor as usize > n {
                state = BaseSkyState::fresh(n);
            }
            let (result, state) = base_sky_leg(g, ScanMode::Faithful, budget, state);
            let completion = result.completion;
            (result, state, completion)
        },
    );
    rec.phase_end("scan");
    record_skyline_stats(rec, &run.outcome.stats);
    run
}

/// Resume state of an interrupted [`base_sky`] run: the dominator array
/// as it stood before the first unfinished scan, plus that scan's vertex
/// (the cursor). An in-progress scan's dominator writes are rolled back
/// before snapshotting, so resuming re-runs the cursor's scan from
/// pristine state — exactly what the uninterrupted run did.
struct BaseSkyState {
    dominator: Vec<VertexId>,
    cursor: VertexId,
}

impl BaseSkyState {
    fn fresh(n: usize) -> BaseSkyState {
        BaseSkyState {
            dominator: (0..n as VertexId).collect(),
            cursor: 0,
        }
    }
}

impl KernelState for BaseSkyState {
    const FORMAT_VERSION: u32 = 1;
    const KERNEL: KernelId = KernelId::BaseSky;

    fn encode(&self, w: &mut Writer) {
        w.put_u32_slice(&self.dominator);
        w.put_u32(self.cursor);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, RecoveryError> {
        r.expect_version(Self::FORMAT_VERSION)?;
        Ok(BaseSkyState {
            dominator: r.take_u32_vec()?,
            cursor: r.take_u32()?,
        })
    }
}

fn base_sky_impl(g: &Graph, mode: ScanMode, budget: &ExecutionBudget) -> SkylineResult {
    let n = g.num_vertices();
    base_sky_leg(g, mode, budget, BaseSkyState::fresh(n)).0
}

fn base_sky_leg(
    g: &Graph,
    mode: ScanMode,
    budget: &ExecutionBudget,
    state: BaseSkyState,
) -> (SkylineResult, BaseSkyState) {
    let n = g.num_vertices();
    let mut stats = SkylineStats {
        candidate_count: n,
        peak_bytes: n * (4 + 4 + 4),
        ..SkylineStats::default()
    };
    if let Some(status) = budget.charge(n * (4 + 4 + 4)) {
        // Refused before the counting arrays were built: nothing beyond
        // the resumed prefix is verified.
        let verified = (0..state.cursor)
            .filter(|&v| state.dominator[v as usize] == v)
            .collect();
        let result = SkylineResult::partial(verified, state.dominator.clone(), None, stats, status);
        return (result, state);
    }
    let BaseSkyState {
        mut dominator,
        cursor,
    } = state;
    // Timestamped counting array: T(w) = count[w] when stamp[w] == round.
    let mut count: Vec<u32> = vec![0; n];
    let mut stamp: Vec<u32> = vec![u32::MAX; n];
    let mut ticker = budget.ticker();
    let mut tripped: Option<Completion> = None;
    let mut first_unverified = n as VertexId;
    // Dominator writes of the in-progress scan, for rollback at a trip
    // (a scan may forward-mark larger twins before it finishes; undoing
    // them lets a resumed run replay the scan from pristine state).
    let mut undo: Vec<(usize, VertexId)> = Vec::new();

    'all: for u in cursor..n as VertexId {
        if dominator[u as usize] != u {
            continue; // already resolved by a smaller-ID twin
        }
        let du = g.degree_u32(u);
        if du == 0 {
            continue; // isolated: skyline by convention
        }
        let round = u; // vertex id doubles as the stamp for its scan
        undo.clear();
        'scan: for &v in g.neighbors(u) {
            for w in g.neighbors(v).iter().copied().chain(std::iter::once(v)) {
                if let Some(status) = ticker.check() {
                    tripped = Some(status);
                    first_unverified = u; // u's scan did not finish
                    for &(i, old) in undo.iter().rev() {
                        dominator[i] = old;
                    }
                    break 'all;
                }
                if w == u {
                    continue;
                }
                stats.adjacency_probes += 1;
                let wi = w as usize;
                if stamp[wi] != round {
                    stamp[wi] = round;
                    count[wi] = 0;
                }
                count[wi] += 1;
                if count[wi] == du {
                    // N(u) ⊆ N[w].
                    stats.pair_tests += 1;
                    let dw = g.degree_u32(w);
                    debug_assert!(dw >= du, "inclusion implies deg(w) ≥ deg(u)");
                    if dw == du {
                        // Mutual twins: smaller ID dominates (Def. 2(2)).
                        if w < u {
                            if dominator[u as usize] == u {
                                undo.push((u as usize, u));
                                dominator[u as usize] = w;
                                if mode == ScanMode::EarlyExit {
                                    break 'scan;
                                }
                            }
                        } else if dominator[wi] == w {
                            undo.push((wi, w));
                            dominator[wi] = u;
                        }
                    } else if dominator[u as usize] == u {
                        undo.push((u as usize, u));
                        dominator[u as usize] = w;
                        match mode {
                            ScanMode::EarlyExit => break 'scan,
                            // The paper's line 17 `break` leaves only the
                            // innermost loop.
                            ScanMode::Faithful => break,
                        }
                    }
                }
            }
        }
    }
    match tripped {
        None => {
            let result = SkylineResult::from_dominators(dominator.clone(), None, stats);
            let state = BaseSkyState {
                dominator,
                cursor: n as VertexId,
            };
            (result, state)
        }
        Some(status) => {
            // Vertices below the first unscanned one with their own
            // scan finished and no dominator found are true skyline
            // members (twin forward-marks never clear a fixed point).
            let verified = (0..first_unverified)
                .filter(|&v| dominator[v as usize] == v)
                .collect();
            let result = SkylineResult::partial(verified, dominator.clone(), None, stats, status);
            let state = BaseSkyState {
                dominator,
                cursor: first_unverified,
            };
            (result, state)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::naive_skyline;
    use nsky_graph::generators::special::{clique, complete_binary_tree, cycle, path, star};
    use nsky_graph::generators::{chung_lu_power_law, erdos_renyi, planted_partition};

    fn assert_matches_oracle(g: &Graph, label: &str) {
        let truth = naive_skyline(g);
        for (fast, variant) in [
            (base_sky(g), "faithful"),
            (base_sky_early_exit(g), "early-exit"),
        ] {
            assert_eq!(fast.skyline, truth.skyline, "{label} ({variant})");
            // Dominator witnesses must be genuine dominators.
            for u in g.vertices() {
                let o = fast.dominator[u as usize];
                if o != u {
                    assert!(
                        crate::domination::dominates(g, o, u),
                        "{label} ({variant}): bogus witness {o} for {u}"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_oracle_on_special_families() {
        assert_matches_oracle(&clique(8), "clique");
        assert_matches_oracle(&path(9), "path");
        assert_matches_oracle(&cycle(9), "cycle");
        assert_matches_oracle(&star(9), "star");
        assert_matches_oracle(&complete_binary_tree(4), "tree");
    }

    #[test]
    fn fig2_sizes() {
        assert_eq!(base_sky(&clique(10)).len(), 1);
        assert_eq!(base_sky(&cycle(10)).len(), 10);
        assert_eq!(base_sky(&path(10)).len(), 8);
        // Complete binary tree: skyline = internal vertices.
        let levels = 4;
        let t = complete_binary_tree(levels);
        let r = base_sky(&t);
        assert_eq!(
            r.len(),
            nsky_graph::generators::special::binary_tree_internal_count(levels)
        );
    }

    #[test]
    fn matches_oracle_on_random_graphs() {
        for seed in 0..8 {
            let g = erdos_renyi(90, 0.07, seed);
            assert_matches_oracle(&g, &format!("er seed {seed}"));
        }
        for seed in 0..4 {
            let g = chung_lu_power_law(150, 2.7, 5.0, seed);
            assert_matches_oracle(&g, &format!("cl seed {seed}"));
        }
        let g = planted_partition(80, 4, 0.5, 0.02, 1);
        assert_matches_oracle(&g, "planted partition");
    }

    #[test]
    fn early_exit_probes_no_more_than_faithful() {
        let g = chung_lu_power_law(500, 2.7, 6.0, 9);
        let faithful = base_sky(&g);
        let early = base_sky_early_exit(&g);
        assert_eq!(faithful.skyline, early.skyline);
        assert!(early.stats.adjacency_probes <= faithful.stats.adjacency_probes);
    }

    #[test]
    fn empty_and_trivial_graphs() {
        assert!(base_sky(&Graph::empty(0)).is_empty());
        assert_eq!(base_sky(&Graph::empty(5)).len(), 5);
        let single_edge = Graph::from_edges(2, [(0, 1)]);
        assert_eq!(base_sky(&single_edge).skyline, vec![0]);
    }

    #[test]
    fn stats_are_populated() {
        let g = erdos_renyi(60, 0.1, 2);
        let r = base_sky(&g);
        assert!(r.stats.adjacency_probes > 0);
        assert_eq!(r.stats.candidate_count, 60);
        assert!(r.stats.peak_bytes > 0);
        assert!(r.candidates.is_none());
    }
}
