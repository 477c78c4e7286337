//! `FilterPhase` — the paper's Algorithm 2: candidate generation via
//! edge-constrained domination.
//!
//! ## Note on the printed pseudo-code
//!
//! Algorithm 2 as printed in the paper increments `T(v)` once per
//! neighbor, which could only ever trigger for degree-1 vertices and
//! contradicts Fig. 2(a) (clique ⇒ `|C| = 1`). The intended computation —
//! clear from Definition 4/5, Lemma 1 and Fig. 2 — is the edge-constrained
//! inclusion test `N[u] ⊆ N[v]` for every edge `(u, v)`. For adjacent
//! vertices this is equivalent to `|N(u) ∩ N(v)| = deg(u) − 1`
//! (every neighbor of `u` other than `v` must also neighbor `v`), which we
//! evaluate with a sorted-adjacency merge guarded by a degree pre-check.
//!
//! Worst-case `O(Σ_u deg(u)²)`; on sparse real-world graphs the degree
//! pre-check and the at-most-one-update rule make it behave like the
//! paper's `O(m)` claim (candidate scans stop at the first dominator).
//!
//! ## Hub rows
//!
//! On skewed graphs most of the sweep's time went into binary searches
//! of a few hub lists. Before the sweep, every vertex whose dense
//! `n`-bit closed-neighbor row is no larger than its sorted list
//! (`deg ≥ n/32`) gets one, in a single allocation, and `N(u) ⊆ N[v]`
//! is answered from `v`'s row with one bit test per neighbor of `u`.
//! Since `deg(v) ≥ deg(u)` for every tested pair, a pair with a hub on
//! either side always reads a row; the rest keep the sorted-list test.
//! The rows change how an inclusion is tested, never which inclusions
//! hold, so the dominator array and the probe count are those of the
//! list-only sweep. The rows cost at most the adjacency's own size.
//!
//! ## Budget
//!
//! FilterRefineSky and its parallel twin run the phase under their
//! budget: the rows' bytes are charged before they are allocated, and
//! the ticker is polled once per row built and once per vertex of the
//! sweep. [`filter_phase`] is the unbudgeted wrapper.

use crate::budget::{BudgetTicker, Completion, ExecutionBudget};
use crate::result::SkylineStats;
use nsky_graph::{Graph, VertexId};

/// Output of the filter phase.
#[derive(Clone, Debug)]
pub struct FilterOutcome {
    /// The candidate set `C` (vertices not edge-constrained dominated),
    /// sorted ascending. `R ⊆ C` by Lemma 1.
    pub candidates: Vec<VertexId>,
    /// Edge-constrained dominator array: `dominator[u] == u` iff
    /// `u ∈ C`; otherwise a vertex that edge-constrained dominates `u`.
    pub dominator: Vec<VertexId>,
    /// Merge-probe counter (inclusion tests started).
    pub probes: u64,
}

/// Runs the filter phase and returns the neighborhood candidates.
///
/// # Examples
///
/// ```
/// use nsky_graph::generators::special::clique;
/// use nsky_skyline::filter_phase;
///
/// // Fig. 2(a): a clique has a single candidate (the smallest id).
/// let out = filter_phase(&clique(6));
/// assert_eq!(out.candidates, vec![0]);
/// ```
pub fn filter_phase(g: &Graph) -> FilterOutcome {
    let unlimited = ExecutionBudget::unlimited();
    match filter_phase_with(g, &unlimited, &mut unlimited.ticker()) {
        Ok(out) => out,
        // Unreachable: an unlimited budget refuses no charge and never
        // trips. Every vertex a candidate would still be a sound `C`.
        Err(_) => FilterOutcome::from_dominators(g.vertices().collect(), 0),
    }
}

/// Dense closed-neighbor rows of the vertices with `deg ≥ n/32`.
struct HubRows {
    /// The row owners, ascending: row `i` belongs to `hubs[i]`.
    hubs: Vec<VertexId>,
    words_per_row: usize,
    /// `hubs.len() × words_per_row` words, bit `x` of row `i` set iff
    /// `x ∈ N[hubs[i]]`.
    words: Vec<u64>,
}

impl HubRows {
    /// Charges, then builds, every row whose `n` bits take no more room
    /// than the owner's sorted list (`4·deg` bytes): those of degree at
    /// least `2 · words_per_row`. Polls once per row.
    fn build(
        g: &Graph,
        budget: &ExecutionBudget,
        ticker: &mut BudgetTicker<'_>,
    ) -> Result<HubRows, Completion> {
        let words_per_row = g.num_vertices().div_ceil(64).max(1);
        let hubs: Vec<VertexId> = g
            .vertices()
            .filter(|&v| g.degree(v) >= 2 * words_per_row)
            .collect();
        let len = hubs.len() * words_per_row;
        if let Some(status) = budget.charge(len * 8) {
            return Err(status);
        }
        let mut words = vec![0u64; len];
        for (&v, row) in hubs.iter().zip(words.chunks_exact_mut(words_per_row)) {
            if let Some(status) = ticker.check() {
                return Err(status);
            }
            for x in g.neighbors(v).iter().chain([&v]) {
                row[*x as usize / 64] |= 1 << (x % 64);
            }
        }
        Ok(HubRows {
            hubs,
            words_per_row,
            words,
        })
    }

    /// The closed row of `v` (of degree `dv`), if it has one.
    #[inline]
    fn row(&self, v: VertexId, dv: usize) -> Option<&[u64]> {
        if dv < 2 * self.words_per_row {
            return None;
        }
        let i = self.hubs.binary_search(&v).ok()?;
        Some(&self.words[i * self.words_per_row..(i + 1) * self.words_per_row])
    }
}

/// [`filter_phase`] under a budget: builds the hub rows, then sweeps.
/// Returns the trip status instead of an outcome when the rows' charge
/// is refused or the ticker trips.
// HOT: the O(n + m) filter sweep — the rows are sized and charged up
// front, the scans themselves must not allocate.
pub(crate) fn filter_phase_with(
    g: &Graph,
    budget: &ExecutionBudget,
    ticker: &mut BudgetTicker<'_>,
) -> Result<FilterOutcome, Completion> {
    let rows = HubRows::build(g, budget, ticker)?;
    let n = g.num_vertices();
    let mut dominator: Vec<VertexId> = (0..n as VertexId).collect();
    let mut probes = 0u64;

    for u in g.vertices() {
        if let Some(status) = ticker.check() {
            return Err(status);
        }
        if dominator[u as usize] != u {
            continue; // resolved by a smaller-ID adjacent twin
        }
        let du = g.degree(u);
        if du == 0 {
            continue;
        }
        let nu = g.neighbors(u);
        for &v in nu {
            let dv = g.degree(v);
            if dv < du {
                continue; // N[u] ⊆ N[v] needs deg(u) ≤ deg(v)
            }
            probes += 1;
            // For an adjacent pair, N[u] ⊆ N[v] ⟺ N(u) ⊆ N[v]. Both
            // tests bail at the first neighbor of u missing from N[v],
            // so a typical rejection costs O(1), not O(deg u + deg v).
            let included = match rows.row(v, dv) {
                Some(row) => nu
                    .iter()
                    .all(|&x| row[x as usize / 64] & (1 << (x % 64)) != 0),
                None => g.open_included_in_closed(u, v),
            };
            if !included {
                continue;
            }
            // N[u] ⊆ N[v] holds.
            if dv == du {
                // N[u] = N[v]: adjacent twins, smaller ID dominates.
                if v < u {
                    dominator[u as usize] = v;
                    break;
                } else if dominator[v as usize] == v {
                    dominator[v as usize] = u;
                }
            } else {
                dominator[u as usize] = v;
                break;
            }
        }
    }
    Ok(FilterOutcome::from_dominators(dominator, probes))
}

impl FilterOutcome {
    /// Assembles the outcome: the candidates are the fixed points.
    fn from_dominators(dominator: Vec<VertexId>, probes: u64) -> FilterOutcome {
        let candidates = dominator
            .iter()
            .enumerate()
            .filter(|&(u, &o)| o == u as VertexId)
            .map(|(u, _)| u as VertexId)
            .collect();
        FilterOutcome {
            candidates,
            dominator,
            probes,
        }
    }

    /// Whether `u` survived the filter (is a candidate).
    #[inline]
    pub fn is_candidate(&self, u: VertexId) -> bool {
        self.dominator[u as usize] == u
    }

    /// Folds the filter counters into a [`SkylineStats`].
    pub(crate) fn seed_stats(&self) -> SkylineStats {
        SkylineStats {
            adjacency_probes: self.probes,
            candidate_count: self.candidates.len(),
            ..SkylineStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domination::edge_dominates;
    use crate::oracle::naive_skyline;
    use nsky_graph::generators::special::{clique, complete_binary_tree, cycle, path, star};
    use nsky_graph::generators::{chung_lu_power_law, erdos_renyi};

    /// Oracle for the candidate set: u ∈ C iff no vertex edge-constrained
    /// dominates it.
    fn naive_candidates(g: &Graph) -> Vec<VertexId> {
        g.vertices()
            .filter(|&u| !g.vertices().any(|w| w != u && edge_dominates(g, w, u)))
            .collect()
    }

    #[test]
    fn fig2_candidate_sizes() {
        // clique: |C| = 1; cycle: |C| = n; path: |C| = n − 2;
        // complete binary tree: |C| = internal vertices.
        assert_eq!(filter_phase(&clique(9)).candidates.len(), 1);
        assert_eq!(filter_phase(&cycle(9)).candidates.len(), 9);
        assert_eq!(filter_phase(&path(9)).candidates.len(), 7);
        let t = complete_binary_tree(4);
        assert_eq!(
            filter_phase(&t).candidates.len(),
            nsky_graph::generators::special::binary_tree_internal_count(4)
        );
    }

    #[test]
    fn matches_candidate_oracle() {
        for seed in 0..6 {
            let g = erdos_renyi(80, 0.08, seed);
            assert_eq!(
                filter_phase(&g).candidates,
                naive_candidates(&g),
                "seed {seed}"
            );
        }
        let g = chung_lu_power_law(200, 2.7, 5.0, 3);
        assert_eq!(filter_phase(&g).candidates, naive_candidates(&g));
    }

    #[test]
    fn lemma1_skyline_subset_of_candidates() {
        for seed in 0..6 {
            let g = erdos_renyi(70, 0.1, seed + 100);
            let c = filter_phase(&g);
            let r = naive_skyline(&g);
            for &u in &r.skyline {
                assert!(
                    c.is_candidate(u),
                    "skyline vertex {u} filtered out (seed {seed})"
                );
            }
        }
    }

    #[test]
    fn star_candidates() {
        // Every leaf is edge-dominated by the center; the center is not.
        let out = filter_phase(&star(6));
        assert_eq!(out.candidates, vec![0]);
        for leaf in 1..6 {
            assert_eq!(out.dominator[leaf], 0);
        }
    }

    #[test]
    fn isolated_vertices_are_candidates() {
        let g = Graph::from_edges(4, [(0, 1)]);
        let out = filter_phase(&g);
        assert!(out.is_candidate(2) && out.is_candidate(3));
        // 0,1 adjacent twins: 0 survives.
        assert!(out.is_candidate(0));
        assert!(!out.is_candidate(1));
    }

    #[test]
    fn probes_counted() {
        let g = erdos_renyi(50, 0.2, 1);
        assert!(filter_phase(&g).probes > 0);
    }

    /// The sweep before hub rows: every inclusion by sorted lists.
    fn list_only_sweep(g: &Graph) -> (Vec<VertexId>, u64) {
        let mut dominator: Vec<VertexId> = g.vertices().collect();
        let mut probes = 0u64;
        for u in g.vertices() {
            if dominator[u as usize] != u || g.degree(u) == 0 {
                continue;
            }
            let du = g.degree(u);
            for &v in g.neighbors(u) {
                let dv = g.degree(v);
                if dv < du {
                    continue;
                }
                probes += 1;
                if !g.open_included_in_closed(u, v) {
                    continue;
                }
                if dv == du {
                    if v < u {
                        dominator[u as usize] = v;
                        break;
                    } else if dominator[v as usize] == v {
                        dominator[v as usize] = u;
                    }
                } else {
                    dominator[u as usize] = v;
                    break;
                }
            }
        }
        (dominator, probes)
    }

    fn row_count(g: &Graph) -> usize {
        let unlimited = ExecutionBudget::unlimited();
        match HubRows::build(g, &unlimited, &mut unlimited.ticker()) {
            Ok(rows) => rows.hubs.len(),
            Err(status) => unreachable!("unlimited build tripped: {status:?}"),
        }
    }

    fn complete_bipartite(a: usize, b: usize) -> Graph {
        let edges = (0..a).flat_map(|u| (a..a + b).map(move |v| (u as VertexId, v as VertexId)));
        Graph::from_edges(a + b, edges)
    }

    #[test]
    fn hub_rows_repeat_the_list_only_sweep() {
        let mut isolated_hub: Vec<(VertexId, VertexId)> = (1..40).map(|v| (0, v)).collect();
        isolated_hub.extend([(40, 41), (41, 42)]);
        let cases: Vec<(&str, Graph, bool)> = vec![
            ("star(100)", star(100), true),
            (
                "chung-lu hubs",
                chung_lu_power_law(3_000, 2.1, 6.0, 4),
                true,
            ),
            ("clique(70)", clique(70), true),
            ("k(5,90)", complete_bipartite(5, 90), true),
            ("isolated", Graph::from_edges(120, isolated_hub), true),
            ("n < 32", erdos_renyi(20, 0.3, 8), true),
            ("path(300)", path(300), false),
            ("sparse er", erdos_renyi(2_000, 0.002, 3), false),
        ];
        for (label, g, has_rows) in cases {
            assert_eq!(row_count(&g) > 0, has_rows, "{label}");
            let out = filter_phase(&g);
            let (dominator, probes) = list_only_sweep(&g);
            assert_eq!(out.dominator, dominator, "{label}");
            assert_eq!(out.probes, probes, "{label}");
        }
    }

    #[test]
    fn rows_are_charged_before_they_are_built() {
        let g = star(40); // one row of one word
        let capped = ExecutionBudget::unlimited().memory_cap(7);
        let tripped = filter_phase_with(&g, &capped, &mut capped.ticker());
        assert_eq!(tripped.err(), Some(Completion::MemoryCapped));
        let roomy = ExecutionBudget::unlimited().memory_cap(8);
        let out = filter_phase_with(&g, &roomy, &mut roomy.ticker());
        assert_eq!(out.map(|o| o.candidates), Ok(vec![0]));
        assert_eq!(roomy.charged_bytes(), 8);
    }
}
