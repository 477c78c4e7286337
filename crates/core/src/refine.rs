//! `FilterRefineSky` — the paper's Algorithm 3: the filter-refine search
//! framework with bloom-filter-accelerated inclusion tests.

use crate::budget::{BudgetTicker, Completion, ExecutionBudget};
use crate::exec::{self, ExecutionContext};
use crate::filter_phase::filter_phase_with;
use crate::obs::{record_skyline_stats, Recorder};
use crate::result::{SkylineResult, SkylineStats};
use crate::snapshot::{KernelId, KernelState, Reader, RecoveryError, ResumableRun, Writer};
use nsky_bloom::{BloomConfig, NeighborhoodFilters};
use nsky_graph::{Graph, VertexId};

/// Tuning knobs of [`filter_refine_sky`].
///
/// The defaults run the paper's algorithm plus the min-degree-neighbor
/// scan, which goes beyond it. Each switch is isolated by a variant of
/// the `ablation_switches` bench group (`no-prefilter`,
/// `no-min-neighbor`, `paper-faithful`), and the bloom width by the
/// `ablation_bloom` group.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RefineConfig {
    /// Bloom width multiplier: filter bits = next power of two of
    /// `dmax × bits_per_element` (paper: 1.0, i.e. `dmax`-proportional).
    pub bloom_bits_per_element: f64,
    /// Enable the whole-filter pre-check `BF(u) & BF(w) == BF(u)`
    /// (line 14 of Algorithm 3).
    pub use_word_prefilter: bool,
    /// Enumerate dominator candidates from a *single* neighbor's list —
    /// the minimum-degree neighbor — instead of the union over all
    /// neighbors. Sufficient because a dominator `w` of `u` satisfies
    /// `v ∈ N[w]` for **every** `v ∈ N(u)`, hence `w ∈ N[v_min]`; and
    /// `w = v_min` itself is impossible for a filter-phase candidate
    /// (an adjacent dominator would have edge-dominated `u`). This goes
    /// beyond the paper (which scans all neighbors' lists with the
    /// line-12 skip) and collapses the hub-adjacent pair explosion;
    /// quantified by the `no-min-neighbor` variant of `ablation_switches`.
    pub scan_min_neighbor: bool,
}

impl Default for RefineConfig {
    fn default() -> Self {
        RefineConfig {
            bloom_bits_per_element: 2.0,
            use_word_prefilter: true,
            scan_min_neighbor: true,
        }
    }
}

impl RefineConfig {
    /// The configuration closest to the paper's description
    /// (`dmax`-bit filters, pre-filter on, every neighbor's list
    /// scanned).
    pub fn paper_faithful() -> Self {
        RefineConfig {
            bloom_bits_per_element: 1.0,
            use_word_prefilter: true,
            scan_min_neighbor: false,
        }
    }
}

/// Computes the neighborhood skyline with the filter-refine framework.
///
/// Phase 1 ([`filter_phase`]) removes every vertex that is
/// *edge-constrained* dominated, leaving candidates `C ⊇ R` (Lemma 1).
/// Phase 2 re-examines each candidate `u` against its 2-hop neighbors `w`
/// (1-hop dominators are impossible for candidates: an adjacent dominator
/// would have edge-dominated `u` in phase 1), with a cascade of
/// increasingly expensive checks:
///
/// 1. `deg(w) < deg(u)` — inclusion impossible;
/// 2. `w` already dominated — its skyline dominator also dominates `u`
///    (transitivity, `domination` Fact 2) and is scanned anyway;
/// 3. whole-filter test `BF(u) & BF(w) == BF(u)` — exact in the negative;
/// 4. per-neighbor `BFcheck` (bit test, exact in the negative) and
///    `NBRcheck` (binary search in the adjacency list, exact).
///
/// Equal degrees mean mutual inclusion (twins): the smaller ID dominates.
///
/// Time `O(m + dmax · Σ_{u∈C} deg(u)²)`, space `O(m + |C| · dmax)`
/// (Theorem 3).
///
/// # Examples
///
/// ```
/// use nsky_graph::generators::chung_lu_power_law;
/// use nsky_skyline::{base_sky, filter_refine_sky, RefineConfig};
///
/// let g = chung_lu_power_law(500, 2.8, 6.0, 7);
/// let fast = filter_refine_sky(&g, &RefineConfig::default());
/// assert_eq!(fast.skyline, base_sky(&g).skyline);
/// // The candidate set is recorded for inspection (Lemma 1: R ⊆ C).
/// let c = fast.candidates.as_ref().unwrap();
/// assert!(fast.skyline.iter().all(|u| c.binary_search(u).is_ok()));
/// ```
pub fn filter_refine_sky(g: &Graph, cfg: &RefineConfig) -> SkylineResult {
    filter_refine_sky_with(g, cfg, &mut ExecutionContext::new()).outcome
}

/// The one entry point: [`filter_refine_sky`] under an
/// [`ExecutionContext`] — budget, cancellation, checkpoint/resume and
/// observability in any combination.
///
/// The recorder sees the kernel's three phases as spans (`"filter"`,
/// `"bloom_build"`, `"refine"`) and receives the run's full
/// [`SkylineStats`] counter table as one bulk flush at exit — never
/// per-event calls from the hot loops, so a no-op-recorder run is
/// byte-identical to [`filter_refine_sky`] and costs nothing measurable
/// (the `obs_overhead` ablation bench keeps this honest). After a budget
/// trip the outcome is partial — the skyline holds exactly the
/// candidates whose refine scan finished undominated before the trip (a
/// sound subset of the true skyline) — and the dominant allocations
/// (the filter phase's hub rows and the bloom filters) are charged
/// against the memory cap *before* they are made. The filter phase polls
/// the budget too: a trip or a refused charge inside it yields zero
/// verified vertices, no candidate set, empty stats and an identity
/// dominator array; a refused charge after it yields zero verified
/// vertices but the filter-phase dominator array and candidate set
/// intact.
pub fn filter_refine_sky_with(
    g: &Graph,
    cfg: &RefineConfig,
    ctx: &mut ExecutionContext<'_>,
) -> ResumableRun<SkylineResult> {
    let rec = ctx.effective_recorder();
    let run = exec::drive(
        ctx,
        || g.fingerprint(),
        RefineState::fresh,
        |state, budget| {
            let (result, state) = filter_refine_leg(g, cfg, budget, state, rec);
            let completion = result.completion;
            (result, state, completion)
        },
    );
    record_skyline_stats(rec, &run.outcome.stats);
    run
}

/// Resume state of an interrupted [`filter_refine_sky`] run: the refine
/// dominator array plus the index of the first candidate whose scan has
/// not finished. The filter phase and bloom filters are deterministic
/// functions of the graph and config and are rebuilt on resume; a
/// candidate's scan writes only its own dominator entry and stops at
/// resolution, so a mid-scan trip leaves the entry pristine.
struct RefineState {
    dominator: Vec<VertexId>,
    cursor: usize,
}

impl RefineState {
    fn fresh() -> RefineState {
        RefineState {
            dominator: Vec::new(),
            cursor: 0,
        }
    }
}

impl KernelState for RefineState {
    const FORMAT_VERSION: u32 = 1;
    const KERNEL: KernelId = KernelId::FilterRefine;

    fn encode(&self, w: &mut Writer) {
        w.put_u32_slice(&self.dominator);
        w.put_usize(self.cursor);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, RecoveryError> {
        r.expect_version(Self::FORMAT_VERSION)?;
        Ok(RefineState {
            dominator: r.take_u32_vec()?,
            cursor: r.take_usize()?,
        })
    }
}

// HOT: the refine scan is the kernel's dominant cost (ROADMAP item 2
// keeps it allocation-free); every loop below polls the shared ticker.
fn filter_refine_leg(
    g: &Graph,
    cfg: &RefineConfig,
    budget: &ExecutionBudget,
    state: RefineState,
    rec: &dyn Recorder,
) -> (SkylineResult, RefineState) {
    let n = g.num_vertices();
    let mut ticker = budget.ticker();
    rec.phase_start("filter");
    let filter = filter_phase_with(g, budget, &mut ticker);
    rec.phase_end("filter");
    let filter = match filter {
        Ok(filter) => filter,
        Err(status) => return (SkylineResult::unfiltered(n, status), state),
    };
    let mut stats: SkylineStats = filter.seed_stats();
    // A fresh (or structurally invalid) state starts from the filter
    // phase's dominator array; a resumed one continues where it stopped.
    let (mut dominator, start) =
        if state.dominator.len() == n && state.cursor <= filter.candidates.len() {
            (state.dominator, state.cursor)
        } else {
            (filter.dominator.clone(), 0)
        };

    let bloom_cfg = BloomConfig::for_max_degree(g.max_degree(), cfg.bloom_bits_per_element);
    let filter_estimate = filter.candidates.len() * (bloom_cfg.bits / 8 + 4) + n * 4 /* dominator */;
    if let Some(status) = budget.charge(filter_estimate) {
        let verified = verified_prefix(&filter.candidates, start, &dominator);
        let result = SkylineResult::partial(
            verified,
            dominator.clone(),
            Some(filter.candidates),
            stats,
            status,
        );
        return (
            result,
            RefineState {
                dominator,
                cursor: start,
            },
        );
    }
    rec.phase_start("bloom_build");
    let filters = NeighborhoodFilters::build(g, filter.candidates.iter().copied(), bloom_cfg);
    stats.peak_bytes = filters.size_bytes() + n * 4 /* dominator */;
    rec.phase_end("bloom_build");

    let mut tripped: Option<Completion> = None;
    let mut verified_upto = filter.candidates.len();
    rec.phase_start("refine");
    for (idx, &u) in filter.candidates.iter().enumerate().skip(start) {
        if dominator[u as usize] != u {
            continue;
        }
        match refine_candidate(g, &filters, cfg, &dominator, &mut stats, &mut ticker, u) {
            Ok(witness) => dominator[u as usize] = witness,
            Err(status) => {
                tripped = Some(status);
                verified_upto = idx; // u's scan did not finish
                break;
            }
        }
    }
    rec.phase_end("refine");

    match tripped {
        None => {
            let cursor = filter.candidates.len();
            let result =
                SkylineResult::from_dominators(dominator.clone(), Some(filter.candidates), stats);
            (result, RefineState { dominator, cursor })
        }
        Some(status) => {
            // Candidates are refined in ascending order and never marked
            // dominated by a later scan, so the fixed points among the
            // finished prefix are exactly the verified skyline members.
            let verified = verified_prefix(&filter.candidates, verified_upto, &dominator);
            let result = SkylineResult::partial(
                verified,
                dominator.clone(),
                Some(filter.candidates),
                stats,
                status,
            );
            (
                result,
                RefineState {
                    dominator,
                    cursor: verified_upto,
                },
            )
        }
    }
}

/// The refine scan of one candidate `u` (Algorithm 3's per-candidate
/// loop), shared by the sequential leg and the parallel workers. Returns the
/// first 2-hop vertex that dominates `u` (strictly, or as a smaller-ID
/// twin), `u` itself when the scan finds none, or the budget status if
/// the ticker trips mid-scan. A potential dominator `w` is skipped when
/// `dominator[w] != w` (line 12): the sequential leg passes its live
/// array, the parallel workers the frozen filter-phase array. Both are
/// sound, because a dominated `w`'s skyline dominator also dominates `u`
/// (transitivity, `domination` Fact 2) and is scanned anyway. The scan
/// adds its pair tests and bloom and adjacency probes to `stats`.
// HOT: per-candidate scan of both refine kernels; it writes only the
// caller's counters, never the heap.
pub(crate) fn refine_candidate(
    g: &Graph,
    filters: &NeighborhoodFilters,
    cfg: &RefineConfig,
    dominator: &[VertexId],
    stats: &mut SkylineStats,
    ticker: &mut BudgetTicker<'_>,
    u: VertexId,
) -> Result<VertexId, Completion> {
    let du = g.degree(u);
    if du == 0 {
        return Ok(u); // isolated: skyline by convention
    }
    // The whole-filter compare touches `words_per_filter` words; the
    // per-neighbor bit probes touch ≈ 1 word before the first miss.
    // Use the former only when u has enough neighbors to amortize it.
    let word_prefilter = cfg.use_word_prefilter && du >= filters.words_per_filter();
    // Either the single minimum-degree neighbor (sufficient, see
    // RefineConfig::scan_min_neighbor) or all neighbors.
    let nbrs = g.neighbors(u);
    let scan_vs: &[VertexId] = if cfg.scan_min_neighbor {
        let mut best = 0usize;
        for i in 1..nbrs.len() {
            if let Some(status) = ticker.check() {
                return Err(status);
            }
            if g.degree(nbrs[i]) < g.degree(nbrs[best]) {
                best = i;
            }
        }
        &nbrs[best..=best]
    } else {
        nbrs
    };
    for &v in scan_vs {
        for &w in g.neighbors(v) {
            if let Some(status) = ticker.check() {
                return Err(status);
            }
            if w == u || g.degree(w) < du || dominator[w as usize] != w {
                continue;
            }
            stats.pair_tests += 1;
            if word_prefilter {
                stats.bloom_queries += 1;
                if !filters.filter_subset(u, w) {
                    stats.bf_word_rejects += 1;
                    continue;
                }
                stats.bloom_hits += 1;
            }
            // Verify N(u) ⊆ N[w] neighbor by neighbor. `v` is known
            // common (w ∈ N(v) ⇒ v ∈ N(w)); `w` itself is in N[w].
            let mut dominated = true;
            for &x in nbrs {
                if let Some(status) = ticker.check() {
                    return Err(status);
                }
                if x == w || x == v {
                    continue;
                }
                stats.bloom_queries += 1;
                if !filters.maybe_contains(w, x) {
                    stats.bf_bit_rejects += 1;
                    dominated = false;
                    break;
                }
                stats.bloom_hits += 1;
                stats.adjacency_probes += 1;
                if !g.has_edge(w, x) {
                    dominated = false;
                    break;
                }
            }
            // Mutual twins (domination Fact 3): the smaller ID wins. A
            // larger-ID twin does not disqualify u; it will self-detect
            // during its own scan.
            if dominated && (g.degree(w) > du || w < u) {
                return Ok(w);
            }
        }
    }
    Ok(u)
}

/// The fixed points among the first `upto` candidates: exactly the
/// verified skyline members of a partial refine run.
fn verified_prefix(candidates: &[VertexId], upto: usize, dominator: &[VertexId]) -> Vec<VertexId> {
    candidates[..upto]
        .iter()
        .copied()
        .filter(|&v| dominator[v as usize] == v)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::base_sky;
    use crate::oracle::naive_skyline;
    use nsky_graph::generators::special::{clique, complete_binary_tree, cycle, path, star};
    use nsky_graph::generators::{chung_lu_power_law, erdos_renyi, planted_partition};

    fn check(g: &Graph, cfg: &RefineConfig, label: &str) {
        let fast = filter_refine_sky(g, cfg);
        let truth = naive_skyline(g);
        assert_eq!(fast.skyline, truth.skyline, "{label}");
        for u in g.vertices() {
            let o = fast.dominator[u as usize];
            if o != u {
                assert!(
                    crate::domination::dominates(g, o, u),
                    "{label}: bogus witness {o} for {u}"
                );
            }
        }
    }

    #[test]
    fn matches_oracle_default_config() {
        let cfg = RefineConfig::default();
        check(&clique(8), &cfg, "clique");
        check(&path(9), &cfg, "path");
        check(&cycle(9), &cfg, "cycle");
        check(&star(9), &cfg, "star");
        check(&complete_binary_tree(4), &cfg, "tree");
        for seed in 0..8 {
            check(&erdos_renyi(90, 0.07, seed), &cfg, &format!("er {seed}"));
        }
        for seed in 0..4 {
            check(
                &chung_lu_power_law(150, 2.7, 5.0, seed),
                &cfg,
                &format!("cl {seed}"),
            );
        }
        check(&planted_partition(64, 4, 0.5, 0.03, 2), &cfg, "pp");
    }

    #[test]
    fn matches_oracle_paper_faithful_config() {
        let cfg = RefineConfig::paper_faithful();
        for seed in 0..6 {
            check(
                &erdos_renyi(80, 0.08, seed + 50),
                &cfg,
                &format!("er pf {seed}"),
            );
        }
    }

    #[test]
    fn matches_oracle_all_switch_combinations() {
        for &prefilter in &[false, true] {
            for &min_nbr in &[false, true] {
                for &bits in &[0.5, 4.0] {
                    let cfg = RefineConfig {
                        bloom_bits_per_element: bits,
                        use_word_prefilter: prefilter,
                        scan_min_neighbor: min_nbr,
                    };
                    check(
                        &chung_lu_power_law(120, 2.8, 5.0, 13),
                        &cfg,
                        &format!("cfg {cfg:?}"),
                    );
                }
            }
        }
    }

    #[test]
    fn agrees_with_base_sky_on_larger_graphs() {
        let cfg = RefineConfig::default();
        for seed in 0..3 {
            let g = chung_lu_power_law(3_000, 2.7, 6.0, seed);
            assert_eq!(
                filter_refine_sky(&g, &cfg).skyline,
                base_sky(&g).skyline,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn candidate_set_recorded_and_contains_skyline() {
        let g = chung_lu_power_law(800, 2.8, 6.0, 3);
        let r = filter_refine_sky(&g, &RefineConfig::default());
        let c = r.candidates.as_ref().expect("filter phase ran");
        assert!(c.len() <= g.num_vertices());
        assert!(r.len() <= c.len());
        for u in &r.skyline {
            assert!(c.binary_search(u).is_ok());
        }
        assert_eq!(r.stats.candidate_count, c.len());
    }

    #[test]
    fn bloom_counters_fire_on_power_law_graphs() {
        let g = chung_lu_power_law(2_000, 2.7, 8.0, 5);
        let r = filter_refine_sky(&g, &RefineConfig::default());
        assert!(
            r.stats.bf_word_rejects + r.stats.bf_bit_rejects > 0,
            "bloom filters should reject some pairs: {:?}",
            r.stats
        );
        assert!(r.stats.peak_bytes > 0);
    }

    #[test]
    fn trivial_graphs() {
        let cfg = RefineConfig::default();
        assert!(filter_refine_sky(&Graph::empty(0), &cfg).is_empty());
        assert_eq!(filter_refine_sky(&Graph::empty(4), &cfg).len(), 4);
        let e = Graph::from_edges(2, [(0, 1)]);
        assert_eq!(filter_refine_sky(&e, &cfg).skyline, vec![0]);
    }
}
