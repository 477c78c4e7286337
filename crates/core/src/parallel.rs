//! A chunked parallel variant of the refine phase (extension beyond the
//! paper; the per-candidate checks are read-only and embarrassingly
//! parallel).

use crate::budget::{BudgetTicker, ExecutionBudget};
use crate::exec::{self, ExecutionContext};
use crate::filter_phase::filter_phase;
use crate::obs::record_skyline_stats;
use crate::refine::RefineConfig;
use crate::result::{SkylineResult, SkylineStats};
use crate::snapshot::{KernelId, KernelState, Reader, RecoveryError, ResumableRun, Writer};
use nsky_bloom::{BloomConfig, NeighborhoodFilters};
use nsky_graph::{Graph, VertexId};

/// Per-candidate outcome of a worker's refine scan.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// The scan did not finish before the budget tripped.
    Unverified,
    /// Scan finished; no dominator found — a true skyline member.
    Skyline,
    /// Scan finished; dominated by the carried witness.
    DominatedBy(VertexId),
}

impl Verdict {
    /// The wire tag used by [`ParState`].
    fn tag(self) -> u32 {
        match self {
            Verdict::Unverified => PAR_UNVERIFIED,
            Verdict::Skyline => PAR_SKYLINE,
            Verdict::DominatedBy(w) => w,
        }
    }

    /// Inverse of [`Verdict::tag`].
    fn from_tag(tag: u32) -> Verdict {
        match tag {
            PAR_UNVERIFIED => Verdict::Unverified,
            PAR_SKYLINE => Verdict::Skyline,
            w => Verdict::DominatedBy(w),
        }
    }
}

/// Computes the neighborhood skyline with the refine phase split across
/// `threads` OS threads.
///
/// Unlike the sequential [`crate::filter_refine_sky`], workers do not
/// observe each other's refine-time dominator updates; they skip a
/// potential dominator `w` only when `w` failed the *filter phase*. This
/// is still sound (every dominated vertex has a skyline dominator, and
/// the skyline is contained in the candidate set) and the resulting
/// skyline is identical — the skyline of a graph is unique.
///
/// # Panics
///
/// Panics if `threads == 0`.
///
/// # Examples
///
/// ```
/// use nsky_graph::generators::chung_lu_power_law;
/// use nsky_skyline::{filter_refine_sky, filter_refine_sky_par, RefineConfig};
///
/// let g = chung_lu_power_law(1_000, 2.8, 6.0, 3);
/// let cfg = RefineConfig::default();
/// assert_eq!(
///     filter_refine_sky_par(&g, &cfg, 4).skyline,
///     filter_refine_sky(&g, &cfg).skyline,
/// );
/// ```
pub fn filter_refine_sky_par(g: &Graph, cfg: &RefineConfig, threads: usize) -> SkylineResult {
    filter_refine_sky_par_with(g, cfg, threads, &mut ExecutionContext::new()).outcome
}

/// The one entry point: [`filter_refine_sky_par`] under an
/// [`ExecutionContext`] — budget, cancellation, checkpoint/resume and
/// observability in any combination, the budget shared by all worker
/// threads. The first worker that observes an exhausted budget publishes
/// the sticky trip; every other worker stops within one check interval.
/// After a trip the skyline holds exactly the candidates some worker
/// fully verified (a sound subset of the true skyline — which candidates
/// those are depends on thread scheduling). The recorder sees one
/// `"refine_par"` span around the whole run plus a bulk flush of the
/// run's [`SkylineStats`] at exit; workers never touch it.
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn filter_refine_sky_par_with(
    g: &Graph,
    cfg: &RefineConfig,
    threads: usize,
    ctx: &mut ExecutionContext<'_>,
) -> ResumableRun<SkylineResult> {
    assert!(threads > 0, "need at least one worker thread");
    let rec = ctx.effective_recorder();
    rec.phase_start("refine_par");
    let run = exec::drive(ctx, g.fingerprint(), ParState::fresh, |state, budget| {
        let (result, state) = parallel_leg(g, cfg, threads, budget, state);
        let completion = result.completion;
        (result, state, completion)
    });
    rec.phase_end("refine_par");
    record_skyline_stats(rec, &run.outcome.stats);
    run
}

/// Resume state of an interrupted [`filter_refine_sky_par`] run: one
/// verdict per filter-phase candidate. Each verdict is a pure function
/// of the graph, config and candidate ([`refine_one`] reads no shared
/// refine-time state), so a resumed run recomputes only the
/// still-unverified entries and the merged verdict array — hence the
/// final dominator and skyline — is byte-identical regardless of which
/// workers verified what before the trip.
struct ParState {
    /// `u32::MAX` = unverified, `u32::MAX - 1` = skyline, anything else
    /// = dominated by that witness (vertex ids stay far below the tags).
    verdicts: Vec<u32>,
}

const PAR_UNVERIFIED: u32 = u32::MAX;
const PAR_SKYLINE: u32 = u32::MAX - 1;

impl ParState {
    fn fresh() -> ParState {
        ParState {
            verdicts: Vec::new(),
        }
    }
}

impl KernelState for ParState {
    const FORMAT_VERSION: u32 = 1;
    const KERNEL: KernelId = KernelId::ParallelRefine;

    fn encode(&self, w: &mut Writer) {
        w.put_u32_slice(&self.verdicts);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, RecoveryError> {
        r.expect_version(Self::FORMAT_VERSION)?;
        Ok(ParState {
            verdicts: r.take_u32_vec()?,
        })
    }
}

fn parallel_leg(
    g: &Graph,
    cfg: &RefineConfig,
    threads: usize,
    budget: &ExecutionBudget,
    state: ParState,
) -> (SkylineResult, ParState) {
    let n = g.num_vertices();
    let filter = filter_phase(g);
    let mut stats: SkylineStats = filter.seed_stats();

    let bloom_cfg = BloomConfig::for_max_degree(g.max_degree(), cfg.bloom_bits_per_element);
    let estimate = filter.candidates.len() * (bloom_cfg.bits / 8 + 4) + n * 4 + threads * n * 4;
    if let Some(status) = budget.charge(estimate) {
        let result = SkylineResult::partial(
            Vec::new(),
            filter.dominator,
            Some(filter.candidates),
            stats,
            status,
        );
        return (result, state);
    }
    let filters = NeighborhoodFilters::build(g, filter.candidates.iter().copied(), bloom_cfg);
    stats.peak_bytes = filters.size_bytes() + n * 4 + threads * n * 4;

    let candidates = &filter.candidates;
    let is_candidate = &filter.dominator; // frozen: dominator[w] == w ⟺ w ∈ C
    let chunk = candidates.len().div_ceil(threads).max(1);
    let mut verdicts: Vec<Verdict> = if state.verdicts.len() == candidates.len() {
        state
            .verdicts
            .iter()
            .map(|&t| Verdict::from_tag(t))
            .collect()
    } else {
        vec![Verdict::Unverified; candidates.len()]
    };

    std::thread::scope(|scope| {
        let filters = &filters;
        for (slice, out) in candidates.chunks(chunk).zip(verdicts.chunks_mut(chunk)) {
            scope.spawn(move || {
                let mut seen: Vec<u32> = vec![u32::MAX; n];
                let mut ticker = budget.ticker();
                for (i, &u) in slice.iter().enumerate() {
                    if out[i] != Verdict::Unverified {
                        continue; // verified before the last trip
                    }
                    if ticker.check().is_some() {
                        break; // leave the rest of the chunk Unverified
                    }
                    out[i] = refine_one(g, filters, is_candidate, cfg, &mut seen, &mut ticker, u);
                    if out[i] == Verdict::Unverified {
                        break; // tripped mid-scan
                    }
                }
            });
        }
    });

    let completion = budget.status();
    let mut dominator = filter.dominator.clone();
    for (i, &u) in candidates.iter().enumerate() {
        if let Verdict::DominatedBy(w) = verdicts[i] {
            dominator[u as usize] = w;
        }
    }
    let state = ParState {
        verdicts: verdicts.iter().map(|v| v.tag()).collect(),
    };
    if completion.is_complete() {
        let result = SkylineResult::from_dominators(dominator, Some(filter.candidates), stats);
        return (result, state);
    }
    let verified = candidates
        .iter()
        .zip(&verdicts)
        .filter(|&(_, v)| *v == Verdict::Skyline)
        .map(|(&u, _)| u)
        .collect();
    let result = SkylineResult::partial(
        verified,
        dominator,
        Some(filter.candidates),
        stats,
        completion,
    );
    (result, state)
}

/// Pure per-candidate check: [`Verdict::DominatedBy`] the first 2-hop
/// vertex that dominates `u` (strictly, or a smaller-ID twin),
/// [`Verdict::Skyline`] if the scan completes without one, or
/// [`Verdict::Unverified`] if the budget trips mid-scan.
// HOT: per-candidate scan executed across the worker pool — shared-state
// writes are stamp-array updates only, never heap growth.
#[allow(clippy::too_many_arguments)]
fn refine_one(
    g: &Graph,
    filters: &NeighborhoodFilters,
    is_candidate: &[VertexId],
    cfg: &RefineConfig,
    seen: &mut [u32],
    ticker: &mut BudgetTicker<'_>,
    u: VertexId,
) -> Verdict {
    let du = g.degree(u);
    if du == 0 {
        return Verdict::Skyline;
    }
    let word_prefilter = cfg.use_word_prefilter && du >= filters.words_per_filter();
    let round = u;
    let nbrs = g.neighbors(u);
    let scan_vs: &[VertexId] = if cfg.scan_min_neighbor {
        let mut best = 0usize;
        for i in 1..nbrs.len() {
            if ticker.check().is_some() {
                return Verdict::Unverified;
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
            if ticker.check().is_some() {
                return Verdict::Unverified;
            }
            if w == u {
                continue;
            }
            if cfg.dedup_two_hop {
                if seen[w as usize] == round {
                    continue;
                }
                seen[w as usize] = round;
            }
            if g.degree(w) < du || is_candidate[w as usize] != w {
                continue;
            }
            if word_prefilter && !filters.filter_subset(u, w) {
                continue;
            }
            let mut dominated = true;
            for &x in g.neighbors(u) {
                if ticker.check().is_some() {
                    return Verdict::Unverified;
                }
                if x == w || x == v {
                    continue;
                }
                if !filters.maybe_contains(w, x) || !g.has_edge(w, x) {
                    dominated = false;
                    break;
                }
            }
            if !dominated {
                continue;
            }
            if g.degree(w) == du {
                if w < u {
                    return Verdict::DominatedBy(w);
                }
            } else {
                return Verdict::DominatedBy(w);
            }
        }
    }
    Verdict::Skyline
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refine::filter_refine_sky;
    use nsky_graph::generators::{chung_lu_power_law, erdos_renyi};

    #[test]
    fn agrees_with_sequential() {
        let cfg = RefineConfig::default();
        for seed in 0..4 {
            let g = chung_lu_power_law(1_500, 2.7, 6.0, seed);
            let seq = filter_refine_sky(&g, &cfg);
            for threads in [1, 2, 4, 7] {
                let par = filter_refine_sky_par(&g, &cfg, threads);
                assert_eq!(par.skyline, seq.skyline, "seed {seed} threads {threads}");
            }
        }
    }

    #[test]
    fn dominator_witnesses_are_valid() {
        let g = erdos_renyi(300, 0.04, 9);
        let r = filter_refine_sky_par(&g, &RefineConfig::default(), 3);
        for u in g.vertices() {
            let o = r.dominator[u as usize];
            if o != u {
                assert!(crate::domination::dominates(&g, o, u));
            }
        }
    }

    #[test]
    fn trivial_graphs() {
        let cfg = RefineConfig::default();
        assert!(filter_refine_sky_par(&Graph::empty(0), &cfg, 2).is_empty());
        assert_eq!(filter_refine_sky_par(&Graph::empty(5), &cfg, 2).len(), 5);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_panics() {
        filter_refine_sky_par(&Graph::empty(1), &RefineConfig::default(), 0);
    }
}
