//! Result and instrumentation types shared by every skyline algorithm.

use crate::budget::Completion;
use nsky_graph::VertexId;

/// Instrumentation counters collected while computing a skyline.
///
/// The benchmark harness prints these next to wall-clock numbers so the
/// *mechanism* of each speedup (fewer pair tests, bloom rejections before
/// adjacency probes) is visible, mirroring the paper's discussion of
/// Exp-1.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SkylineStats {
    /// Ordered pairs `(u, w)` for which a domination check was started.
    pub pair_tests: u64,
    /// Pairs rejected by the whole-filter word comparison
    /// (`BF(u) & BF(w) != BF(u)`, line 14 of Algorithm 3).
    pub bf_word_rejects: u64,
    /// Per-neighbor `BFcheck` rejections (bit absent ⇒ exact negative).
    pub bf_bit_rejects: u64,
    /// Exact adjacency probes performed (`NBRcheck` + merge steps).
    pub adjacency_probes: u64,
    /// Bloom-filter containment queries issued (word prefilters plus
    /// per-neighbor bit probes). Always equals
    /// `bloom_hits + bf_word_rejects + bf_bit_rejects`.
    pub bloom_queries: u64,
    /// Bloom queries that answered "maybe contained" (the positive
    /// outcomes; negatives are exact, split across the reject counters).
    pub bloom_hits: u64,
    /// Size of the candidate set `C` (equals `n` for algorithms without a
    /// filter phase).
    pub candidate_count: usize,
    /// Estimated peak resident bytes of algorithm-owned state
    /// (excludes the input graph; see [`crate::memory`]).
    pub peak_bytes: usize,
}

impl SkylineStats {
    /// Adds another run's refine counters (pair tests, bloom and
    /// adjacency probes) to these; the candidate count and peak bytes
    /// describe the whole run and stay as they are.
    pub(crate) fn add_refine_counters(&mut self, other: &SkylineStats) {
        self.pair_tests += other.pair_tests;
        self.bf_word_rejects += other.bf_word_rejects;
        self.bf_bit_rejects += other.bf_bit_rejects;
        self.adjacency_probes += other.adjacency_probes;
        self.bloom_queries += other.bloom_queries;
        self.bloom_hits += other.bloom_hits;
    }
}

/// Output of a skyline computation.
#[derive(Clone, Debug)]
pub struct SkylineResult {
    /// Skyline vertices, sorted ascending.
    pub skyline: Vec<VertexId>,
    /// The paper's `O(*)` array: `dominator[u] == u` iff `u` is in the
    /// skyline, otherwise one vertex that dominates `u`.
    pub dominator: Vec<VertexId>,
    /// The candidate set `C` when a filter phase ran (`None` otherwise),
    /// sorted ascending.
    pub candidates: Option<Vec<VertexId>>,
    /// Instrumentation counters.
    pub stats: SkylineStats,
    /// How the run ended. Anything other than [`Completion::Complete`]
    /// marks a partial result: `skyline` holds only the candidates
    /// *verified* before the budget tripped (a sound subset of the true
    /// skyline), while `dominator` may still hold unverified fixed
    /// points — so [`SkylineResult::contains`] and
    /// [`SkylineResult::membership_mask`] over-approximate membership on
    /// partial results.
    pub completion: Completion,
}

impl SkylineResult {
    /// Assembles the result from a finished dominator array.
    pub(crate) fn from_dominators(
        dominator: Vec<VertexId>,
        candidates: Option<Vec<VertexId>>,
        stats: SkylineStats,
    ) -> Self {
        let skyline = dominator
            .iter()
            .enumerate()
            .filter(|&(u, &o)| o == u as VertexId)
            .map(|(u, _)| u as VertexId)
            .collect();
        SkylineResult {
            skyline,
            dominator,
            candidates,
            stats,
            completion: Completion::Complete,
        }
    }

    /// Assembles an anytime partial result after a budget trip: only the
    /// explicitly listed `verified` vertices (those whose domination scan
    /// finished before the trip) are reported as skyline members, even
    /// though unverified candidates may still be fixed points of
    /// `dominator`.
    pub(crate) fn partial(
        verified: Vec<VertexId>,
        dominator: Vec<VertexId>,
        candidates: Option<Vec<VertexId>>,
        stats: SkylineStats,
        completion: Completion,
    ) -> Self {
        SkylineResult {
            skyline: verified,
            dominator,
            candidates,
            stats,
            completion,
        }
    }

    /// The partial result of a run that tripped before its filter phase
    /// finished: nothing verified, no candidate set, every vertex its
    /// own (unverified) dominator.
    pub(crate) fn unfiltered(n: usize, completion: Completion) -> Self {
        let dominator = (0..n as VertexId).collect();
        SkylineResult::partial(
            Vec::new(),
            dominator,
            None,
            SkylineStats::default(),
            completion,
        )
    }

    /// Whether `u` belongs to the skyline.
    #[inline]
    pub fn contains(&self, u: VertexId) -> bool {
        self.dominator[u as usize] == u
    }

    /// Skyline membership as a boolean mask (index = vertex id).
    pub fn membership_mask(&self) -> Vec<bool> {
        self.dominator
            .iter()
            .enumerate()
            .map(|(u, &o)| o == u as VertexId)
            .collect()
    }

    /// `|R|`.
    pub fn len(&self) -> usize {
        self.skyline.len()
    }

    /// Whether the skyline is empty (only for the 0-vertex graph).
    pub fn is_empty(&self) -> bool {
        self.skyline.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_dominators_extracts_fixed_points() {
        let r = SkylineResult::from_dominators(vec![0, 0, 2, 2], None, SkylineStats::default());
        assert_eq!(r.skyline, vec![0, 2]);
        assert!(r.contains(0));
        assert!(!r.contains(1));
        assert_eq!(r.membership_mask(), vec![true, false, true, false]);
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        assert_eq!(r.completion, Completion::Complete);
    }

    #[test]
    fn partial_reports_only_verified_vertices() {
        // Vertex 2 is a fixed point of the dominator array but was not
        // verified before the (simulated) trip, so it is excluded.
        let r = SkylineResult::partial(
            vec![0],
            vec![0, 0, 2, 2],
            None,
            SkylineStats::default(),
            Completion::DeadlineExceeded,
        );
        assert_eq!(r.skyline, vec![0]);
        assert!(r.contains(2), "mask over-approximates on partial results");
        assert_eq!(r.completion, Completion::DeadlineExceeded);
    }

    #[test]
    fn empty_result() {
        let r = SkylineResult::from_dominators(Vec::new(), None, SkylineStats::default());
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
    }
}
