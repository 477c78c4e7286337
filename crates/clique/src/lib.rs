//! # nsky-clique
//!
//! Maximum-clique computation with neighborhood-skyline pruning
//! (paper Sec. IV-C).
//!
//! * [`bnb`] — the branch-and-bound core with greedy-coloring upper
//!   bounds (the Tomita-family kernel all exact solvers share);
//! * [`heuristic`] — degeneracy-guided greedy lower bound;
//! * [`mcbrb`] — the `MC-BRB`-style exact solver: heuristic lower bound,
//!   core-number reduction, degeneracy-ordered ego-subgraph search;
//! * [`neisky`] — `NeiSkyMC` (paper Algorithm 5): root branches
//!   restricted to skyline vertices, justified by Lemma 5 (every graph
//!   has a maximum clique containing a skyline vertex: a dominated
//!   member can be swapped for its dominator);
//! * [`topk`] — round-based top-k maximum cliques (`BaseTopkMCC` /
//!   `NeiSkyTopkMCC` with incremental skyline maintenance);
//! * [`mis`] — the introduction's first application of neighborhood
//!   inclusion: independent-set reducing–peeling with the domination
//!   deletion rule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bnb;
pub mod heuristic;
pub mod mcbrb;
pub mod mis;
pub mod neisky;
pub mod topk;

pub use bnb::{max_clique_bnb, max_clique_bnb_with, max_clique_containing, CliqueRun, CliqueStats};
pub use heuristic::heuristic_clique;
pub use mcbrb::{mc_brb, mc_brb_with};
pub use neisky::{nei_sky_mc, nei_sky_mc_with};
pub use topk::{top_k_cliques, top_k_cliques_with, TopkMode, TopkOutcome};

use nsky_graph::{Graph, VertexId};

/// Whether `clique` is a clique of `g` (every pair adjacent, no
/// duplicates). Exposed for tests and downstream assertions.
pub fn is_clique(g: &Graph, clique: &[VertexId]) -> bool {
    for (i, &u) in clique.iter().enumerate() {
        for &v in &clique[i + 1..] {
            if u == v || !g.has_edge(u, v) {
                return false;
            }
        }
    }
    true
}
