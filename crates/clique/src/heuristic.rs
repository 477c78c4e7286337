//! Degeneracy-guided greedy lower bound (the near-linear heuristic stage
//! of MC-BRB-style solvers).

use nsky_graph::{Graph, VertexId};

/// Greedy clique grown from `start`: scans `start`'s neighbors in
/// descending core number and adds each vertex adjacent to everything
/// collected so far.
fn grow_from(g: &Graph, core: &[u32], start: VertexId) -> Vec<VertexId> {
    let mut clique = vec![start];
    let mut nbrs: Vec<VertexId> = g.neighbors(start).to_vec();
    nbrs.sort_by_key(|&v| std::cmp::Reverse(core[v as usize]));
    for v in nbrs {
        if clique.iter().all(|&c| g.has_edge(v, c)) {
            clique.push(v);
        }
    }
    clique.sort_unstable();
    clique
}

/// A fast heuristic clique: greedy growth from the `tries`
/// highest-core-number vertices, keeping the best. `core` holds every
/// vertex's core number (`core_decomposition(g).core`): the exact
/// solvers pass the decomposition they already computed. Runs in
/// roughly `O(tries · dmax²·log dmax + n log n)` and provides their
/// initial lower bound.
///
/// # Examples
///
/// ```
/// use nsky_graph::degeneracy::core_decomposition;
/// use nsky_graph::generators::special::clique;
/// use nsky_clique::heuristic_clique;
///
/// // On a clique the heuristic is already exact.
/// let g = clique(7);
/// assert_eq!(heuristic_clique(&g, &core_decomposition(&g).core, 4).len(), 7);
/// ```
pub fn heuristic_clique(g: &Graph, core: &[u32], tries: usize) -> Vec<VertexId> {
    if g.num_vertices() == 0 {
        return Vec::new();
    }
    let mut starts: Vec<VertexId> = g.vertices().collect();
    starts.sort_by_key(|&u| std::cmp::Reverse(core[u as usize]));
    let mut best: Vec<VertexId> = Vec::new();
    for &s in starts.iter().take(tries.max(1)) {
        if (core[s as usize] + 1) as usize <= best.len() {
            break; // sorted by core: nothing further can beat best
        }
        let c = grow_from(g, core, s);
        if c.len() > best.len() {
            best = c;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::is_clique;
    use nsky_graph::degeneracy::core_decomposition;
    use nsky_graph::generators::erdos_renyi;
    use nsky_graph::generators::special::{cycle, path, star};

    fn heuristic(g: &Graph, tries: usize) -> Vec<VertexId> {
        heuristic_clique(g, &core_decomposition(g).core, tries)
    }

    #[test]
    fn returns_valid_cliques() {
        for seed in 0..6 {
            let g = erdos_renyi(100, 0.1, seed);
            let c = heuristic(&g, 8);
            assert!(!c.is_empty());
            assert!(is_clique(&g, &c), "seed {seed}: {c:?}");
        }
    }

    #[test]
    fn special_families() {
        assert_eq!(heuristic(&path(6), 3).len(), 2);
        assert_eq!(heuristic(&cycle(6), 3).len(), 2);
        assert_eq!(heuristic(&star(6), 3).len(), 2);
        assert!(heuristic(&Graph::empty(0), 3).is_empty());
        assert_eq!(heuristic(&Graph::empty(4), 3).len(), 1);
    }

    #[test]
    fn finds_planted_clique() {
        // A 6-clique planted in a sparse cycle.
        let mut edges: Vec<(VertexId, VertexId)> = (0..30u32).map(|u| (u, (u + 1) % 30)).collect();
        for u in 10..16u32 {
            for v in (u + 1)..16 {
                edges.push((u, v));
            }
        }
        let g = Graph::from_edges(30, edges);
        assert_eq!(heuristic(&g, 8).len(), 6);
    }
}
