//! Cross-crate application correctness: skyline pruning must never
//! change results — only how much work finding them takes.

use nsky_centrality::greedy::{greedy_group, GreedyOptions};
use nsky_centrality::group::group_score;
use nsky_centrality::measure::{Closeness, Decay, Harmonic};
use nsky_centrality::neisky::{nei_sky_gc, nei_sky_gh, nei_sky_group};
use nsky_clique::{is_clique, max_clique_bnb, mc_brb, nei_sky_mc, top_k_cliques, TopkMode};
use nsky_graph::generators::{affiliation_model, erdos_renyi, leafy_preferential};
use nsky_graph::ops::induced_subgraph;
use nsky_graph::VertexId;

#[test]
fn group_centrality_pruning_preserves_scores() {
    for seed in 0..3 {
        let g = leafy_preferential(600, 0.9, 1.0, 6, seed);
        for k in [1usize, 5, 12] {
            let base_gc = greedy_group(&g, Closeness, k, &GreedyOptions::optimized());
            let nei_gc = nei_sky_gc(&g, k);
            assert!(
                nei_gc.greedy.score >= base_gc.score - 1e-9,
                "GCM seed {seed} k {k}: {} < {}",
                nei_gc.greedy.score,
                base_gc.score
            );
            let base_gh = greedy_group(&g, Harmonic, k, &GreedyOptions::optimized());
            let nei_gh = nei_sky_gh(&g, k);
            assert!(
                nei_gh.greedy.score >= base_gh.score - 1e-9,
                "GHM {seed}/{k}"
            );
        }
    }
}

#[test]
fn decay_measure_prunes_safely_too() {
    // The Sec. IV-D claim: any shortest-path group measure works.
    let g = leafy_preferential(400, 0.9, 1.0, 6, 9);
    let m = Decay::new(0.5);
    let base = greedy_group(&g, m, 6, &GreedyOptions::optimized());
    let nei = nei_sky_group(&g, m, 6, true);
    assert!(nei.greedy.score >= base.score - 1e-9);
    // Scores are genuine (re-evaluated from scratch).
    let check = group_score(&g, m, &nei.greedy.group);
    assert!((check - nei.greedy.score).abs() < 1e-9);
}

#[test]
fn clique_solvers_agree_everywhere() {
    for seed in 0..4 {
        let g = affiliation_model(400, 4, 8, 0.6, seed);
        let (bnb, _) = max_clique_bnb(&g);
        let (brb, _) = mc_brb(&g);
        let nei = nei_sky_mc(&g);
        assert_eq!(bnb.len(), brb.len(), "seed {seed}");
        assert_eq!(bnb.len(), nei.clique.len(), "seed {seed}");
        assert!(is_clique(&g, &nei.clique));
    }
    for seed in 0..4 {
        let g = erdos_renyi(80, 0.2, seed);
        assert_eq!(mc_brb(&g).0.len(), nei_sky_mc(&g).clique.len());
    }
}

#[test]
fn topk_rounds_are_exact_for_both_modes() {
    let g = affiliation_model(250, 4, 7, 0.6, 11);
    for mode in [TopkMode::Base, TopkMode::NeiSky] {
        let out = top_k_cliques(&g, 5, mode);
        let mut removed: Vec<VertexId> = Vec::new();
        for (round, c) in out.cliques.iter().enumerate() {
            let keep: Vec<VertexId> = g.vertices().filter(|u| !removed.contains(u)).collect();
            let (sub, _) = induced_subgraph(&g, &keep);
            let (exact, _) = mc_brb(&sub);
            assert_eq!(
                c.len(),
                exact.len(),
                "{mode:?} round {round} not the residual maximum"
            );
            assert!(is_clique(&g, c));
            removed.push(out.seeds[round]);
        }
    }
}

#[test]
fn skyline_members_lead_greedy_groups() {
    // The first pick of the unrestricted greedy is always achievable by
    // a skyline vertex (Lemma 3/4 via swaps): restricted round-1 score
    // matches unrestricted round-1 score.
    for seed in 0..4 {
        let g = leafy_preferential(500, 0.92, 1.2, 6, seed + 50);
        let base = greedy_group(&g, Harmonic, 1, &GreedyOptions::default());
        let nei = nei_sky_group(&g, Harmonic, 1, false);
        assert!(
            (base.score - nei.greedy.score).abs() < 1e-9,
            "seed {}: round-1 scores must match exactly ({} vs {})",
            seed + 50,
            base.score,
            nei.greedy.score
        );
    }
}

#[test]
fn notredame_group_answers_are_pinned() {
    // The serving benchmark's `group` request (NeiSkyGC, k = 4) on the
    // Notredame stand-in. The benchmark's oracle recomputes group
    // answers with the same kernel, so only pinned values catch drift
    // in the selected group or in the bits of its score.
    let g = nsky_datasets::paper_datasets()
        .into_iter()
        .find(|spec| spec.name == "Notredame")
        .expect("Notredame is a paper dataset")
        .build();
    // Plain greedy over r = 694 skyline vertices: k(2r − k + 1)/2.
    for (lazy, evaluations) in [(true, 1_389), (false, 2_770)] {
        let gc = nei_sky_group(&g, Closeness, 4, lazy).greedy;
        assert_eq!(gc.group, [0, 3, 1, 2], "closeness lazy={lazy}");
        assert_eq!(gc.score.to_bits(), 0x3fea_7232_4710_6f35, "lazy={lazy}");
        assert_eq!(gc.gain_evaluations, evaluations, "closeness lazy={lazy}");
        let gh = nei_sky_group(&g, Harmonic, 4, lazy).greedy;
        assert_eq!(gh.group, [0, 3, 1, 2], "harmonic lazy={lazy}");
        assert_eq!(gh.score.to_bits(), 0x40a6_ba00_0000_0000, "lazy={lazy}");
        assert_eq!(gh.gain_evaluations, evaluations, "harmonic lazy={lazy}");
    }
}
