//! Cross-crate application correctness: skyline pruning must never
//! change results — only how much work finding them takes.

use nsky_centrality::greedy::{greedy_group, GreedyOptions};
use nsky_centrality::group::group_score;
use nsky_centrality::measure::{Closeness, Decay, GroupMeasure, Harmonic};
use nsky_centrality::neisky::{
    nei_sky_gc, nei_sky_gh, nei_sky_group, nei_sky_group_with, NeiSkyGroupInput,
};
use nsky_clique::{
    is_clique, max_clique_bnb, mc_brb, nei_sky_mc, nei_sky_mc_with, top_k_cliques, CliqueStats,
    NeiSkyMcInput, TopkMode,
};
use nsky_graph::generators::{
    affiliation_model, chung_lu_power_law, erdos_renyi, leafy_preferential,
};
use nsky_graph::ops::induced_subgraph;
use nsky_graph::{Graph, VertexId};
use nsky_skyline::{
    base_sky, filter_refine_sky, filter_refine_sky_par, ExecutionContext, RefineConfig,
    SkylineResult, SkylineStats,
};

fn notredame() -> Graph {
    nsky_datasets::paper_datasets()
        .into_iter()
        .find(|spec| spec.name == "Notredame")
        .expect("Notredame is a paper dataset")
        .build()
}

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

#[test]
fn notredame_clique_answer_is_pinned() {
    // The serving benchmark's `clique` request on the Notredame stand-in:
    // the heuristic floor already has ω, so the core bound prunes every
    // one of the 694 skyline seeds and no root search runs.
    let out = nei_sky_mc(&notredame());
    assert_eq!(out.clique, [0, 1, 2, 3, 272]);
    assert_eq!(out.skyline_size, 694);
    let stats = CliqueStats {
        skyline_prunes: 694,
        ..CliqueStats::default()
    };
    assert_eq!(out.stats, stats);
}

/// A prepared NeiSkyGC/NeiSkyGH input against the from-scratch engine,
/// which scores the same skyline pool with its own seeding BFS: same
/// group, score and score-trace bits, evaluation and lazy-skip counts,
/// for both engines and k ∈ {1, 4, 10}, with the input reused across
/// runs as a server reuses it.
fn assert_prepared_group_matches_scratch<M: GroupMeasure>(label: &str, g: &Graph, measure: M) {
    let input = NeiSkyGroupInput::build(g, measure, None, &ExecutionContext::new())
        .expect("an unlimited build completes");
    for lazy in [true, false] {
        for k in [1, 4, 10] {
            let opts = GreedyOptions {
                lazy,
                pruned_bfs: lazy,
                candidates: Some(input.pool().to_vec()),
            };
            let scratch = greedy_group(g, measure, k, &opts);
            let prepared = nei_sky_group_with(g, &input, k, lazy, &mut ExecutionContext::new())
                .outcome
                .greedy;
            let at = format!("{label} {} lazy={lazy} k={k}", M::NAME);
            assert_eq!(prepared.group, scratch.group, "{at}");
            assert_eq!(prepared.score.to_bits(), scratch.score.to_bits(), "{at}");
            let bits = |trace: &[f64]| trace.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&prepared.score_trace),
                bits(&scratch.score_trace),
                "{at}"
            );
            assert_eq!(prepared.gain_evaluations, scratch.gain_evaluations, "{at}");
            assert_eq!(prepared.lazy_skips, scratch.lazy_skips, "{at}");
            assert_eq!(prepared.completion, scratch.completion, "{at}");
        }
    }
}

/// A prepared NeiSkyMC input, built from another exact skyline source
/// and reused across runs, against a fresh build per run.
fn assert_prepared_clique_matches_fresh(label: &str, g: &Graph) {
    let fresh = nei_sky_mc(g);
    let input = NeiSkyMcInput::new(g, &base_sky(g).skyline);
    for run in 0..2 {
        let out = nei_sky_mc_with(g, &input, &mut ExecutionContext::new()).outcome;
        assert_eq!(out.clique, fresh.clique, "{label} run {run}");
        assert_eq!(out.stats, fresh.stats, "{label} run {run}");
        assert_eq!(out.skyline_size, fresh.skyline_size, "{label} run {run}");
    }
}

/// The Notredame stand-in and small random graphs.
fn prepared_input_graphs() -> Vec<(String, Graph)> {
    let mut graphs = vec![("notredame".to_string(), notredame())];
    for seed in 0..3 {
        graphs.push((format!("er{seed}"), erdos_renyi(160, 0.02, seed)));
        graphs.push((
            format!("chung-lu{seed}"),
            chung_lu_power_law(300, 2.6, 4.0, seed),
        ));
    }
    graphs
}

#[test]
fn prepared_closeness_inputs_match_from_scratch_runs() {
    for (label, g) in &prepared_input_graphs() {
        assert_prepared_group_matches_scratch(label, g, Closeness);
    }
}

#[test]
fn prepared_harmonic_inputs_match_from_scratch_runs() {
    for (label, g) in &prepared_input_graphs() {
        assert_prepared_group_matches_scratch(label, g, Harmonic);
    }
}

#[test]
fn prepared_decay_inputs_match_from_scratch_runs() {
    for (label, g) in &prepared_input_graphs() {
        assert_prepared_group_matches_scratch(label, g, Decay::new(0.6));
    }
}

#[test]
fn prepared_clique_inputs_match_fresh_builds() {
    for (label, g) in &prepared_input_graphs() {
        assert_prepared_clique_matches_fresh(label, g);
    }
}

/// FNV-1a over a skyline run's dominator array and candidate set: one
/// word that moves if any witness or candidate does.
fn answer_hash(r: &SkylineResult) -> u64 {
    let candidates = r.candidates.as_deref().unwrap_or(&[]);
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for &v in r.dominator.iter().chain(candidates) {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Every refine counter but `peak_bytes`, which measures the kernel's own
/// scratch and so may shrink without any answer changing: pair tests,
/// word rejects, bit rejects, adjacency probes, bloom queries, bloom
/// hits, candidates.
fn counters(s: &SkylineStats) -> [u64; 7] {
    [
        s.pair_tests,
        s.bf_word_rejects,
        s.bf_bit_rejects,
        s.adjacency_probes,
        s.bloom_queries,
        s.bloom_hits,
        u64::try_from(s.candidate_count).expect("candidate count fits u64"),
    ]
}

fn stand_in(name: &str) -> Graph {
    nsky_datasets::scalability_dataset(name)
        .expect("a scalability stand-in")
        .build()
}

/// FilterRefineSky's witnesses and counters, pinned on the serving
/// benchmark's three stand-ins and the two 8k micro-bench graphs: the
/// answer hash and counters under the default config, the same under
/// `paper_faithful()` (skipped on the two largest graphs, where that
/// config scans every neighbor's list and takes half a second even in
/// release), and the parallel kernel's answer hash. A change to the
/// refine scan that moves any witness or counter fails here.
#[test]
fn refine_witnesses_and_counters_are_pinned() {
    type Pin = (u64, [u64; 7]);
    #[rustfmt::skip]
    let cases: [(&str, Graph, Pin, Option<Pin>); 5] = [
        (
            "LiveJournal", stand_in("LiveJournal"),
            (0x88c2_6887_e92e_f5b1, [14_580, 4, 13_629, 70_346, 34_861, 21_228, 7_006]),
            None,
        ),
        (
            "Pokec", stand_in("Pokec"),
            (0xf741_ef62_b595_428d, [1_742, 13, 934, 33_939, 9_672, 8_725, 1_050]),
            None,
        ),
        (
            "Notredame", notredame(),
            (0x5580_2f4b_e925_7849, [885, 0, 846, 6_533, 2_355, 1_509, 697]),
            Some((0x5580_2f4b_e925_7849, [168_584, 371, 166_222, 43_759, 205_328, 38_735, 697])),
        ),
        (
            "leafy-8k", leafy_preferential(8_000, 0.95, 1.5, 5, 42),
            (0x0d6a_219f_8614_e3e4, [891, 0, 737, 11_641, 2_556, 1_819, 983]),
            Some((0x0d6a_219f_8614_e3e4, [423_937, 93, 420_602, 48_207, 459_080, 38_385, 983])),
        ),
        (
            "affiliation-8k", affiliation_model(8_000, 4, 8, 0.7, 42),
            (0xf940_84ea_616e_b5c3, [1_686, 3, 1_493, 17_157, 6_364, 4_868, 1_245]),
            Some((0xf940_84ea_616e_b5c3, [591_795, 5_699, 575_950, 332_177, 901_537, 319_888, 1_245])),
        ),
    ];
    for (name, g, default_pin, faithful_pin) in &cases {
        let out = filter_refine_sky(g, &RefineConfig::default());
        let got = (answer_hash(&out), counters(&out.stats));
        assert_eq!(got, *default_pin, "{name}: default config");
        if let Some(pin) = faithful_pin {
            let out = filter_refine_sky(g, &RefineConfig::paper_faithful());
            let got = (answer_hash(&out), counters(&out.stats));
            assert_eq!(got, *pin, "{name}: paper-faithful config");
        }
        let par = filter_refine_sky_par(g, &RefineConfig::default(), 2);
        assert_eq!(answer_hash(&par), default_pin.0, "{name}: parallel kernel");
    }
}
