//! Fig. 10–12 and Table II — scalability on the LiveJournal stand-in,
//! varying the vertex fraction `n` and the edge-density fraction `ρ`.

use crate::harness::time;
use nsky_centrality::greedy::{greedy_group, GreedyOptions};
use nsky_centrality::measure::{Closeness, GroupMeasure, Harmonic};
use nsky_centrality::neisky::nei_sky_group;
use nsky_clique::{mc_brb, nei_sky_mc, nei_sky_mc_with, NeiSkyMcInput};
use nsky_datasets::scalability_dataset;
use nsky_graph::ops::{sample_edges, sample_vertices};
use nsky_graph::Graph;
use nsky_skyline::{base_sky, filter_refine_sky, ExecutionContext, RefineConfig};

/// Which parameter a scalability row varies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Axis {
    /// Vertex-sampling fraction.
    N,
    /// Edge-sampling fraction (density ρ).
    Rho,
}

/// One scalability point.
#[derive(Clone, Debug)]
pub struct ScalabilityRow {
    /// Varied axis.
    pub axis: Axis,
    /// Fraction kept (0.2 … 1.0).
    pub fraction: f64,
    /// Baseline seconds.
    pub secs_base: f64,
    /// Improved-algorithm seconds.
    pub secs_fast: f64,
}

const FRACTIONS: [f64; 5] = [0.2, 0.4, 0.6, 0.8, 1.0];

fn subgraphs(base: &Graph, quick: bool) -> Vec<(Axis, f64, Graph)> {
    let fr: &[f64] = if quick { &FRACTIONS[3..] } else { &FRACTIONS };
    let mut out = Vec::new();
    for &f in fr {
        out.push((Axis::N, f, sample_vertices(base, f, 11).0));
        out.push((Axis::Rho, f, sample_edges(base, f, 12)));
    }
    out
}

fn livejournal(quick: bool, target_n: usize) -> Graph {
    let mut spec = scalability_dataset("LiveJournal").expect("registered dataset");
    spec.n = if quick { target_n / 4 } else { target_n };
    spec.build()
}

/// Fig. 10: `BaseSky` vs `FilterRefineSky` while varying `n` and `ρ`.
pub fn fig10(quick: bool) -> Vec<ScalabilityRow> {
    let g = livejournal(quick, 20_000);
    subgraphs(&g, quick)
        .into_iter()
        .map(|(axis, fraction, sub)| {
            let base = time(|| base_sky(&sub));
            let fast = time(|| filter_refine_sky(&sub, &RefineConfig::default()));
            assert_eq!(base.value.skyline, fast.value.skyline);
            ScalabilityRow {
                axis,
                fraction,
                secs_base: base.seconds,
                secs_fast: fast.seconds,
            }
        })
        .collect()
}

fn centrality_scalability<M: GroupMeasure>(measure: M, quick: bool) -> Vec<ScalabilityRow> {
    let k = 10;
    let g = livejournal(quick, 6_000);
    subgraphs(&g, quick)
        .into_iter()
        .map(|(axis, fraction, sub)| {
            let base = time(|| greedy_group(&sub, measure, k, &GreedyOptions::optimized()));
            let fast = time(|| nei_sky_group(&sub, measure, k, true));
            ScalabilityRow {
                axis,
                fraction,
                secs_base: base.seconds,
                secs_fast: fast.seconds,
            }
        })
        .collect()
}

/// Fig. 11: `Greedy++` vs `NeiSkyGC` scalability.
pub fn fig11(quick: bool) -> Vec<ScalabilityRow> {
    centrality_scalability(Closeness, quick)
}

/// Fig. 12: `Greedy-H` vs `NeiSkyGH` scalability.
pub fn fig12(quick: bool) -> Vec<ScalabilityRow> {
    centrality_scalability(Harmonic, quick)
}

/// One Table II row: `MC-BRB` vs `NeiSkyMC` runtimes.
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// Varied axis.
    pub axis: Axis,
    /// Fraction kept.
    pub fraction: f64,
    /// `MC-BRB` seconds.
    pub secs_mcbrb: f64,
    /// `NeiSkyMC` seconds (includes skyline computation).
    pub secs_neisky: f64,
    /// `NeiSkyMC` search seconds: the prepared input (skyline, core
    /// order, heuristic floor) is built outside the timer, as a server
    /// builds it once per graph version.
    pub secs_neisky_search: f64,
    /// Maximum clique size found (agreement asserted).
    pub omega: usize,
}

/// Table II: maximum-clique scalability on the LiveJournal stand-in.
pub fn table2(quick: bool) -> Vec<Table2Row> {
    let g = livejournal(quick, 8_000);
    subgraphs(&g, quick)
        .into_iter()
        .map(|(axis, fraction, sub)| {
            let base = time(|| mc_brb(&sub));
            let fast = time(|| nei_sky_mc(&sub));
            let input = NeiSkyMcInput::new(
                &sub,
                &filter_refine_sky(&sub, &RefineConfig::default()).skyline,
            );
            let search = time(|| nei_sky_mc_with(&sub, &input, &mut ExecutionContext::new()));
            assert_eq!(base.value.0.len(), fast.value.clique.len());
            assert_eq!(fast.value.clique, search.value.outcome.clique);
            Table2Row {
                axis,
                fraction,
                secs_mcbrb: base.seconds,
                secs_neisky: fast.seconds,
                secs_neisky_search: search.seconds,
                omega: base.value.0.len(),
            }
        })
        .collect()
}
