//! Regenerates every table and figure in sequence (EXPERIMENTS.md data).
//!
//! Honors `NSKY_QUICK=1` for smoke runs.

use nsky_bench::harness::time;

fn banner(name: &str) {
    println!();
    println!("==================== {name} ====================");
}

fn main() {
    let total = time(|| {
        for (name, bin) in [
            ("table1", run_table1 as fn()),
            ("fig2", run_fig2),
            ("fig3+fig4", run_fig3_4),
            ("fig5", run_fig5),
            ("fig6", run_fig6),
            ("fig7", run_fig7),
            ("fig8", run_fig8),
            ("fig9", run_fig9),
            ("fig10", run_fig10),
            ("fig11", run_fig11),
            ("fig12", run_fig12),
            ("table2", run_table2),
            ("fig13", run_fig13),
        ] {
            banner(name);
            let t = time(bin);
            println!("[{name} done in {:.1}s]", t.seconds);
        }
    });
    println!();
    println!("All experiments regenerated in {:.1}s", total.seconds);
}

use nsky_bench::figures as f;
use nsky_bench::harness::{fmt_bytes, fmt_secs, quick_mode};

fn run_table1() {
    for r in f::table1() {
        println!(
            "{:<11} orig (n={}, m={}, dmax={}) -> standin (n={}, m={}, dmax={})",
            r.name, r.original.0, r.original.1, r.original.2, r.standin.0, r.standin.1, r.standin.2
        );
    }
}

fn run_fig2() {
    for r in f::fig2() {
        println!(
            "{:<12} n={:<3} |R|={:<3} |C|={:<3} expected={}",
            r.family, r.n, r.skyline, r.candidates, r.expected
        );
    }
}

fn run_fig3_4() {
    for r in f::fig3(quick_mode()) {
        println!(
            "{:<11} time: LC={} Base={} 2Hop={} CSet={} FRSky={} | mem: LC={} Base={} 2Hop={} CSet={} FRSky={}",
            r.dataset,
            fmt_secs(r.secs_lc_join),
            fmt_secs(r.secs_base),
            fmt_secs(r.secs_two_hop),
            fmt_secs(r.secs_cset),
            fmt_secs(r.secs_refine),
            fmt_bytes(r.mem_lc_join),
            fmt_bytes(r.mem_base),
            fmt_bytes(r.mem_two_hop),
            fmt_bytes(r.mem_cset),
            fmt_bytes(r.mem_refine),
        );
    }
}

fn run_fig5() {
    for r in f::fig5(quick_mode()) {
        println!(
            "{:<11} |R|={:<7} |C|={:<7} |V|={}",
            r.dataset, r.skyline, r.candidates, r.n
        );
    }
}

fn run_fig6() {
    for r in f::fig6_er(quick_mode()) {
        println!(
            "ER Δp={:<4} |R|={:<7} |C|={:<7} |V|={}",
            r.parameter, r.skyline, r.candidates, r.total
        );
    }
    for r in f::fig6_pl(quick_mode()) {
        println!(
            "PL β={:<4} |R|={:<7} |C|={:<7} |V|={}",
            r.parameter, r.skyline, r.candidates, r.total
        );
    }
}

fn run_fig7() {
    for r in f::fig7(quick_mode()) {
        println!(
            "{:<11} k={:<3} Greedy++={} NeiSkyGC={} ({:.2}x), evals {} vs {}, r={}",
            r.dataset,
            r.k,
            fmt_secs(r.secs_base),
            fmt_secs(r.secs_neisky),
            r.secs_base / r.secs_neisky,
            r.evals_base,
            r.evals_neisky,
            r.skyline_size
        );
    }
}

fn run_fig8() {
    for r in f::fig8(quick_mode()) {
        println!(
            "{:<11} k={:<3} Greedy-H={} NeiSkyGH={} ({:.2}x), evals {} vs {}, r={}",
            r.dataset,
            r.k,
            fmt_secs(r.secs_base),
            fmt_secs(r.secs_neisky),
            r.secs_base / r.secs_neisky,
            r.evals_base,
            r.evals_neisky,
            r.skyline_size
        );
    }
}

fn run_fig9() {
    for r in f::fig9(quick_mode()) {
        println!(
            "{:<8} k={:<2} Base={} NeiSky={} ({:.2}x) sizes={:?}",
            r.dataset,
            r.k,
            fmt_secs(r.secs_base),
            fmt_secs(r.secs_neisky),
            r.secs_base / r.secs_neisky,
            r.sizes_neisky
        );
    }
}

fn run_fig10() {
    for r in f::fig10(quick_mode()) {
        println!(
            "{:?} {:>3.0}% BaseSky={} FRSky={} ({:.1}x)",
            r.axis,
            r.fraction * 100.0,
            fmt_secs(r.secs_base),
            fmt_secs(r.secs_fast),
            r.secs_base / r.secs_fast
        );
    }
}

fn run_fig11() {
    for r in f::fig11(quick_mode()) {
        println!(
            "{:?} {:>3.0}% Greedy++={} NeiSkyGC={} ({:.2}x)",
            r.axis,
            r.fraction * 100.0,
            fmt_secs(r.secs_base),
            fmt_secs(r.secs_fast),
            r.secs_base / r.secs_fast
        );
    }
}

fn run_fig12() {
    for r in f::fig12(quick_mode()) {
        println!(
            "{:?} {:>3.0}% Greedy-H={} NeiSkyGH={} ({:.2}x)",
            r.axis,
            r.fraction * 100.0,
            fmt_secs(r.secs_base),
            fmt_secs(r.secs_fast),
            r.secs_base / r.secs_fast
        );
    }
}

fn run_table2() {
    for r in f::table2(quick_mode()) {
        println!(
            "{:?} {:>3.0}% MC-BRB={} NeiSkyMC={} search={} ω={}",
            r.axis,
            r.fraction * 100.0,
            fmt_secs(r.secs_mcbrb),
            fmt_secs(r.secs_neisky),
            fmt_secs(r.secs_neisky_search),
            r.omega
        );
    }
}

fn run_fig13() {
    for r in f::fig13() {
        println!(
            "{:<8} skyline {}/{} ({:.0}%, paper {:.0}%)",
            r.network,
            r.skyline.len(),
            r.n,
            100.0 * r.skyline.len() as f64 / r.n as f64,
            100.0 * r.paper_fraction
        );
    }
}
