//! Prints Table II: MC-BRB vs NeiSkyMC scalability (vary n, ρ), with
//! NeiSkyMC both end to end and search only (its prepared input built
//! outside the timer).

use nsky_bench::figures::Axis;
use nsky_bench::harness::{fmt_secs, quick_mode};

fn main() {
    println!("Table II — maximum clique scalability on LiveJournal stand-in");
    println!(
        "{:<5} {:>5} | {:>10} {:>10} {:>10} {:>4}",
        "axis", "frac", "MC-BRB", "NeiSkyMC", "search", "ω"
    );
    for r in nsky_bench::figures::table2(quick_mode()) {
        println!(
            "{:<5} {:>4.0}% | {:>10} {:>10} {:>10} {:>4}",
            if r.axis == Axis::N { "n" } else { "rho" },
            r.fraction * 100.0,
            fmt_secs(r.secs_mcbrb),
            fmt_secs(r.secs_neisky),
            fmt_secs(r.secs_neisky_search),
            r.omega,
        );
    }
}
