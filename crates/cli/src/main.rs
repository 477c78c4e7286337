//! `nsky` — command-line interface to the neighborhood-skyline library.
//!
//! ```text
//! nsky stats    <edge-list>
//! nsky skyline  <edge-list> [--algorithm refine|base|par|cset|2hop|lcjoin|approx]
//!                           [--threads T] [--epsilon E] [-o out.txt]
//! nsky group    <edge-list> -k K [--measure closeness|harmonic|betweenness]
//!                           [--no-prune]
//! nsky clique   <edge-list> [--top K] [--no-prune]
//! nsky mis      <edge-list>
//! nsky update   <edge-list> <delta-file> [-o out.txt]
//! nsky generate <family> --n N [--seed S] [-o out.txt]
//!     families: er, powerlaw, ba, leafy, affiliation, copying, threshold,
//!               karate, bombing
//! nsky serve    <edge-list> [--addr HOST:PORT] [--workers N] [--queue N]
//!                           [--request-timeout SECS] [--read-timeout SECS]
//! ```
//!
//! Edge lists are whitespace-separated `u v` lines; `#`/`%` comments are
//! skipped (SNAP/KONECT conventions); `--max-vertex-id` bounds the
//! allocation a corrupt id can force.
//!
//! The `skyline` (refine/base/par), `clique` and `group`
//! (closeness/harmonic) commands accept execution-budget flags
//! (`--timeout`, `--memory-budget`, `--trip-after`, `--check-interval`).
//! A tripped run prints its best-so-far partial answer plus a
//! `status = ...` line and exits with code 3 instead of 0. The same
//! commands accept `--metrics <path>`, which writes a versioned,
//! checksummed JSON run report (kernel id, graph fingerprint, phase
//! timeline, counter table, budget/checkpoint events) for machine
//! consumption; see `nsky_skyline::obs::RunReport`.

mod args;
mod commands;

use commands::{CliError, CmdOut};
use std::process::ExitCode;

/// Exit code for a malformed or unreadable input file: the command line
/// was understood, but the data could not be loaded (or written).
const EXIT_INPUT_ERROR: u8 = 2;

/// Exit code for a run whose budget tripped (`--timeout`,
/// `--memory-budget`, cancellation or fault injection): the printed
/// result is a valid partial answer, but completeness was forfeited.
const EXIT_BUDGET_EXCEEDED: u8 = 3;

/// Exit code for a `--resume` whose checkpoint was unusable (missing,
/// torn, corrupt, or from a different graph or kernel): the run degraded
/// to a clean fresh start and its printed answer is valid, but no saved
/// progress was reused. Overrides codes 0 and 3.
const EXIT_CHECKPOINT_UNUSABLE: u8 = 4;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match run(&raw) {
        Ok(out) => {
            print!("{}", out.text);
            for w in &out.warnings {
                eprintln!("nsky: warning: {w}");
            }
            if out.degraded {
                ExitCode::from(EXIT_CHECKPOINT_UNUSABLE)
            } else if out.completion.is_complete() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(EXIT_BUDGET_EXCEEDED)
            }
        }
        Err(CliError::Usage(msg)) => {
            eprintln!("nsky: {msg}");
            eprintln!("run `nsky --help` for usage");
            ExitCode::FAILURE
        }
        Err(CliError::Input(msg)) => {
            eprintln!("nsky: {msg}");
            ExitCode::from(EXIT_INPUT_ERROR)
        }
    }
}

/// Dispatches a raw command line and returns the command's output
/// (separated from `main` so tests can drive it). A non-`Complete`
/// status maps to [`EXIT_BUDGET_EXCEEDED`]; a degraded resume maps to
/// [`EXIT_CHECKPOINT_UNUSABLE`].
pub(crate) fn run(raw: &[String]) -> Result<CmdOut, CliError> {
    let parsed = args::parse(raw).map_err(CliError::Usage)?;
    if parsed.switch("help") || parsed.positionals.is_empty() {
        return Ok(CmdOut::complete(HELP.to_string()));
    }
    let complete = |r: Result<String, CliError>| r.map(CmdOut::complete);
    let command = parsed.positionals[0].as_str();
    match command {
        "stats" => complete(commands::stats(&parsed)),
        "skyline" => commands::skyline(&parsed),
        "group" => commands::group(&parsed),
        "clique" => commands::clique(&parsed),
        "mis" => complete(commands::mis(&parsed)),
        "update" => commands::update(&parsed),
        "generate" => complete(commands::generate(&parsed)),
        "serve" => complete(commands::serve(&parsed)),
        other => Err(CliError::Usage(format!("unknown command {other:?}"))),
    }
}

const HELP: &str = "\
nsky — neighborhood skylines on graphs (ICDE 2023 reproduction)

USAGE:
  nsky stats    <edge-list>
  nsky skyline  <edge-list> [--algorithm refine|base|par|cset|2hop|lcjoin|approx]
                            [--threads T] [--epsilon E] [-o out.txt]
  nsky group    <edge-list> -k K [--measure closeness|harmonic|betweenness]
                            [--no-prune]
  nsky clique   <edge-list> [--top K] [--no-prune]
  nsky mis      <edge-list>
  nsky generate <family> --n N [--seed S] [-o out.txt]
                families: er powerlaw ba leafy affiliation copying
                          threshold karate bombing
  nsky update   <edge-list> <delta-file> [-o out.txt]
                applies an edge-delta stream (`+ u v` / `- u v` lines)
                with incremental skyline maintenance; accepts all
                BUDGET / CHECKPOINTING / METRICS flags — a tripped run
                prints the exact skyline of the committed delta prefix
  nsky serve    <edge-list> [--addr HOST:PORT] [--workers N] [--queue N]
                            [--request-timeout SECS] [--read-timeout SECS]
                newline-delimited JSON query daemon; blocks until a
                client sends {\"op\":\"shutdown\"}, then drains and
                prints the final counters (see DESIGN.md §7 Serving)

BUDGET (skyline refine|base|par, clique, group closeness|harmonic,
        update):
  --timeout SECS        stop after a wall-clock deadline
  --memory-budget MB    approximate cap on kernel working memory
  --trip-after N        fault injection: trip on the N-th budget poll
  --check-interval T    ticks between budget polls (default 8192)
  A tripped run prints a `status = ...` line naming the flag that
  tripped, returns the best answer verified before the trip, and exits
  with code 3.

CHECKPOINTING (same commands as BUDGET):
  --checkpoint PATH     periodically save resumable state to PATH
                        (atomic single-file snapshots); a tripped run
                        also saves its final state, a completed run
                        removes the file
  --checkpoint-interval N
                        budget polls between checkpoints (default 1024)
  --resume              load PATH before running and continue from it;
                        an unusable checkpoint (torn, corrupt, wrong
                        graph or kernel) is discarded with a warning and
                        the run restarts fresh, exiting with code 4

METRICS (same commands as BUDGET):
  --metrics PATH        write a versioned, checksummed JSON run report
                        to PATH: schema version, kernel id, graph
                        fingerprint, phase timeline (load/run spans),
                        counter table, and budget/checkpoint events

LOADING:
  --max-vertex-id ID    reject edge lists with vertex ids above ID
                        (default 2^26 - 1, guards against corrupt input
                        forcing a multi-GB allocation)

EXIT CODES:
  0  run complete
  1  usage error (bad flags or names)
  2  input error (unreadable or malformed files)
  3  budget tripped: printed result is a valid partial answer
  4  --resume checkpoint unusable: run restarted fresh (overrides 0/3)
";

#[cfg(test)]
mod tests {
    use super::run;
    use nsky_skyline::Completion;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    /// `run` for commands that must finish (asserts `Complete`).
    fn ok(v: &[&str]) -> String {
        let out = run(&s(v)).unwrap();
        assert_eq!(out.completion, Completion::Complete, "{}", out.text);
        assert!(!out.degraded, "{}", out.text);
        out.text
    }

    /// `run` for command lines that must be rejected; returns the
    /// error message.
    fn fail(v: &[&str]) -> String {
        run(&s(v)).unwrap_err().to_string()
    }

    /// Writes the karate graph to a fresh edge-list file. Every call
    /// gets its own path (pid plus a sequence number), so tests running
    /// on parallel threads never delete each other's input.
    fn write_karate() -> String {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("nsky-test-{}-{seq}.txt", std::process::id()));
        let g = nsky_datasets::karate();
        let mut buf = Vec::new();
        nsky_graph::io::write_edge_list(&g, &mut buf).unwrap();
        std::fs::write(&path, buf).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn help_and_unknown_command() {
        assert!(ok(&["--help"]).contains("USAGE"));
        assert!(ok(&[]).contains("USAGE"));
        assert!(run(&s(&["frobnicate"])).is_err());
    }

    #[test]
    fn stats_and_skyline_on_karate() {
        let path = write_karate();
        let out = ok(&["stats", &path]);
        assert!(out.contains("n = 34"), "{out}");
        assert!(out.contains("m = 78"), "{out}");
        for algo in ["refine", "base", "par", "cset", "2hop", "lcjoin"] {
            let out = ok(&["skyline", &path, "--algorithm", algo]);
            assert!(out.contains("|R| = 15"), "{algo}: {out}");
        }
        let out = ok(&[
            "skyline",
            &path,
            "--algorithm",
            "approx",
            "--epsilon",
            "0.3",
        ]);
        assert!(out.contains("|R| ="), "{out}");
        let err = fail(&[
            "skyline",
            &path,
            "--algorithm",
            "approx",
            "--epsilon",
            "1.5",
        ]);
        assert!(err.contains("[0, 1)"), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn group_clique_and_mis_on_karate() {
        let path = write_karate();
        let out = ok(&["group", &path, "-k", "3"]);
        assert!(out.contains("group:"), "{out}");
        let out = ok(&["group", &path, "-k", "2", "--measure", "betweenness"]);
        assert!(out.contains("GB"), "{out}");
        let out = ok(&["clique", &path]);
        assert!(out.contains("ω = 5"), "karate maximum clique is 5: {out}");
        let out = ok(&["clique", &path, "--top", "3"]);
        assert!(out.contains("#3"), "{out}");
        let out = ok(&["mis", &path]);
        assert!(out.contains("independent set"), "{out}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn generate_families() {
        for fam in [
            "er",
            "powerlaw",
            "ba",
            "leafy",
            "affiliation",
            "copying",
            "threshold",
        ] {
            let out = ok(&["generate", fam, "--n", "50", "--seed", "7"]);
            assert!(out.contains("n = 50"), "{fam}: {out}");
        }
        assert!(ok(&["generate", "karate"]).contains("n = 34"));
        assert!(run(&s(&["generate", "nosuch"])).is_err());
    }

    #[test]
    fn tripped_budget_reports_status_not_error() {
        let path = write_karate();
        // --trip-after 1 with interval 1: the very first budget poll
        // trips, deterministically, on every budgeted command.
        for cmd in [
            vec!["skyline", &path, "--algorithm", "refine"],
            vec!["skyline", &path, "--algorithm", "base"],
            vec!["skyline", &path, "--algorithm", "par", "--threads", "2"],
            vec!["clique", &path],
            vec!["clique", &path, "--no-prune"],
            vec!["clique", &path, "--top", "2"],
            vec!["group", &path, "-k", "2"],
            vec!["group", &path, "-k", "2", "--no-prune"],
        ] {
            let mut argv = cmd.clone();
            argv.extend_from_slice(&["--trip-after", "1", "--check-interval", "1"]);
            let out = run(&s(&argv)).unwrap();
            assert_eq!(
                out.completion,
                Completion::DeadlineExceeded,
                "{cmd:?}: {}",
                out.text
            );
            assert!(
                out.text.contains("status = DeadlineExceeded"),
                "{cmd:?}: {}",
                out.text
            );
            assert!(
                out.text.contains("tripped by --trip-after 1"),
                "{cmd:?}: {}",
                out.text
            );
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn combined_deadlines_name_the_flag_that_tripped() {
        let path = write_karate();
        // A generous wall clock with a tight fault clock: the fault
        // clock trips first and the status line must say so.
        let out = run(&s(&[
            "skyline",
            &path,
            "--timeout",
            "3600",
            "--trip-after",
            "1",
            "--check-interval",
            "1",
        ]))
        .unwrap();
        assert_eq!(out.completion, Completion::DeadlineExceeded, "{}", out.text);
        assert!(
            out.text.contains("tripped by --trip-after 1"),
            "{}",
            out.text
        );
        // The reverse: an expired wall clock with a lazy fault clock.
        let out = run(&s(&[
            "skyline",
            &path,
            "--timeout",
            "0",
            "--trip-after",
            "999999999",
            "--check-interval",
            "1",
        ]))
        .unwrap();
        assert_eq!(out.completion, Completion::DeadlineExceeded, "{}", out.text);
        assert!(out.text.contains("tripped by --timeout 0"), "{}", out.text);
        // Memory trips name --memory-budget.
        let out = run(&s(&["skyline", &path, "--memory-budget", "0"])).unwrap();
        assert_eq!(out.completion, Completion::MemoryCapped, "{}", out.text);
        assert!(
            out.text.contains("tripped by --memory-budget 0"),
            "{}",
            out.text
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn checkpoint_trip_resume_round_trip() {
        let path = write_karate();
        let ck = std::env::temp_dir().join(format!("nsky-ck-{}.snap", std::process::id()));
        let ck = ck.to_str().unwrap().to_string();
        // Trip mid-run with a checkpoint: the final state lands on disk.
        let out = run(&s(&[
            "skyline",
            &path,
            "--trip-after",
            "40",
            "--check-interval",
            "1",
            "--checkpoint",
            &ck,
        ]))
        .unwrap();
        assert_eq!(out.completion, Completion::DeadlineExceeded, "{}", out.text);
        assert!(out.text.contains("checkpoint = "), "{}", out.text);
        assert!(std::path::Path::new(&ck).exists());
        // Resume without a budget: completes with the full answer and
        // removes the checkpoint file.
        let out = run(&s(&["skyline", &path, "--checkpoint", &ck, "--resume"])).unwrap();
        assert_eq!(out.completion, Completion::Complete, "{}", out.text);
        assert!(!out.degraded, "{}", out.text);
        assert!(out.text.contains("|R| = 15"), "{}", out.text);
        assert!(!std::path::Path::new(&ck).exists(), "stale checkpoint kept");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn unusable_checkpoints_degrade_to_fresh_runs() {
        let path = write_karate();
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        // Missing file.
        let ck = dir.join(format!("nsky-ck-missing-{pid}.snap"));
        let ck_s = ck.to_str().unwrap().to_string();
        let out = run(&s(&["skyline", &path, "--checkpoint", &ck_s, "--resume"])).unwrap();
        assert!(out.degraded, "{}", out.text);
        assert_eq!(out.completion, Completion::Complete);
        assert!(out.text.contains("|R| = 15"), "{}", out.text);
        assert!(!out.warnings.is_empty());
        // Corrupt file.
        let ck = dir.join(format!("nsky-ck-corrupt-{pid}.snap"));
        std::fs::write(&ck, b"definitely not a snapshot").unwrap();
        let ck_s = ck.to_str().unwrap().to_string();
        let out = run(&s(&["skyline", &path, "--checkpoint", &ck_s, "--resume"])).unwrap();
        assert!(out.degraded, "{}", out.text);
        assert!(out.text.contains("|R| = 15"), "{}", out.text);
        // Wrong kernel: a skyline checkpoint offered to the clique
        // solver (rejected by the resume driver, not the loader).
        let ck = dir.join(format!("nsky-ck-kernel-{pid}.snap"));
        let ck_s = ck.to_str().unwrap().to_string();
        let out = run(&s(&[
            "skyline",
            &path,
            "--trip-after",
            "40",
            "--check-interval",
            "1",
            "--checkpoint",
            &ck_s,
        ]))
        .unwrap();
        assert_eq!(out.completion, Completion::DeadlineExceeded);
        let out = run(&s(&["clique", &path, "--checkpoint", &ck_s, "--resume"])).unwrap();
        assert!(out.degraded, "{}", out.text);
        assert!(out.text.contains("ω = 5"), "{}", out.text);
        assert!(
            out.warnings.iter().any(|w| w.contains("kernel")),
            "{:?}",
            out.warnings
        );
        std::fs::remove_file(&ck).ok();
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn checkpoint_flag_validation() {
        let path = write_karate();
        let err = fail(&["skyline", &path, "--resume"]);
        assert!(err.contains("--resume requires --checkpoint"), "{err}");
        let err = fail(&["skyline", &path, "--checkpoint-interval", "50"]);
        assert!(err.contains("requires --checkpoint"), "{err}");
        let err = fail(&[
            "skyline",
            &path,
            "--checkpoint",
            "x.snap",
            "--checkpoint-interval",
            "0",
        ]);
        assert!(err.contains("at least 1"), "{err}");
        let err = fail(&[
            "skyline",
            &path,
            "--algorithm",
            "cset",
            "--checkpoint",
            "x.snap",
        ]);
        assert!(err.contains("refine, base, par"), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn budget_flags_rejected_on_uninstrumented_algorithms() {
        let path = write_karate();
        let err = fail(&["skyline", &path, "--algorithm", "cset", "--timeout", "5"]);
        assert!(err.contains("refine, base, par"), "{err}");
        let err = fail(&[
            "group",
            &path,
            "-k",
            "2",
            "--measure",
            "betweenness",
            "--timeout",
            "5",
        ]);
        assert!(err.contains("closeness, harmonic"), "{err}");
        let err = fail(&[
            "group",
            &path,
            "-k",
            "2",
            "--measure",
            "betweenness",
            "--checkpoint",
            "x.snap",
        ]);
        assert!(err.contains("closeness, harmonic"), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn metrics_report_round_trips_through_the_std_only_decoder() {
        use nsky_skyline::obs::{RunReport, SCHEMA_VERSION};
        let path = write_karate();
        let m = std::env::temp_dir().join(format!("nsky-metrics-{}.json", std::process::id()));
        let m = m.to_str().unwrap().to_string();
        let fingerprint = nsky_datasets::karate().fingerprint();

        // Skyline: stats flushed through the shared flush helper.
        let out = ok(&["skyline", &path, "--metrics", &m]);
        assert!(out.contains(&format!("metrics = {m}")), "{out}");
        let text = std::fs::read_to_string(&m).unwrap();
        let report = RunReport::from_json(&text).unwrap();
        assert_eq!(report.schema_version, SCHEMA_VERSION);
        assert_eq!(report.kernel, "FilterRefineSky");
        assert_eq!(report.graph_fingerprint, fingerprint);
        assert_eq!(report.completion, "Complete");
        // Karate's skyline has 15 members; every candidate that survives
        // the filter covers at least those.
        assert!(
            report.counter("candidates_emitted").unwrap() >= 15,
            "{text}"
        );
        assert!(report.counter("pair_tests").unwrap() > 0, "{text}");
        for phase in ["load", "run"] {
            assert!(
                report.phases.iter().any(|p| p.name == phase),
                "missing {phase} span: {text}"
            );
        }

        // A truncated report is rejected, not half-parsed.
        assert!(RunReport::from_json(&text[..text.len() - 8]).is_err());

        // Clique: NeiSkyMC seeds from the skyline and flushes both the
        // search counters and the seed-pool size.
        let out = ok(&["clique", &path, "--metrics", &m]);
        assert!(out.contains("metrics = "), "{out}");
        let text = std::fs::read_to_string(&m).unwrap();
        let report = RunReport::from_json(&text).unwrap();
        assert_eq!(report.kernel, "NeiSkyMC");
        assert_eq!(report.graph_fingerprint, fingerprint);
        assert_eq!(report.counter("candidates_emitted"), Some(15));
        // On karate the heuristic clique already matches ω, so every seed
        // is skyline/core-pruned and no branching happens — the search is
        // visible either as prunes or as expanded nodes.
        let search =
            report.counter("skyline_prunes").unwrap() + report.counter("nodes_expanded").unwrap();
        assert!(search > 0, "{text}");

        // Group: the greedy counters land, and the NeiSky engine reports
        // its restricted pool.
        let out = ok(&["group", &path, "-k", "2", "--metrics", &m]);
        assert!(out.contains("metrics = "), "{out}");
        let report = RunReport::from_json(&std::fs::read_to_string(&m).unwrap()).unwrap();
        assert_eq!(report.kernel, "NeiSkyGC");
        assert!(report.counter("gain_evaluations").unwrap() > 0);
        assert_eq!(report.counter("candidates_emitted"), Some(15));

        std::fs::remove_file(&m).ok();
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn metrics_report_records_budget_and_checkpoint_events() {
        use nsky_skyline::obs::RunReport;
        let path = write_karate();
        let pid = std::process::id();
        let m = std::env::temp_dir().join(format!("nsky-metrics-trip-{pid}.json"));
        let m = m.to_str().unwrap().to_string();
        let ck = std::env::temp_dir().join(format!("nsky-metrics-ck-{pid}.snap"));
        let ck = ck.to_str().unwrap().to_string();
        let out = run(&s(&[
            "skyline",
            &path,
            "--trip-after",
            "40",
            "--check-interval",
            "1",
            "--checkpoint",
            &ck,
            "--metrics",
            &m,
        ]))
        .unwrap();
        assert_eq!(out.completion, Completion::DeadlineExceeded, "{}", out.text);
        let report = RunReport::from_json(&std::fs::read_to_string(&m).unwrap()).unwrap();
        assert_eq!(report.completion, "DeadlineExceeded");
        assert!(
            report.events.iter().any(|e| e.contains("--trip-after 40")),
            "{:?}",
            report.events
        );
        assert!(
            report.events.iter().any(|e| e.starts_with("checkpoint = ")),
            "{:?}",
            report.events
        );
        std::fs::remove_file(&ck).ok();
        std::fs::remove_file(&m).ok();
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn metrics_flag_validation() {
        use super::CliError;
        let path = write_karate();
        // Uninstrumented algorithms reject the flag up front.
        let err = fail(&[
            "skyline",
            &path,
            "--algorithm",
            "cset",
            "--metrics",
            "m.json",
        ]);
        assert!(err.contains("refine, base, par"), "{err}");
        let err = fail(&[
            "group",
            &path,
            "-k",
            "2",
            "--measure",
            "betweenness",
            "--metrics",
            "m.json",
        ]);
        assert!(err.contains("closeness, harmonic"), "{err}");
        // An unwritable report path is an input error (exit 2), and the
        // kernel result is forfeited rather than silently unreported.
        let bad = "/nonexistent-dir/metrics.json";
        let err = run(&s(&["skyline", &path, "--metrics", bad])).unwrap_err();
        assert!(matches!(err, CliError::Input(_)), "{err:?}");
        std::fs::remove_file(path).ok();
    }

    fn write_deltas(lines: &str, tag: &str) -> String {
        let path =
            std::env::temp_dir().join(format!("nsky-deltas-{tag}-{}.txt", std::process::id()));
        std::fs::write(&path, lines).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn update_applies_deltas_and_reports_the_new_skyline() {
        let path = write_karate();
        // Isolate vertex 33's twin-region edge and add a fresh edge;
        // the engine must agree with a from-scratch run on the result.
        let dpath = write_deltas("# test deltas\n+ 4 33\n- 0 1\n+ 4 33\n", "ok");
        let out = ok(&["update", &path, &dpath]);
        assert!(out.contains("engine = DynamicMaintain"), "{out}");
        assert!(
            out.contains("deltas = 3 of 3 committed (2 applied, 1 no-ops)"),
            "{out}"
        );
        assert!(out.contains("|R| = "), "{out}");
        std::fs::remove_file(dpath).ok();
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn update_rejects_bad_delta_files_as_input_errors() {
        use super::CliError;
        let path = write_karate();
        // Malformed line: parse error with the line number.
        let dpath = write_deltas("+ 1 2\n* 3 4\n", "bad-op");
        let err = run(&s(&["update", &path, &dpath])).unwrap_err();
        assert!(matches!(err, CliError::Input(_)), "{err:?}");
        assert!(err.to_string().contains("line 2"), "{err}");
        std::fs::remove_file(dpath).ok();
        // Structurally invalid for this graph: endpoint out of range.
        let dpath = write_deltas("+ 1 99\n", "oob");
        let err = run(&s(&["update", &path, &dpath])).unwrap_err();
        assert!(matches!(err, CliError::Input(_)), "{err:?}");
        assert!(err.to_string().contains("out of range"), "{err}");
        std::fs::remove_file(dpath).ok();
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn update_trip_resume_round_trip() {
        let path = write_karate();
        let body: String = (0..20)
            .map(|i| format!("- {} {}\n", i % 10, 10 + (i * 3) % 24))
            .collect();
        let dpath = write_deltas(&body, "trip");
        let ck = std::env::temp_dir().join(format!("nsky-up-ck-{}.snap", std::process::id()));
        let ck = ck.to_str().unwrap().to_string();
        let out = run(&s(&[
            "update",
            &path,
            &dpath,
            "--trip-after",
            "6",
            "--check-interval",
            "1",
            "--checkpoint",
            &ck,
        ]))
        .unwrap();
        assert_eq!(out.completion, Completion::DeadlineExceeded, "{}", out.text);
        assert!(
            out.text.contains("status = DeadlineExceeded"),
            "{}",
            out.text
        );
        assert!(std::path::Path::new(&ck).exists());
        // Resume completes the batch and removes the checkpoint.
        let out = run(&s(&[
            "update",
            &path,
            &dpath,
            "--checkpoint",
            &ck,
            "--resume",
        ]))
        .unwrap();
        assert_eq!(out.completion, Completion::Complete, "{}", out.text);
        assert!(!out.degraded, "{}", out.text);
        assert!(
            out.text.contains("deltas = 20 of 20 committed"),
            "{}",
            out.text
        );
        assert!(!std::path::Path::new(&ck).exists(), "stale checkpoint kept");
        // The resumed answer equals a clean full run.
        let clean = ok(&["update", &path, &dpath]);
        let sky = |t: &str| {
            t.lines()
                .find(|l| l.starts_with("skyline:"))
                .unwrap()
                .to_string()
        };
        assert_eq!(sky(&out.text), sky(&clean));
        std::fs::remove_file(dpath).ok();
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn update_metrics_report_counts_deltas() {
        use nsky_skyline::obs::RunReport;
        let path = write_karate();
        let dpath = write_deltas("+ 4 33\n- 0 1\n- 0 1\n", "metrics");
        let m = std::env::temp_dir().join(format!("nsky-up-m-{}.json", std::process::id()));
        let m = m.to_str().unwrap().to_string();
        let out = ok(&["update", &path, &dpath, "--metrics", &m]);
        assert!(out.contains(&format!("metrics = {m}")), "{out}");
        let report = RunReport::from_json(&std::fs::read_to_string(&m).unwrap()).unwrap();
        assert_eq!(report.kernel, "DynamicMaintain");
        assert_eq!(
            report.graph_fingerprint,
            nsky_datasets::karate().fingerprint()
        );
        assert_eq!(report.counter("deltas_applied"), Some(2));
        assert!(report.counter("dirty_vertices").unwrap() > 0, "{report:?}");
        assert!(report.counter("scoped_refines").unwrap() > 0, "{report:?}");
        std::fs::remove_file(&m).ok();
        std::fs::remove_file(dpath).ok();
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn cli_flag_validation() {
        let path = write_karate();
        let err = fail(&["skyline", &path, "--algorithm", "par", "--threads", "0"]);
        assert!(err.contains("at least 1"), "{err}");
        // A thread count near usize::MAX / 4 must not reach any size
        // arithmetic. The kernel starts one worker per chunk of
        // candidates, so on karate it runs min(threads, |C|) workers.
        let huge = ok(&[
            "skyline",
            &path,
            "--algorithm",
            "par",
            "--threads",
            "4611686018427387904",
        ]);
        let refine = ok(&["skyline", &path, "--algorithm", "refine"]);
        let skyline_line = |out: &str| {
            out.lines()
                .find(|l| l.starts_with("skyline: "))
                .map(str::to_owned)
        };
        assert!(huge.contains("|R| = 15"), "{huge}");
        assert_eq!(skyline_line(&huge), skyline_line(&refine), "{huge}");
        let err = fail(&["skyline", &path, "--timeout", "-3"]);
        assert!(err.contains("--timeout"), "{err}");
        let err = fail(&["skyline", &path, "--check-interval", "0"]);
        assert!(err.contains("--check-interval"), "{err}");
        let err = fail(&["stats", &path, "--max-vertex-id", "3"]);
        assert!(err.contains("exceeds the cap"), "{err}");
        std::fs::remove_file(path).ok();
    }
}
