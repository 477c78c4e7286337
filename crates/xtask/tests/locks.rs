//! Contract tests for the concurrency-discipline layer: the committed
//! `api/locks.report` baseline tracks the real workspace, the `locks`
//! CLI agrees with it, the fixture workspaces produce the expected
//! lock-landscape reports, and `lint --json` carries the R17–R20
//! counters through the checksum-verified RunReport decoder.

use std::path::{Path, PathBuf};
use std::process::Command;

use nsky_xtask::locks_report;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
}

/// The committed baseline is exactly what the analyzer reports today —
/// the drift gate in `verify.sh` relies on this equality.
#[test]
fn committed_locks_report_matches_the_workspace() {
    let root = workspace_root();
    let report = locks_report(&root).expect("workspace scans");
    let baseline =
        std::fs::read_to_string(root.join("api/locks.report")).expect("baseline is committed");
    assert_eq!(
        report, baseline,
        "api/locks.report drifted (run `cargo xtask locks --bless` and review)"
    );
    // The canonical facts the DESIGN names, pinned individually so a
    // regression message says *what* changed, not just "drifted".
    assert!(report.contains("condvar available ~ queue"));
    assert!(report.contains("order: updater -> epoch (run_update)"));
    assert!(!report.contains("latencies_nanos"), "loadgen is lock-free");
}

/// `locks --check` is the CLI twin of the equality above; plain `locks`
/// prints the report for humans.
#[test]
fn cli_locks_check_matches_baseline() {
    let bin = env!("CARGO_BIN_EXE_nsky-xtask");
    let root = workspace_root();
    let out = Command::new(bin)
        .args(["locks", "--check", "--root"])
        .arg(&root)
        .output()
        .expect("locks --check runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "lock-order baseline is current: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let out = Command::new(bin)
        .args(["locks", "--root"])
        .arg(&root)
        .output()
        .expect("locks runs");
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(report.contains("crate server"));
    assert!(report.contains("locks: epoch, monitor, queue, updater"));
}

/// The fixture landscapes: the ABBA pair yields both edge directions,
/// the clean ordering yields one, and the cross-crate case records the
/// transitive edges that close its cycle.
#[test]
fn fixture_reports_name_their_edges() {
    let report = locks_report(&fixture("r17_bad")).expect("fixture scans");
    assert!(report.contains("order: alpha -> beta (sum_ab)"), "{report}");
    assert!(report.contains("order: beta -> alpha (sum_ba)"), "{report}");

    let report = locks_report(&fixture("r17_good")).expect("fixture scans");
    assert!(report.contains("order: alpha -> beta"), "{report}");
    assert!(!report.contains("beta -> alpha"), "{report}");

    let report = locks_report(&fixture("r17_cross_bad")).expect("fixture scans");
    assert!(report.contains("order: head -> tail (advance)"), "{report}");
    assert!(
        report.contains("order: tail -> head (rebalance)"),
        "{report}"
    );

    let report = locks_report(&fixture("r19_good")).expect("fixture scans");
    assert!(report.contains("condvar ready ~ jobs"), "{report}");
}

/// A workspace with no mutexes still renders a (one-line) report.
#[test]
fn lockless_workspace_reports_no_mutexes() {
    let report = locks_report(&fixture("r20_good")).expect("fixture scans");
    assert_eq!(report, "no mutexes\n");
}

/// `lint --json` on the ABBA fixture: the `lock-order` counter is 2,
/// the stream round-trips through the strict decoder, and corruption
/// is rejected.
#[test]
fn lint_json_carries_lock_order_counters() {
    let bin = env!("CARGO_BIN_EXE_nsky-xtask");
    let out = Command::new(bin)
        .args(["lint", "--json", "--root"])
        .arg(fixture("r17_bad"))
        .output()
        .expect("lint --json runs");
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8(out.stdout).expect("json is utf-8");
    let report = nsky_skyline::RunReport::from_json(&text)
        .expect("lint --json round-trips through the checksum-verified decoder");
    let counter = |name: &str| {
        report
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("counter {name} present"))
    };
    assert_eq!(counter("lock-order"), 2);
    assert_eq!(counter("guard-held-across-blocking"), 0);
    assert_eq!(counter("condvar-discipline"), 0);
    assert_eq!(counter("thread-lifecycle"), 0);
    assert_eq!(counter("total"), 2);

    let flipped = text.replacen("lock-order", "lock-ordeR", 1);
    assert!(nsky_skyline::RunReport::from_json(&flipped).is_err());
}

/// `lint --rule` addresses the new rules by name and by their fixed
/// codes r17–r20.
#[test]
fn lint_rule_filter_addresses_the_new_rules() {
    let bin = env!("CARGO_BIN_EXE_nsky-xtask");
    let run = |rule: &str, root: &str| {
        Command::new(bin)
            .args(["lint", "--rule", rule, "--root"])
            .arg(fixture(root))
            .output()
            .expect("lint --rule runs")
            .status
            .code()
    };
    assert_eq!(run("lock-order", "r17_bad"), Some(1));
    assert_eq!(run("r17", "r17_bad"), Some(1));
    assert_eq!(run("guard-held-across-blocking", "r17_bad"), Some(0));
    assert_eq!(run("r18", "r18_bad"), Some(1));
    assert_eq!(run("r19", "r19_bad"), Some(1));
    assert_eq!(run("r20", "r20_bad"), Some(1));
    assert_eq!(run("thread-lifecycle", "r20_good"), Some(0));
}
