//! Fixture-based self-tests for the policy lint engine: one
//! true-positive and one true-negative miniature workspace per rule
//! R1–R11, R13–R15 and R17–R20 (R16 is retired), a baseline-drift
//! workspace for R12, CLI exit-code / `--json` / `--rule` contract
//! checks, and the capstone assertion that the real workspace is
//! lint-clean.

use std::path::{Path, PathBuf};
use std::process::Command;

use nsky_xtask::{lint_workspace, Rule, Violation};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

fn lint_fixture(name: &str) -> Vec<Violation> {
    lint_workspace(&fixture(name)).expect("fixture lints without I/O errors")
}

/// Every violation in the bad fixture is of the expected rule, and
/// there is at least one.
fn assert_only_rule(name: &str, rule: Rule) -> Vec<Violation> {
    let violations = lint_fixture(name);
    assert!(
        !violations.is_empty(),
        "{name}: expected at least one {rule} violation"
    );
    for v in &violations {
        assert_eq!(v.rule, rule, "{name}: unexpected cross-rule violation: {v}");
        assert!(v.line > 0, "{name}: violations carry line numbers: {v}");
    }
    violations
}

fn assert_clean(name: &str) {
    let violations = lint_fixture(name);
    assert!(
        violations.is_empty(),
        "{name}: expected a clean fixture, got:\n{}",
        violations
            .iter()
            .map(|v| format!("  {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn r1_registry_deps_flagged() {
    let violations = assert_only_rule("r1_bad", Rule::NoRegistryDeps);
    // Both the [dependencies] and the [dev-dependencies] entry fire.
    assert_eq!(violations.len(), 2);
    assert!(violations[0].file.ends_with("crates/graph/Cargo.toml"));
}

#[test]
fn r1_workspace_path_deps_clean() {
    assert_clean("r1_good");
}

#[test]
fn r2_panics_flagged() {
    let violations = assert_only_rule("r2_bad", Rule::PanicFree);
    // unwrap, expect, panic!, todo! — one site each.
    assert_eq!(violations.len(), 4);
}

#[test]
fn r2_tests_strings_docs_and_suppressions_clean() {
    assert_clean("r2_good");
}

#[test]
fn r3_unsafe_without_safety_flagged() {
    let violations = assert_only_rule("r3_bad", Rule::SafetyComment);
    // The uncommented `unsafe` block, plus the missing crate-level
    // `#![forbid(unsafe_code)]` (a crate with unsafe cannot carry it).
    assert_eq!(violations.len(), 2);
    assert!(
        violations
            .iter()
            .any(|v| v.message.contains("#![forbid(unsafe_code)]")),
        "the forbid-attribute check fires on lib.rs"
    );
}

#[test]
fn r3_safety_commented_clean() {
    assert_clean("r3_good");
}

#[test]
fn r4_undocumented_public_items_flagged() {
    let violations = assert_only_rule("r4_bad", Rule::DocPublic);
    // pub fn + pub struct + pub enum.
    assert_eq!(violations.len(), 3);
}

#[test]
fn r4_documented_and_non_public_clean() {
    assert_clean("r4_good");
}

#[test]
fn r5_console_output_flagged() {
    let violations = assert_only_rule("r5_bad", Rule::NoStdout);
    // println!, eprintln!, process::exit in `datasets`, println! in the
    // `server` library file.
    assert_eq!(violations.len(), 4);
}

#[test]
fn r5_quiet_library_and_exempt_cli_clean() {
    assert_clean("r5_good");
}

#[test]
fn r6_design_drift_flagged() {
    let violations = assert_only_rule("r6_bad", Rule::DesignDrift);
    assert_eq!(violations.len(), 1);
    assert!(violations[0].message.contains("missing_flag_name"));
    assert!(violations[0].file.ends_with("DESIGN.md"));
}

#[test]
fn r6_documented_flags_present_clean() {
    assert_clean("r6_good");
}

#[test]
fn r7_unticked_kernel_loops_flagged() {
    let violations = assert_only_rule("r7_bad", Rule::BudgetCheck);
    // The `for` scan and the `while` drain; the loop-free fn is exempt.
    assert_eq!(violations.len(), 2);
    assert!(violations[0].message.contains("scan_candidates"));
    assert!(violations[1].message.contains("drain_queue"));
    assert!(violations[0].file.ends_with("crates/core/src/refine.rs"));
}

#[test]
fn r7_ticked_suppressed_and_test_loops_clean() {
    assert_clean("r7_good");
}

#[test]
fn r8_unversioned_snapshot_states_flagged() {
    let violations = assert_only_rule("r8_bad", Rule::SnapshotVersioned);
    // One state with no FORMAT_VERSION const, one that never gates decode.
    assert_eq!(violations.len(), 2);
    assert!(violations[0].message.contains("NoVersionConst"));
    assert!(violations[0].message.contains("FORMAT_VERSION"));
    assert!(violations[1].message.contains("UncheckedDecode"));
    assert!(violations[1].message.contains("expect_version"));
    assert!(violations[0].file.ends_with("crates/core/src/state.rs"));
}

#[test]
fn r8_versioned_suppressed_and_test_states_clean() {
    assert_clean("r8_good");
}

#[test]
fn r9_uninstrumented_kernel_modules_flagged() {
    let violations = assert_only_rule("r9_bad", Rule::ObsInstrumented);
    // One violation per module (at its first public entry point), not
    // one per uninstrumented function: the dynamic-maintenance module,
    // the core kernel (whose second fn builds a context in its body but
    // takes none) and the server query engine each fire once.
    assert_eq!(violations.len(), 3);
    assert!(violations[0].message.contains("dynamic.rs"));
    assert!(violations[0].file.ends_with("crates/core/src/dynamic.rs"));
    assert!(violations[1].message.contains("refine.rs"));
    assert!(violations[1].message.contains("ExecutionContext"));
    assert!(violations[1].message.contains("Recorder"));
    assert!(violations[1].file.ends_with("crates/core/src/refine.rs"));
    assert!(violations[2].message.contains("engine.rs"));
    assert!(violations[2].file.ends_with("crates/server/src/engine.rs"));
}

/// A context-taking fn (refine.rs), a recorder-taking fn (dynamic.rs,
/// engine.rs), a justified suppression (base.rs) and private helpers all
/// pass.
#[test]
fn r9_context_recorder_suppressed_and_private_modules_clean() {
    assert_clean("r9_good");
}

#[test]
fn r10_lossy_casts_flagged() {
    let violations = assert_only_rule("r10_bad", Rule::CastAudit);
    // Narrowing param, `.len()` narrowing, float truncation, and an
    // unknown source cast to a narrow destination.
    assert_eq!(violations.len(), 4);
    assert!(violations[0].message.contains("usize as u32"));
    assert!(violations[1].message.contains("len as u32"));
    assert!(violations[2].message.contains("round as i64"));
    assert!(violations[3].message.contains("? as u32"));
    assert!(violations[0].file.ends_with("crates/core/src/convert.rs"));
}

#[test]
fn r10_justified_rewritten_and_lossless_clean() {
    assert_clean("r10_good");
}

#[test]
fn r11_underargued_atomics_flagged() {
    let violations = assert_only_rule("r11_bad", Rule::AtomicOrdering);
    // Missing ORDERING comment, hidden ordering, Relaxed on a flag.
    assert_eq!(violations.len(), 3);
    assert!(violations[0].message.contains("ORDERING:"));
    assert!(violations[1].message.contains("name its `Ordering`"));
    assert!(violations[2].message.contains("Relaxed"));
    assert!(violations[2].message.contains("cancel"));
    assert!(violations[0].file.ends_with("crates/core/src/budget.rs"));
}

#[test]
fn r11_named_and_argued_orderings_clean() {
    assert_clean("r11_good");
}

#[test]
fn r12_renamed_pub_fn_drifts_from_baseline() {
    let violations = assert_only_rule("r12_drift", Rule::ApiSurface);
    assert_eq!(violations.len(), 1);
    let msg = &violations[0].message;
    // The baseline still names `order`; the source renamed it to
    // `vertex_count` — one line removed, one added.
    assert!(msg.contains("+1 / -1"), "{msg}");
    assert!(msg.contains("fn order"), "{msg}");
    assert!(violations[0].file.ends_with("api/core.surface"));
}

#[test]
fn r12_committed_baselines_match_real_crates() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists");
    let violations = nsky_xtask::surface::check_surfaces_cli(&root).expect("surfaces render");
    assert!(
        violations.is_empty(),
        "API baselines drifted (run `cargo xtask api --bless` and review):\n{}",
        violations
            .iter()
            .map(|v| format!("  {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn r13_conditional_polls_flagged() {
    let violations = assert_only_rule("r13_bad", Rule::PollReachability);
    // A stale-guarded dirty-drain poll, a branch-guarded lexical poll
    // and a branch-guarded helper poll: each loop can complete an
    // iteration without reaching the ticker.
    assert_eq!(violations.len(), 3);
    assert!(violations[0].message.contains("drain_dirty"));
    assert!(violations[0].file.ends_with("crates/core/src/dynamic.rs"));
    assert!(violations[1].message.contains("conditional_poll"));
    assert!(violations[2].message.contains("helper_conditional"));
    assert!(violations[1].file.ends_with("crates/core/src/refine.rs"));
}

/// The acceptance demo that R13 is strictly stronger than R7: the bad
/// fixture produces zero `budget-check` findings (its polls exist
/// lexically, so the pre-pass is satisfied) yet fails
/// `poll-reachability`; the good fixture's entry loop has no lexical
/// `.check(` at all — the pre-PR-6 syntactic R7 would have flagged it —
/// and passes both rules through the helper call chain.
#[test]
fn r13_stronger_than_r7() {
    let violations = lint_fixture("r13_bad");
    assert!(
        violations.iter().all(|v| v.rule == Rule::PollReachability),
        "r13_bad passes R7 but fails R13"
    );
    assert_clean("r13_good");
}

#[test]
fn r14_unbounded_recursion_flagged() {
    let violations = assert_only_rule("r14_bad", Rule::BoundedRecursion);
    // Direct recursion plus both ends of a mutual cycle.
    assert_eq!(violations.len(), 3);
    assert!(violations[0].message.contains("expand -> expand"));
    assert!(violations[1]
        .message
        .contains("even_steps -> odd_steps -> even_steps"));
    assert!(violations[2]
        .message
        .contains("odd_steps -> even_steps -> odd_steps"));
    assert!(violations[0].file.ends_with("crates/clique/src/bnb.rs"));
}

#[test]
fn r14_bounded_and_argued_recursion_clean() {
    assert_clean("r14_good");
}

#[test]
fn r15_hot_loop_allocations_flagged() {
    let violations = assert_only_rule("r15_bad", Rule::HotLoopAlloc);
    // `format!` and `.push(` inside the HOT loop; the `Vec::new()`
    // before the loop is exempt.
    assert_eq!(violations.len(), 2);
    assert!(violations.iter().any(|v| v.message.contains("format!")));
    assert!(violations.iter().any(|v| v.message.contains(".push(")));
    assert!(violations[0].file.ends_with("crates/core/src/hot.rs"));
}

#[test]
fn r15_justified_and_allocation_free_hot_loops_clean() {
    assert_clean("r15_good");
}

#[test]
fn r17_abba_lock_order_cycle_flagged() {
    let violations = assert_only_rule("r17_bad", Rule::LockOrder);
    // Each direction of the ABBA pair witnesses the cycle once.
    assert_eq!(violations.len(), 2);
    assert!(violations.iter().any(|v| v.message.contains("sum_ab")));
    assert!(violations.iter().any(|v| v.message.contains("sum_ba")));
    assert!(violations
        .iter()
        .all(|v| v.message.contains("alpha") && v.message.contains("beta")));
    assert!(violations[0].file.ends_with("crates/server/src/pool.rs"));
}

#[test]
fn r17_consistent_lock_order_clean() {
    assert_clean("r17_good");
}

#[test]
fn r17_cross_crate_transitive_cycle_flagged() {
    let violations = assert_only_rule("r17_cross_bad", Rule::LockOrder);
    // head→tail closes in `core`, tail→head closes in `graph`; both
    // edges exist only through the cross-crate call graph.
    assert_eq!(violations.len(), 2);
    assert!(violations
        .iter()
        .any(|v| v.file.ends_with("core/src/api.rs")));
    assert!(violations
        .iter()
        .any(|v| v.file.ends_with("graph/src/helper.rs")));
    assert!(violations
        .iter()
        .all(|v| v.message.contains("head") && v.message.contains("tail")));
}

#[test]
fn r18_guard_across_blocking_flagged() {
    let violations = assert_only_rule("r18_bad", Rule::GuardBlocking);
    // `pump` holds `buffer` across a read; `stamp` holds the protected
    // `epoch` across one and its `// GUARD:` marker is ignored; `answer`
    // and `answer_cached` hold `buffer` across a kernel entry.
    assert_eq!(violations.len(), 4);
    assert!(violations
        .iter()
        .any(|v| v.message.contains("buffer") && v.message.contains("pump")));
    assert!(violations
        .iter()
        .any(|v| v.message.contains("epoch") && v.message.contains("protected")));
    for entry in ["execute_query", "execute_read"] {
        assert!(
            violations
                .iter()
                .any(|v| v.message.contains(&format!("kernel entry `{entry}(`"))),
            "no finding names {entry}: {violations:?}"
        );
    }
}

#[test]
fn r18_narrowed_and_justified_guards_clean() {
    assert_clean("r18_good");
}

#[test]
fn r19_naked_wait_and_unlocked_notify_flagged() {
    let violations = assert_only_rule("r19_bad", Rule::CondvarDiscipline);
    assert_eq!(violations.len(), 2);
    assert!(violations
        .iter()
        .any(|v| v.message.contains("take_naked") && v.message.contains("spurious")));
    assert!(violations
        .iter()
        .any(|v| v.message.contains("submit_unlocked") && v.message.contains("jobs")));
}

#[test]
fn r19_predicate_loops_and_locked_notify_clean() {
    assert_clean("r19_good");
}

#[test]
fn r20_leaked_spawns_flagged() {
    let violations = assert_only_rule("r20_bad", Rule::ThreadLifecycle);
    // The bare spawn and the `let _ =` discard both leak.
    assert_eq!(violations.len(), 2);
    assert!(violations
        .iter()
        .any(|v| v.message.contains("fire_and_forget")));
    assert!(violations
        .iter()
        .any(|v| v.message.contains("discard_handles")));
    assert!(violations[0].file.ends_with("crates/graph/src/tasks.rs"));
}

#[test]
fn r20_joined_scoped_detached_and_collected_clean() {
    assert_clean("r20_good");
}

/// The capstone: the real workspace passes its own policy.
#[test]
fn real_workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists");
    let violations = lint_workspace(&root).expect("workspace lints");
    assert!(
        violations.is_empty(),
        "workspace has policy violations:\n{}",
        violations
            .iter()
            .map(|v| format!("  {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// CLI contract: exit 0 on a clean root, exit 1 on each true-positive
/// fixture, violations printed as `file:line: [rule] message`.
#[test]
fn cli_exit_codes_match_findings() {
    let bin = env!("CARGO_BIN_EXE_nsky-xtask");
    for bad in [
        "r1_bad",
        "r2_bad",
        "r3_bad",
        "r4_bad",
        "r5_bad",
        "r6_bad",
        "r7_bad",
        "r8_bad",
        "r9_bad",
        "r10_bad",
        "r11_bad",
        "r12_drift",
        "r13_bad",
        "r14_bad",
        "r15_bad",
        "r17_bad",
        "r17_cross_bad",
        "r18_bad",
        "r19_bad",
        "r20_bad",
    ] {
        let out = Command::new(bin)
            .args(["lint", "--root"])
            .arg(fixture(bad))
            .output()
            .expect("lint runs");
        assert_eq!(out.status.code(), Some(1), "{bad} should fail the lint");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains(": ["),
            "{bad}: report lines carry file:line: [rule]"
        );
    }
    for good in [
        "r1_good", "r2_good", "r3_good", "r4_good", "r5_good", "r6_good", "r7_good", "r8_good",
        "r9_good", "r10_good", "r11_good", "r13_good", "r14_good", "r15_good", "r17_good",
        "r18_good", "r19_good", "r20_good",
    ] {
        let out = Command::new(bin)
            .args(["lint", "--root"])
            .arg(fixture(good))
            .output()
            .expect("lint runs");
        assert_eq!(out.status.code(), Some(0), "{good} should pass the lint");
    }
    let out = Command::new(bin).output().expect("runs without args");
    assert_eq!(out.status.code(), Some(2), "usage error is exit 2");
}

/// `lint --json` emits a checksum-trailed RunReport that round-trips
/// through the strict decoder, with one counter per rule plus a total
/// and one event line per finding in the deterministic (file, line,
/// rule) order — the stream is drift-stable across runs.
#[test]
fn cli_lint_json_roundtrips_through_checksum_decoder() {
    let bin = env!("CARGO_BIN_EXE_nsky-xtask");
    let out = Command::new(bin)
        .args(["lint", "--json", "--root"])
        .arg(fixture("r13_bad"))
        .output()
        .expect("lint --json runs");
    assert_eq!(out.status.code(), Some(1), "findings still fail the lint");
    let text = String::from_utf8(out.stdout).expect("json is utf-8");
    let report = nsky_skyline::RunReport::from_json(&text)
        .expect("lint --json round-trips through the checksum-verified decoder");
    assert_eq!(report.kernel, "nsky-xtask-lint");
    assert_eq!(report.completion, "Complete");
    let counter = |name: &str| {
        report
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("counter {name} present"))
    };
    assert_eq!(counter("poll-reachability"), 3);
    assert_eq!(counter("budget-check"), 0);
    assert_eq!(counter("total"), 3);
    assert_eq!(report.events.len(), 3);
    assert!(
        report.events[0].contains("dynamic.rs")
            && report.events[1].contains("refine.rs:9:")
            && report.events[2].contains("refine.rs:24:"),
        "events keep the (file, line, rule) violation order: {:?}",
        report.events
    );

    // Corruption is rejected, not silently accepted.
    let flipped = text.replacen("poll-reachability", "poll-reachabilitY", 1);
    assert!(nsky_skyline::RunReport::from_json(&flipped).is_err());
}

/// `lint --rule` filters the findings (and the exit code) to one rule,
/// addressable by positional code or by name.
#[test]
fn cli_lint_rule_filter() {
    let bin = env!("CARGO_BIN_EXE_nsky-xtask");
    // r13_bad has only poll-reachability findings: filtering to R7
    // passes, filtering to R13 (by code and by name) fails.
    let run = |rule: &str| {
        Command::new(bin)
            .args(["lint", "--rule", rule, "--root"])
            .arg(fixture("r13_bad"))
            .output()
            .expect("lint --rule runs")
    };
    assert_eq!(run("budget-check").status.code(), Some(0));
    assert_eq!(run("r13").status.code(), Some(1));
    assert_eq!(run("poll-reachability").status.code(), Some(1));
    let out = run("nonsense");
    assert_eq!(out.status.code(), Some(2), "unknown rule is a usage error");
    // The retired R16 is unknown by code and by name; its code is not
    // reused (`locks.rs` checks that r17–r20 keep theirs).
    for retired in ["r16", "twin-coherence"] {
        let out = run(retired);
        assert_eq!(out.status.code(), Some(2), "`{retired}` is retired");
    }
}

/// `api --check` is its own CLI entry point: exit 1 on the injected
/// pub-fn rename, exit 0 once the baseline is re-blessed (checked
/// against the real workspace, whose baselines are committed).
#[test]
fn cli_api_check_detects_drift() {
    let bin = env!("CARGO_BIN_EXE_nsky-xtask");
    let out = Command::new(bin)
        .args(["api", "--check", "--root"])
        .arg(fixture("r12_drift"))
        .output()
        .expect("api --check runs");
    assert_eq!(out.status.code(), Some(1), "drift fixture fails the check");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("drifted"),
        "report names the drift: {stdout}"
    );

    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = Command::new(bin)
        .args(["api", "--check", "--root"])
        .arg(&root)
        .output()
        .expect("api --check runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "workspace baselines are current"
    );
}
