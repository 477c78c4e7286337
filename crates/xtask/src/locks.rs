//! Concurrency-discipline analysis: lock-acquisition graphs and the
//! R17–R20 rules built on them.
//!
//! PR 8–9 made the workspace concurrent (four mutexes plus a condvar in
//! `nsky-server`, scoped threads in `core::parallel`); this module makes
//! the linter see it. The analysis is token-exact like the rest of the
//! engine: it never type-checks, it recognizes the workspace's lock
//! idioms and reasons about *guard-live regions* in code-index space.
//!
//! **Lock identity.** A lock is a struct field declared as
//! `name: Mutex<…>` in a library crate (condvars analogously). Identity
//! is the bare field name — the workspace has no colliding lock names,
//! and name-identity is what lets the helper-acquisition form
//! (`shared.lock(&shared.queue)`) resolve without types. Locals or
//! parameters of type `Mutex` (e.g. the `m` inside [`Shared::lock`])
//! have no field declaration and are deliberately invisible: the
//! discipline is defined over the named shared locks.
//!
//! **Acquisition sites.** `recv.FIELD.lock(` (direct) and
//! `recv.lock(&path.FIELD)` (the poison-recovering helper form), where
//! `FIELD` is a known lock name.
//!
//! **Guard-live regions.** From the acquisition site to wherever the
//! guard dies:
//!
//! * `let g = ….lock()…;` (adapter chains `unwrap`/`expect`/
//!   `unwrap_or_else` and `match` bindings included) — to the end of the
//!   innermost enclosing block, truncated at `drop(g)`.
//! * `if let` / `while let` bindings — the construct's body block.
//! * Everything else — the temporary dies with its statement: a chained
//!   consumer (`….lock().len()`), a `match ….lock() { … }` scrutinee
//!   (which lives through the arms — the classic deadlock footgun), or
//!   an expression-position acquisition. `if`/`while` condition
//!   temporaries drop before the body runs and get condition-only
//!   regions.
//!
//! On top of the regions, four rules:
//!
//! * **R17 `lock-order`** — build the acquired-while-holding graph
//!   (direct nested acquisitions plus locks acquired transitively by
//!   calls inside a region, via the bounded call-graph fixpoint) and
//!   fail on any cycle. The blessed graph is rendered by
//!   [`locks_report`] into `api/locks.report` (`cargo xtask locks
//!   --check/--bless`), so the canonical order is reviewed like an API
//!   surface.
//! * **R18 `guard-held-across-blocking`** — no kernel entry
//!   (`ExecutionContext::drive`, the server's `execute_query`,
//!   `execute_read`, `execute_update` and `update_epoch`), socket/file
//!   I/O, `Condvar` wait, sleep, or thread spawn/join while a guard is
//!   live, unless justified with a `// GUARD:` marker at the
//!   acquisition or the blocking site. When the held lock is the
//!   server's `epoch` or `queue` the finding is *unsuppressible*,
//!   mirroring R11's Relaxed-flag case: those two locks sit on the
//!   serving path, and a stall under them is a full-service stall.
//! * **R19 `condvar-discipline`** — every wait on a known condvar sits
//!   in a loop that can re-test its predicate (a `while`, or a
//!   `loop`/`for` body with a conditional exit), and every `notify_*`
//!   happens while the paired mutex (inferred from `cv.wait(guard)`
//!   sightings) is held — the no-lost-wakeup protocol.
//! * **R20 `thread-lifecycle`** — every `spawn` outside tests either
//!   happens on a scope handle, or its function joins on all continuing
//!   paths (the R13 all-paths lattice with `join` as the primitive), or
//!   the handle demonstrably escapes (pushed/returned as a
//!   `JoinHandle` in a crate that joins elsewhere), or the site carries
//!   a `// DETACH:` justification.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::path::Path;

use crate::callgraph::{self, CallGraph};
use crate::cfg::{Block, Flow, FlowAnalysis, Range, Stmt};
use crate::lex::{Token, TokenKind};
use crate::source::SourceFile;
use crate::{Rule, Violation};

/// Locks whose R18 findings cannot be suppressed or `// GUARD:`-waived:
/// the epoch swap and the accept queue sit on the serving path, so a
/// blocking call under either stalls every in-flight request.
const PROTECTED_LOCKS: &[&str] = &["epoch", "queue"];

/// Result adapters that keep the lock result a guard (everything else
/// chained onto `.lock(…)` consumes the temporary within the statement).
const GUARD_ADAPTERS: &[&str] = &["unwrap", "expect", "unwrap_or_else"];

/// Blocking primitives in method/qualified position (`.name(` or
/// `::name(`): condvar waits, thread lifecycle, socket/file I/O and
/// sleeps. `.lock(` itself is *not* here — nested acquisition is R17's
/// domain, not R18's.
const BLOCKING_METHODS: &[&str] = &[
    "wait",
    "wait_timeout",
    "wait_while",
    "join",
    "spawn",
    "sleep",
    "read",
    "read_line",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "write",
    "write_all",
    "write_fmt",
    "flush",
    "peek",
    "accept",
    "connect",
    "recv",
    "recv_timeout",
];

/// Condvar wait methods (subset of [`BLOCKING_METHODS`] used for R19
/// pairing and for the consumed-guard exemption).
const WAIT_METHODS: &[&str] = &["wait", "wait_timeout", "wait_while"];

/// Kernel entry points: calling one runs a whole (budgeted, but
/// unbounded-latency) kernel — never acceptable under a held guard.
const KERNEL_ENTRIES: &[&str] = &[
    "drive",
    "execute_query",
    "execute_read",
    "execute_update",
    "update_epoch",
];

/// Runs R17–R20 over the workspace rooted at `root`.
pub(crate) fn check_locks(root: &Path) -> std::io::Result<Vec<Violation>> {
    let graph = callgraph::build(root)?;
    Ok(Analysis::build(&graph).violations)
}

/// Renders the blessed lock landscape: per crate, the declared locks,
/// the inferred condvar pairings and the acquired-while-holding edges.
/// Committed as `api/locks.report` and drift-gated by
/// `cargo xtask locks --check`.
pub fn locks_report(root: &Path) -> std::io::Result<String> {
    let graph = callgraph::build(root)?;
    Ok(Analysis::build(&graph).report())
}

/// One lock acquisition with its guard-live region.
struct Acq {
    /// The lock's field name.
    lock: String,
    /// 1-based line of the `.lock(` site.
    line: usize,
    /// Code index of the `lock` ident.
    site: usize,
    /// Half-open code-index range in which the guard is live.
    region: Range,
    /// The guard binding name, when `let`-bound to a usable name.
    guard: Option<String>,
}

/// One acquired-while-holding edge with its witness site.
#[derive(Clone)]
struct Edge {
    held: String,
    acquired: String,
    fn_name: String,
    crate_name: String,
    file: std::path::PathBuf,
    line: usize,
}

/// The whole-workspace concurrency analysis.
struct Analysis {
    /// Lock field name → crates declaring it.
    locks: BTreeMap<String, BTreeSet<String>>,
    /// Condvar pairings: (crate, condvar, mutex).
    pairings: BTreeSet<(String, String, String)>,
    /// Deduplicated acquired-while-holding edges (first witness wins;
    /// scan order is deterministic).
    edges: Vec<Edge>,
    violations: Vec<Violation>,
}

impl Analysis {
    fn build(graph: &CallGraph) -> Analysis {
        let mut locks: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let mut condvars: BTreeSet<String> = BTreeSet::new();
        for (path, file) in &graph.files {
            let crate_name = crate_of(path);
            for (name, is_condvar) in sync_fields(file) {
                if is_condvar {
                    condvars.insert(name);
                } else {
                    locks.entry(name).or_default().insert(crate_name.clone());
                }
            }
        }
        let lock_names: HashSet<String> = locks.keys().cloned().collect();

        // Per-function acquisition scans, index-aligned with `graph.fns`.
        let scans: Vec<Vec<Acq>> = (0..graph.fns.len())
            .map(|i| {
                let f = &graph.fns[i];
                let Some(file) = graph.files.get(&f.file) else {
                    return Vec::new();
                };
                let (code, _) = graph.body(i);
                FnScan::new(file, code).acquisitions(&lock_names)
            })
            .collect();

        // Transitive facts over the call graph: which locks a call to
        // `name` may acquire, and whether a call to `name` may block.
        let acquire_seed: Vec<BTreeSet<String>> = scans
            .iter()
            .map(|acqs| acqs.iter().map(|a| a.lock.clone()).collect())
            .collect();
        let acquires = graph.propagate_sets(&acquire_seed);
        let blocking = graph.propagate_names(|i, f| {
            let Some(file) = graph.files.get(&f.file) else {
                return false;
            };
            let (code, _) = graph.body(i);
            FnScan::new(file, code).blocks_directly()
        });

        let mut analysis = Analysis {
            locks,
            pairings: BTreeSet::new(),
            edges: Vec::new(),
            violations: Vec::new(),
        };
        // Pairing pass first: a `notify` in one function is checked
        // against `cv.wait(guard)` sightings anywhere in the workspace,
        // regardless of scan order.
        for (i, f) in graph.fns.iter().enumerate() {
            if f.in_test || !graph.files.contains_key(&f.file) {
                continue;
            }
            let (code, _) = graph.body(i);
            let scan = FnScan::new(&graph.files[&f.file], code);
            analysis.collect_pairings(f, &scan, &scans[i], &condvars);
        }
        for (i, f) in graph.fns.iter().enumerate() {
            if f.in_test {
                continue;
            }
            let Some(file) = graph.files.get(&f.file) else {
                continue;
            };
            let (code, block) = graph.body(i);
            let scan = FnScan::new(file, code);
            let acqs = &scans[i];
            analysis.collect_edges(f, &scan, acqs, &acquires);
            analysis.check_guard_blocking(f, file, &scan, acqs, &blocking);
            analysis.check_condvar(f, file, &scan, block, acqs, &condvars);
            analysis.check_lifecycle(f, i, file, &scan, graph);
        }
        analysis.check_cycles(graph);
        analysis.violations.sort_by(|a, b| {
            a.file
                .cmp(&b.file)
                .then(a.line.cmp(&b.line))
                .then(a.message.cmp(&b.message))
        });
        analysis
    }

    /// R17 edge collection: inside each guard region, nested direct
    /// acquisitions and transitively-acquiring calls produce
    /// held→acquired edges.
    fn collect_edges(
        &mut self,
        f: &callgraph::FnNode,
        scan: &FnScan<'_>,
        acqs: &[Acq],
        acquires: &HashMap<String, BTreeSet<String>>,
    ) {
        for a in acqs {
            let (lo, hi) = a.region;
            for b in acqs {
                if b.site > a.site && b.site >= lo && b.site < hi && b.lock != a.lock {
                    self.push_edge(f, &a.lock, &b.lock, b.line);
                }
            }
            for (k, name) in scan.calls_in(a.region) {
                if let Some(acquired) = acquires.get(&name) {
                    for l in acquired {
                        if *l != a.lock {
                            self.push_edge(f, &a.lock, l, scan.tok(k).line);
                        }
                    }
                }
            }
        }
    }

    fn push_edge(&mut self, f: &callgraph::FnNode, held: &str, acquired: &str, line: usize) {
        if self
            .edges
            .iter()
            .any(|e| e.held == held && e.acquired == acquired)
        {
            return;
        }
        self.edges.push(Edge {
            held: held.to_string(),
            acquired: acquired.to_string(),
            fn_name: f.name.clone(),
            crate_name: f.crate_name.clone(),
            file: f.file.clone(),
            line,
        });
    }

    /// Pairing inference: each `cv.wait*(guard)` sighting pairs the
    /// condvar with the guard's lock.
    fn collect_pairings(
        &mut self,
        f: &callgraph::FnNode,
        scan: &FnScan<'_>,
        acqs: &[Acq],
        condvars: &BTreeSet<String>,
    ) {
        for (k, cv) in scan.condvar_calls(condvars, WAIT_METHODS) {
            if let Some(arg) = scan.first_arg_ident(k) {
                if let Some(a) = acqs.iter().find(|a| a.guard.as_deref() == Some(&arg)) {
                    self.pairings
                        .insert((f.crate_name.clone(), cv, a.lock.clone()));
                }
            }
        }
    }

    /// R17 cycle detection over the deduplicated edge set: every edge
    /// that participates in a cycle is a violation at its witness site.
    fn check_cycles(&mut self, graph: &CallGraph) {
        let mut adj: HashMap<&str, Vec<&str>> = HashMap::new();
        for e in &self.edges {
            adj.entry(e.held.as_str())
                .or_default()
                .push(e.acquired.as_str());
        }
        let mut findings = Vec::new();
        for e in &self.edges {
            let Some(path) = reach(&adj, &e.acquired, &e.held) else {
                continue;
            };
            let mut cycle = vec![e.held.clone()];
            cycle.extend(path);
            let suppressed = graph
                .files
                .get(&e.file)
                .is_some_and(|file| file.is_suppressed(Rule::LockOrder, e.line));
            if suppressed {
                continue;
            }
            findings.push(Violation {
                file: e.file.clone(),
                line: e.line,
                rule: Rule::LockOrder,
                message: format!(
                    "lock-order cycle: `{}` acquired while holding `{}` in `{}` closes {}",
                    e.acquired,
                    e.held,
                    e.fn_name,
                    cycle.join(" -> "),
                ),
            });
        }
        self.violations.extend(findings);
    }

    /// R18: blocking primitives and transitively-blocking calls inside
    /// a guard region.
    fn check_guard_blocking(
        &mut self,
        f: &callgraph::FnNode,
        file: &SourceFile,
        scan: &FnScan<'_>,
        acqs: &[Acq],
        blocking: &HashSet<String>,
    ) {
        for a in acqs {
            let protected = PROTECTED_LOCKS.contains(&a.lock.as_str());
            let justified = |line: usize| {
                !protected
                    && (file.comment_marker_near("GUARD:", a.line, 3)
                        || file.comment_marker_near("GUARD:", line, 3)
                        || file.is_suppressed(Rule::GuardBlocking, line))
            };
            for (k, what) in scan.blocking_sites(a.region, a.guard.as_deref(), blocking) {
                let line = scan.tok(k).line;
                if justified(line) {
                    continue;
                }
                let qualifier = if protected {
                    " (protected lock: `// GUARD:`/suppressions cannot waive it)"
                } else {
                    " (narrow the guard scope or justify with `// GUARD:`)"
                };
                self.violations.push(Violation {
                    file: f.file.clone(),
                    line,
                    rule: Rule::GuardBlocking,
                    message: format!(
                        "guard on `{}` (taken line {}) held across blocking {what} in `{}`{qualifier}",
                        a.lock, a.line, f.name,
                    ),
                });
            }
        }
    }

    /// R19: waits sit in predicate loops; notifies hold the paired
    /// mutex. Pairings are inferred from `cv.wait*(guard)` sightings.
    fn check_condvar(
        &mut self,
        f: &callgraph::FnNode,
        file: &SourceFile,
        scan: &FnScan<'_>,
        block: &Block,
        acqs: &[Acq],
        condvars: &BTreeSet<String>,
    ) {
        let waits = scan.condvar_calls(condvars, WAIT_METHODS);
        for &(k, ref cv) in &waits {
            let line = scan.tok(k).line;
            if file.is_suppressed(Rule::CondvarDiscipline, line) {
                continue;
            }
            if let Some(problem) = scan.wait_loop_problem(block, k) {
                self.violations.push(Violation {
                    file: f.file.clone(),
                    line,
                    rule: Rule::CondvarDiscipline,
                    message: format!("`{cv}.{}` {problem} in `{}`", scan.tok(k).text, f.name),
                });
            }
        }
        for (k, cv) in scan.condvar_calls(condvars, &["notify_one", "notify_all"]) {
            let paired: Vec<&str> = self
                .pairings
                .iter()
                .filter(|(_, c, _)| *c == cv)
                .map(|(_, _, m)| m.as_str())
                .collect();
            if paired.is_empty() {
                continue; // no wait sighted anywhere: nothing to pair against
            }
            let held = acqs
                .iter()
                .any(|a| paired.contains(&a.lock.as_str()) && k >= a.region.0 && k < a.region.1);
            let line = scan.tok(k).line;
            if !held && !file.is_suppressed(Rule::CondvarDiscipline, line) {
                self.violations.push(Violation {
                    file: f.file.clone(),
                    line,
                    rule: Rule::CondvarDiscipline,
                    message: format!(
                        "`{cv}.{}` without holding the paired mutex `{}` in `{}`: a waiter \
                         between its predicate check and its wait misses this wakeup",
                        scan.tok(k).text,
                        paired.join("`/`"),
                        f.name,
                    ),
                });
            }
        }
    }

    /// R20: every spawn is scoped, joined on all paths, escapes as a
    /// handle in a joining crate, or carries a `// DETACH:` marker.
    fn check_lifecycle(
        &mut self,
        f: &callgraph::FnNode,
        i: usize,
        file: &SourceFile,
        scan: &FnScan<'_>,
        graph: &CallGraph,
    ) {
        let spawns = scan.spawn_sites();
        if spawns.is_empty() {
            return;
        }
        let (code, block) = graph.body(i);
        let empty = HashSet::new();
        let joins_all_paths = FlowAnalysis::with_primitives(file, code, &empty, &["join"])
            .block_flow(block)
            == Flow::Polls;
        let ret = file.items.get(f.item_index).and_then(|it| it.ret.clone());
        for k in spawns {
            let line = scan.tok(k).line;
            if scan.is_scoped_spawn(k)
                || joins_all_paths
                || (scan.handle_escapes(k, ret.as_deref()) && crate_joins(graph, &f.crate_name))
                || file.comment_marker_near("DETACH:", line, 3)
                || file.is_suppressed(Rule::ThreadLifecycle, line)
            {
                continue;
            }
            self.violations.push(Violation {
                file: f.file.clone(),
                line,
                rule: Rule::ThreadLifecycle,
                message: format!(
                    "`spawn` in `{}` has no all-paths `join`: join the handle, use \
                     `thread::scope`, or justify with `// DETACH:`",
                    f.name,
                ),
            });
        }
    }

    /// Renders the committed report (see [`locks_report`]).
    fn report(&self) -> String {
        let mut crates: BTreeSet<&str> = BTreeSet::new();
        for cs in self.locks.values() {
            crates.extend(cs.iter().map(String::as_str));
        }
        for (c, _, _) in &self.pairings {
            crates.insert(c);
        }
        for e in &self.edges {
            crates.insert(e.crate_name.as_str());
        }
        if crates.is_empty() {
            return "no mutexes\n".to_string();
        }
        let mut lines = Vec::new();
        for c in crates {
            lines.push(format!("crate {c}"));
            let owned: Vec<&str> = self
                .locks
                .iter()
                .filter(|(_, cs)| cs.contains(c))
                .map(|(n, _)| n.as_str())
                .collect();
            if !owned.is_empty() {
                lines.push(format!("  locks: {}", owned.join(", ")));
            }
            for (pc, cv, m) in &self.pairings {
                if pc == c {
                    lines.push(format!("  condvar {cv} ~ {m}"));
                }
            }
            let mut edges: Vec<&Edge> = self.edges.iter().filter(|e| e.crate_name == c).collect();
            edges.sort_by(|a, b| (&a.held, &a.acquired).cmp(&(&b.held, &b.acquired)));
            for e in edges {
                lines.push(format!(
                    "  order: {} -> {} ({})",
                    e.held, e.acquired, e.fn_name
                ));
            }
        }
        lines.join("\n") + "\n"
    }
}

/// BFS from `from` to `to` over the lock graph; returns the node path
/// `from..=to` when reachable (used to render the cycle witness).
fn reach(adj: &HashMap<&str, Vec<&str>>, from: &str, to: &str) -> Option<Vec<String>> {
    let mut parent: HashMap<&str, &str> = HashMap::new();
    let mut queue: Vec<&str> = vec![from];
    let mut seen: HashSet<&str> = [from].into_iter().collect();
    let mut qi = 0;
    while qi < queue.len() {
        let u = queue[qi];
        qi += 1;
        if u == to {
            let mut path = vec![u.to_string()];
            let mut cur = u;
            while cur != from {
                cur = parent[&cur];
                path.push(cur.to_string());
            }
            path.reverse();
            return Some(path);
        }
        for &v in adj.get(u).map(Vec::as_slice).unwrap_or_default() {
            if seen.insert(v) {
                parent.insert(v, u);
                queue.push(v);
            }
        }
    }
    None
}

/// The crate name of a workspace-relative path (`crates/<name>/src/…`).
fn crate_of(path: &Path) -> String {
    let mut comps = path.components().map(|c| c.as_os_str().to_string_lossy());
    while let Some(c) = comps.next() {
        if c == "crates" {
            return comps.next().map(|c| c.to_string()).unwrap_or_default();
        }
    }
    String::new()
}

/// Whether any non-test function in `crate_name` calls `.join(`.
fn crate_joins(graph: &CallGraph, crate_name: &str) -> bool {
    graph.fns.iter().enumerate().any(|(i, f)| {
        if f.in_test || f.crate_name != crate_name {
            return false;
        }
        let Some(file) = graph.files.get(&f.file) else {
            return false;
        };
        let (code, _) = graph.body(i);
        let scan = FnScan::new(file, code);
        (0..code.len()).any(|k| {
            scan.tok(k).is_ident("join")
                && k > 0
                && scan.tok(k - 1).is_punct(".")
                && k + 1 < code.len()
                && scan.tok(k + 1).is_punct("(")
        })
    })
}

/// `Mutex`/`Condvar` struct-field declarations in one file: the ident
/// two tokens before `Mutex`/`Condvar` when the one between is `:`
/// (`use` imports, `Mutex::new(` calls and `&Mutex<T>` parameters have
/// different shapes and are skipped). Returns `(name, is_condvar)`.
fn sync_fields(file: &SourceFile) -> Vec<(String, bool)> {
    let code = file.code_indices();
    let tok = |k: usize| -> &Token { &file.tokens[code[k]] };
    let mut out = Vec::new();
    for k in 2..code.len() {
        let t = tok(k);
        let is_condvar = t.is_ident("Condvar");
        if !is_condvar && !t.is_ident("Mutex") {
            continue;
        }
        let generic_follows = k + 1 < code.len() && tok(k + 1).is_punct("<");
        if !is_condvar && !generic_follows {
            continue;
        }
        if !tok(k - 1).is_punct(":") || tok(k - 2).kind != TokenKind::Ident {
            continue;
        }
        let name = &tok(k - 2).text;
        if name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_lowercase() || c == '_')
        {
            out.push((name.clone(), is_condvar));
        }
    }
    out
}

/// Token-exact scanner over one function body (code-index space).
struct FnScan<'a> {
    file: &'a SourceFile,
    code: &'a [usize],
    open_to_close: HashMap<usize, usize>,
    close_to_open: HashMap<usize, usize>,
}

impl<'a> FnScan<'a> {
    fn new(file: &'a SourceFile, code: &'a [usize]) -> FnScan<'a> {
        let mut open_to_close = HashMap::new();
        let mut close_to_open = HashMap::new();
        let mut stack = Vec::new();
        for (k, &i) in code.iter().enumerate() {
            let t = &file.tokens[i];
            if t.is_punct("{") {
                stack.push(k);
            } else if t.is_punct("}") {
                if let Some(o) = stack.pop() {
                    open_to_close.insert(o, k);
                    close_to_open.insert(k, o);
                }
            }
        }
        FnScan {
            file,
            code,
            open_to_close,
            close_to_open,
        }
    }

    fn tok(&self, k: usize) -> &Token {
        &self.file.tokens[self.code[k]]
    }

    /// The code index of the `)` matching the `(` at `open`.
    fn paren_close(&self, open: usize) -> usize {
        let mut depth = 0i32;
        for k in open..self.code.len() {
            let t = self.tok(k);
            if t.is_punct("(") {
                depth += 1;
            } else if t.is_punct(")") {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
        }
        self.code.len().saturating_sub(1)
    }

    /// Walks backward from `k` to the start of its statement (just
    /// after the previous depth-0 `;`/`{`; matched brace groups are
    /// jumped over).
    fn stmt_start(&self, k: usize) -> usize {
        let mut j = k;
        while j > 0 {
            let t = self.tok(j - 1);
            if t.is_punct(";") || t.is_punct("{") {
                return j;
            }
            if t.is_punct("}") {
                j = self.close_to_open.get(&(j - 1)).copied().unwrap_or(0);
                continue;
            }
            j -= 1;
        }
        0
    }

    /// Walks forward from `k` to the statement's terminator: the next
    /// depth-0 `;`, or the enclosing block's `}` for a tail expression.
    fn stmt_end(&self, k: usize) -> usize {
        let mut j = k;
        while j < self.code.len() {
            let t = self.tok(j);
            if t.is_punct("{") {
                j = self
                    .open_to_close
                    .get(&j)
                    .map_or(self.code.len(), |&c| c + 1);
                continue;
            }
            if t.is_punct(";") || t.is_punct("}") {
                return j;
            }
            j += 1;
        }
        self.code.len()
    }

    /// The `}` closing the innermost block enclosing `k` (scanning
    /// forward over matched groups).
    fn enclosing_block_close(&self, k: usize) -> usize {
        let mut j = k;
        while j < self.code.len() {
            let t = self.tok(j);
            if t.is_punct("{") {
                j = self
                    .open_to_close
                    .get(&j)
                    .map_or(self.code.len(), |&c| c + 1);
                continue;
            }
            if t.is_punct("}") {
                return j;
            }
            j += 1;
        }
        self.code.len()
    }

    /// Whether the value produced by the lock call (whose `)` is at
    /// `close`) is still a guard afterwards: the chain ends, opens a
    /// `match`/block, or passes through a guard adapter. Any other
    /// chained method consumes the temporary.
    fn lock_result_is_guard(&self, close: usize) -> bool {
        let mut k = close + 1;
        while k < self.code.len() {
            let t = self.tok(k);
            if t.is_punct(";") || t.is_punct("{") || t.is_punct("}") || t.is_punct(",") {
                return true;
            }
            if t.is_punct("?") {
                k += 1;
                continue;
            }
            if t.is_punct(".")
                && k + 2 < self.code.len()
                && GUARD_ADAPTERS.iter().any(|a| self.tok(k + 1).is_ident(a))
                && self.tok(k + 2).is_punct("(")
            {
                k = self.paren_close(k + 2) + 1;
                continue;
            }
            return false;
        }
        true
    }

    /// Finds every acquisition of a known lock with its guard region.
    fn acquisitions(&self, locks: &HashSet<String>) -> Vec<Acq> {
        let mut out = Vec::new();
        for k in 0..self.code.len() {
            if !(self.tok(k).is_ident("lock")
                && k + 1 < self.code.len()
                && self.tok(k + 1).is_punct("(")
                && k > 0
                && self.tok(k - 1).is_punct("."))
            {
                continue;
            }
            let close = self.paren_close(k + 1);
            // Direct field form `recv.FIELD.lock()`, else the helper
            // form `recv.lock(&path.FIELD)`.
            let mut lock = None;
            if k >= 2
                && self.tok(k - 2).kind == TokenKind::Ident
                && locks.contains(&self.tok(k - 2).text)
            {
                lock = Some(self.tok(k - 2).text.clone());
            }
            if lock.is_none() {
                for a in (k + 2..close).rev() {
                    if self.tok(a).kind == TokenKind::Ident && locks.contains(&self.tok(a).text) {
                        lock = Some(self.tok(a).text.clone());
                        break;
                    }
                }
            }
            let Some(lock) = lock else { continue };
            let (region, guard) = self.guard_region(k, close);
            out.push(Acq {
                lock,
                line: self.tok(k).line,
                site: k,
                region,
                guard,
            });
        }
        out
    }

    /// Computes the guard-live region for the acquisition at `k` (call
    /// closing at `close`). See the module docs for the cases.
    fn guard_region(&self, k: usize, close: usize) -> (Range, Option<String>) {
        let start = self.stmt_start(k);
        let stmt_end = self.stmt_end(k);
        let start_tok = self.tok(start);
        if !self.lock_result_is_guard(close) {
            // Temporary consumed in-statement. `if`/`while` condition
            // temporaries die before the body runs; `for` iterator and
            // `match` scrutinee temporaries live through the construct.
            let end = if start_tok.is_ident("if") || start_tok.is_ident("while") {
                self.body_open_after(close).unwrap_or(stmt_end)
            } else {
                stmt_end
            };
            return ((k + 1, end), None);
        }
        if start_tok.is_ident("let") {
            let mut g = start + 1;
            if g < self.code.len() && self.tok(g).is_ident("mut") {
                g += 1;
            }
            if g >= self.code.len() {
                return ((k + 1, stmt_end), None);
            }
            let name = &self.tok(g).text;
            let guard = (self.tok(g).kind == TokenKind::Ident
                && name != "_"
                && name
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_lowercase() || c == '_'))
            .then(|| name.clone());
            if guard.is_none() && self.tok(g).is_ident("_") {
                // `let _ = ….lock();` drops the guard immediately.
                return ((k + 1, stmt_end), None);
            }
            // The guard drops when its scope closes: include the `}` so
            // the region's last token names the line the guard dies on.
            let mut end = self.enclosing_block_close(stmt_end) + 1;
            if let Some(g) = &guard {
                // `drop(g)` ends the region early.
                let mut d = stmt_end;
                while d + 2 < end {
                    if self.tok(d).is_ident("drop")
                        && self.tok(d + 1).is_punct("(")
                        && self.tok(d + 2).is_ident(g)
                    {
                        end = d + 1;
                        break;
                    }
                    d += 1;
                }
            }
            return ((k + 1, end), guard);
        }
        if (start_tok.is_ident("if") || start_tok.is_ident("while"))
            && (start..k).any(|j| self.tok(j).is_ident("let"))
        {
            // `if let Ok(g) = ….lock() { body }`: the guard lives in
            // the body block.
            if let Some(open) = self.body_open_after(close) {
                let body_close = self
                    .open_to_close
                    .get(&open)
                    .copied()
                    .unwrap_or(self.code.len());
                return ((open + 1, body_close), None);
            }
        }
        // Tail expression / scrutinee / argument position: the
        // temporary lives to the end of the statement.
        ((k + 1, stmt_end), None)
    }

    /// The first depth-0 `{` after `from` (a conditional's body brace).
    fn body_open_after(&self, from: usize) -> Option<usize> {
        let mut depth = 0i32;
        for j in from + 1..self.code.len() {
            let t = self.tok(j);
            if t.is_punct("(") || t.is_punct("[") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") {
                depth -= 1;
            } else if t.is_punct("{") && depth <= 0 {
                return Some(j);
            } else if t.is_punct(";") && depth <= 0 {
                return None;
            }
        }
        None
    }

    /// Lowercase call targets inside `[lo, hi)` as `(code index, name)`.
    fn calls_in(&self, (lo, hi): Range) -> Vec<(usize, String)> {
        let mut out = Vec::new();
        for k in lo..hi.min(self.code.len()) {
            let t = self.tok(k);
            if t.kind == TokenKind::Ident
                && t.text
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_lowercase() || c == '_')
                && k + 1 < self.code.len()
                && self.tok(k + 1).is_punct("(")
            {
                out.push((k, t.text.clone()));
            }
        }
        out
    }

    /// Whether this body contains a direct blocking primitive or kernel
    /// entry anywhere (the transitive-blocking seed).
    fn blocks_directly(&self) -> bool {
        (0..self.code.len()).any(|k| self.blocking_kind(k).is_some())
    }

    /// Classifies the call at `k` (if any) as a blocking primitive or a
    /// kernel entry, returning a description for the report.
    fn blocking_kind(&self, k: usize) -> Option<String> {
        let t = self.tok(k);
        if t.kind != TokenKind::Ident || k + 1 >= self.code.len() || !self.tok(k + 1).is_punct("(")
        {
            return None;
        }
        if KERNEL_ENTRIES.contains(&t.text.as_str()) {
            return Some(format!("kernel entry `{}(`", t.text));
        }
        let prefixed = k > 0 && (self.tok(k - 1).is_punct(".") || self.tok(k - 1).is_punct("::"));
        if prefixed && BLOCKING_METHODS.contains(&t.text.as_str()) {
            return Some(format!("call `.{}(`", t.text));
        }
        None
    }

    /// Blocking sites inside one guard region: direct primitives (minus
    /// the consumed-guard wait exemption) plus calls into transitively-
    /// blocking workspace functions.
    fn blocking_sites(
        &self,
        (lo, hi): Range,
        guard: Option<&str>,
        blocking: &HashSet<String>,
    ) -> Vec<(usize, String)> {
        let mut out = Vec::new();
        for k in lo..hi.min(self.code.len()) {
            if let Some(what) = self.blocking_kind(k) {
                // `cv.wait(guard)` consumes this region's guard: the
                // lock is released for the duration of the wait.
                let consumes_guard = WAIT_METHODS.iter().any(|w| self.tok(k).is_ident(w))
                    && guard.is_some()
                    && self.first_arg_ident(k).as_deref() == guard;
                if !consumes_guard {
                    out.push((k, what));
                }
                continue;
            }
            let t = self.tok(k);
            if t.kind == TokenKind::Ident
                && blocking.contains(&t.text)
                && k + 1 < self.code.len()
                && self.tok(k + 1).is_punct("(")
                && self.is_strict_call(k)
            {
                out.push((k, format!("call `{}(` (blocks transitively)", t.text)));
            }
        }
        out
    }

    /// Whether the call at `k` is a strict form — a free call or a
    /// `self.`-method. Mirrors [`crate::callgraph::call_targets`]'s
    /// strict criterion: transitive blocking facts are keyed by bare fn
    /// name, so matching them at `.name(`/`Path::name(` positions would
    /// flag every atomic `.load(` or `Arc::new(` that happens to share a
    /// name with a blocking workspace fn.
    fn is_strict_call(&self, k: usize) -> bool {
        if k == 0 {
            return true;
        }
        let prev = self.tok(k - 1);
        if prev.is_punct("::") {
            return false;
        }
        if !prev.is_punct(".") {
            return true;
        }
        k >= 2 && self.tok(k - 2).is_ident("self")
    }

    /// Calls `cv.<method>(` where `cv` is a known condvar field, for
    /// the methods given. Returns `(code index, condvar name)`.
    fn condvar_calls(&self, condvars: &BTreeSet<String>, methods: &[&str]) -> Vec<(usize, String)> {
        let mut out = Vec::new();
        for k in 2..self.code.len() {
            let t = self.tok(k);
            if t.kind == TokenKind::Ident
                && methods.iter().any(|m| t.is_ident(m))
                && self.tok(k - 1).is_punct(".")
                && self.tok(k - 2).kind == TokenKind::Ident
                && condvars.contains(&self.tok(k - 2).text)
                && k + 1 < self.code.len()
                && self.tok(k + 1).is_punct("(")
            {
                out.push((k, self.tok(k - 2).text.clone()));
            }
        }
        out
    }

    /// The first argument of the call at `k` when it is a bare ident.
    fn first_arg_ident(&self, k: usize) -> Option<String> {
        let arg = self.code.get(k + 2).map(|_| self.tok(k + 2))?;
        (arg.kind == TokenKind::Ident).then(|| arg.text.clone())
    }

    /// R19's wait placement check: `None` when the wait at `k` sits in
    /// a loop that can re-test its predicate, otherwise a description
    /// of the problem.
    fn wait_loop_problem(&self, block: &Block, k: usize) -> Option<&'static str> {
        let mut loops = Vec::new();
        collect_loops(block, &mut loops);
        let containing: Vec<&(&'static str, Range, Range)> = loops
            .iter()
            .filter(|(kw, head, body)| {
                (k >= body.0 && k < body.1) || (*kw == "while" && k >= head.0 && k < head.1)
            })
            .collect();
        let Some(innermost) = containing.iter().max_by_key(|(_, _, body)| body.0) else {
            return Some("is not inside a predicate loop: a spurious wakeup falls through");
        };
        if innermost.0 == "while" {
            return None;
        }
        let (lo, hi) = innermost.2;
        let has_exit = (lo..hi.min(self.code.len()))
            .any(|j| self.tok(j).is_ident("break") || self.tok(j).is_ident("return"));
        if has_exit {
            None
        } else {
            Some("sits in a loop with no conditional exit: the predicate is never re-tested")
        }
    }

    /// Spawn call sites (`spawn(` with any receiver/path prefix).
    fn spawn_sites(&self) -> Vec<usize> {
        (0..self.code.len())
            .filter(|&k| {
                self.tok(k).is_ident("spawn")
                    && k + 1 < self.code.len()
                    && self.tok(k + 1).is_punct("(")
            })
            .collect()
    }

    /// Whether the spawn at `k` is scoped: called on a scope handle, or
    /// the body uses `thread::scope` (the handle cannot outlive it).
    fn is_scoped_spawn(&self, k: usize) -> bool {
        if k >= 2 && self.tok(k - 1).is_punct(".") && self.tok(k - 2).is_ident("scope") {
            return true;
        }
        (1..self.code.len())
            .any(|j| self.tok(j).is_ident("scope") && self.tok(j - 1).is_punct("::"))
    }

    /// Whether the spawn's handle escapes the statement: pushed into a
    /// collection, mentioned as a `JoinHandle`, or returned (per the
    /// function's rendered return type).
    fn handle_escapes(&self, k: usize, ret: Option<&str>) -> bool {
        if ret.is_some_and(|r| r.contains("JoinHandle")) {
            return true;
        }
        let (lo, hi) = (self.stmt_start(k), self.stmt_end(k));
        (lo..hi.min(self.code.len())).any(|j| {
            let t = self.tok(j);
            t.is_ident("JoinHandle")
                || ((t.is_ident("push") || t.is_ident("push_back") || t.is_ident("insert"))
                    && j + 1 < self.code.len()
                    && self.tok(j + 1).is_punct("("))
        })
    }
}

/// Collects `(keyword, head, body range)` for every loop in the block,
/// embedded and nested ones included.
fn collect_loops(b: &Block, out: &mut Vec<(&'static str, Range, Range)>) {
    for s in &b.stmts {
        collect_stmt_loops(s, out);
    }
}

fn collect_stmt_loops(s: &Stmt, out: &mut Vec<(&'static str, Range, Range)>) {
    match s {
        Stmt::Loop(l) => {
            out.push((l.keyword, l.head, l.body.range));
            collect_loops(&l.body, out);
        }
        Stmt::Block(b) => collect_loops(b, out),
        Stmt::If { arms, .. } => arms.iter().for_each(|a| collect_loops(a, out)),
        Stmt::Match { arms, .. } => arms.iter().for_each(|(_, a)| collect_loops(a, out)),
        Stmt::Simple { inner, .. } => inner.iter().for_each(|st| collect_stmt_loops(st, out)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::ItemKind;

    /// Scans the first fn in `src` and returns each acquisition as
    /// `(lock, guard, first line, last line)` of its live region.
    fn regions(src: &str, lock_names: &[&str]) -> Vec<(String, Option<String>, usize, usize)> {
        let file = SourceFile::scan(src);
        let item = file
            .items
            .iter()
            .find(|i| i.kind == ItemKind::Fn)
            .expect("fixture declares a fn")
            .clone();
        let (code, _) = crate::cfg::parse_body(&file, (item.sig_end, item.span.1));
        let scan = FnScan::new(&file, &code);
        let locks: HashSet<String> = lock_names.iter().map(|s| s.to_string()).collect();
        scan.acquisitions(&locks)
            .into_iter()
            .map(|a| {
                let (lo, hi) = a.region;
                let first = scan.tok(lo.min(code.len() - 1)).line;
                let last = scan.tok(hi.saturating_sub(1).min(code.len() - 1)).line;
                (a.lock, a.guard, first, last)
            })
            .collect()
    }

    #[test]
    fn let_binding_region_runs_to_scope_end() {
        let r = regions(
            "fn f(s: &S) {\n\
             let mut g = s.queue.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n\
             g.push(1);\n\
             after();\n\
             }",
            &["queue"],
        );
        assert_eq!(r.len(), 1);
        let (lock, guard, _, last) = &r[0];
        assert_eq!(lock, "queue");
        assert_eq!(guard.as_deref(), Some("g"));
        assert_eq!(*last, 5, "guard lives to the closing brace");
    }

    #[test]
    fn chained_consumer_is_a_temporary() {
        let r = regions(
            "fn f(s: &S) -> bool {\n\
             let idle = s.lock(&s.queue).is_empty() && s.flag();\n\
             slow();\n\
             idle\n\
             }",
            &["queue"],
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].1, None, "consumed temporary has no guard binding");
        assert_eq!(r[0].3, 2, "region ends with its statement");
    }

    #[test]
    fn drop_truncates_the_region() {
        let r = regions(
            "fn f(s: &S) {\n\
             let g = s.epoch.lock().unwrap();\n\
             use_it(&g);\n\
             drop(g);\n\
             blockish();\n\
             }",
            &["epoch"],
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].3, 4, "region ends at drop(g)");
    }

    #[test]
    fn match_binding_region_runs_to_scope_end() {
        let r = regions(
            "fn f(s: &S) {\n\
             let g = match s.spans.lock() {\n\
             Ok(g) => g,\n\
             Err(p) => p.into_inner(),\n\
             };\n\
             g.note();\n\
             }",
            &["spans"],
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].1.as_deref(), Some("g"));
        assert_eq!(r[0].3, 7);
    }

    #[test]
    fn if_let_region_is_the_body() {
        let r = regions(
            "fn f(s: &S) {\n\
             if let Ok(mut sink) = s.sink.lock() {\n\
             sink.push(1);\n\
             }\n\
             after();\n\
             }",
            &["sink"],
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].3, 3, "region is the if-let body");
    }

    #[test]
    fn while_condition_temporary_ends_before_body() {
        let r = regions(
            "fn f(s: &S) {\n\
             while s.queue.lock().unwrap().is_empty() {\n\
             slow();\n\
             }\n\
             }",
            &["queue"],
        );
        assert_eq!(r.len(), 1);
        assert!(r[0].3 <= 2, "condition temporary dies before the body");
    }

    #[test]
    fn helper_form_resolves_the_field_argument() {
        let r = regions(
            "fn f(s: &S) {\n\
             let mut q = s.lock(&s.queue);\n\
             q.pop();\n\
             }",
            &["queue", "epoch"],
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].0, "queue");
        assert_eq!(r[0].1.as_deref(), Some("q"));
    }

    #[test]
    fn sync_fields_skip_imports_and_params() {
        let file = SourceFile::scan(
            "use std::sync::{Condvar, Mutex};\n\
             struct S {\n\
             queue: Mutex<Vec<u32>>,\n\
             available: Condvar,\n\
             }\n\
             fn helper<T>(m: &Mutex<T>) {}\n\
             fn mk() -> Mutex<u32> { Mutex::new(0) }\n",
        );
        let fields = sync_fields(&file);
        assert_eq!(
            fields,
            vec![
                ("queue".to_string(), false),
                ("available".to_string(), true)
            ]
        );
    }
}
