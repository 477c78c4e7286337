//! The `nsky` subcommands.

use crate::args::Args;
use nsky_centrality::neisky::{nei_sky_group_with, NeiSkyGroupInput, NeiSkyOutcome};
use nsky_graph::{io, Graph, VertexId};
use nsky_skyline::budget::{Completion, DeadlineClock, ExecutionBudget, TripClock, WallDeadline};
use nsky_skyline::exec::ExecutionContext;
use nsky_skyline::obs::{CountingRecorder, Recorder, RunReport};
use nsky_skyline::snapshot::{
    Checkpointer, FileCheckpointer, RecoveryError, ResumableRun, Snapshot,
};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A command failure, split by exit code: usage errors (bad flags or
/// names) exit 1, input errors (unreadable or malformed files) exit 2.
#[derive(Debug)]
pub(crate) enum CliError {
    /// The command line itself is wrong.
    Usage(String),
    /// The command line is fine but a file could not be read or written.
    Input(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) | CliError::Input(msg) => f.write_str(msg),
        }
    }
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Usage(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> Self {
        CliError::Usage(msg.to_string())
    }
}

/// What a subcommand hands back to `main` for printing and exit-code
/// selection.
#[derive(Debug)]
pub(crate) struct CmdOut {
    /// Text for stdout.
    pub text: String,
    /// The run's budget status (non-`Complete` exits 3).
    pub completion: Completion,
    /// `--resume` was requested but the checkpoint was unusable and the
    /// run continued fresh (exits 4, overriding 0/3).
    pub degraded: bool,
    /// Warnings for stderr (checkpoint load/save problems).
    pub warnings: Vec<String>,
}

impl CmdOut {
    /// Output of a command that always runs to completion.
    pub(crate) fn complete(text: String) -> CmdOut {
        CmdOut {
            text,
            completion: Completion::Complete,
            degraded: false,
            warnings: Vec::new(),
        }
    }
}

fn load(args: &Args) -> Result<Graph, CliError> {
    let path = args
        .positionals
        .get(1)
        .ok_or("expected an edge-list file argument")?;
    let cap: VertexId = args.number("max-vertex-id", io::DEFAULT_MAX_VERTEX_ID)?;
    io::read_edge_list_file_capped(Path::new(path), cap)
        .map_err(|e| CliError::Input(format!("{path}: {e}")))
}

/// `tripped` markers of a [`RecordingDeadline`].
const TRIPPED_NONE: u8 = 0;
const TRIPPED_TIMEOUT: u8 = 1;
const TRIPPED_TRIP_AFTER: u8 = 2;

/// `--timeout` and `--trip-after` combined into one clock that records
/// *which* flag expired first, so the exit-code-3 status line names the
/// tripping budget instead of guessing.
struct RecordingDeadline {
    wall: Option<WallDeadline>,
    trip: Option<TripClock>,
    tripped: AtomicU8,
}

impl DeadlineClock for RecordingDeadline {
    fn expired(&self) -> bool {
        // The deterministic fault clock is consulted first so
        // `--trip-after N` keeps its exact poll-count semantics.
        if let Some(t) = &self.trip {
            if t.expired() {
                let _ = self.tripped.compare_exchange(
                    TRIPPED_NONE,
                    TRIPPED_TRIP_AFTER,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                );
                return true;
            }
        }
        if let Some(w) = &self.wall {
            if w.expired() {
                let _ = self.tripped.compare_exchange(
                    TRIPPED_NONE,
                    TRIPPED_TIMEOUT,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                );
                return true;
            }
        }
        false
    }
}

/// The flags a budget was configured from, plus the recording clock, so
/// a tripped run can report which budget was responsible.
struct BudgetReport {
    clock: Option<Arc<RecordingDeadline>>,
    timeout: Option<String>,
    trip_after: Option<String>,
    memory_mb: Option<String>,
}

impl BudgetReport {
    /// The flag (with its value) behind a trip, e.g. `--trip-after 17`.
    fn cause(&self, completion: Completion) -> Option<String> {
        match completion {
            Completion::DeadlineExceeded => {
                let which = self
                    .clock
                    .as_ref()
                    .map_or(TRIPPED_NONE, |c| c.tripped.load(Ordering::Relaxed));
                match which {
                    TRIPPED_TIMEOUT => self.timeout.as_ref().map(|v| format!("--timeout {v}")),
                    TRIPPED_TRIP_AFTER => self
                        .trip_after
                        .as_ref()
                        .map(|v| format!("--trip-after {v}")),
                    _ => None,
                }
            }
            Completion::MemoryCapped => self
                .memory_mb
                .as_ref()
                .map(|v| format!("--memory-budget {v}")),
            Completion::Cancelled => Some("cancellation".to_string()),
            _ => None,
        }
    }
}

/// Builds the execution budget shared by `skyline`, `clique` and `group`
/// from `--timeout` / `--memory-budget` / `--trip-after` /
/// `--check-interval`. With none of those flags the budget is inert and
/// the budgeted kernels produce byte-identical open-loop results. Both
/// deadline flags may be given together; whichever expires first trips
/// the run and is named in the status line.
fn budget_from(args: &Args) -> Result<(ExecutionBudget, BudgetReport), CliError> {
    let mut budget = ExecutionBudget::unlimited();
    let mut report = BudgetReport {
        clock: None,
        timeout: None,
        trip_after: None,
        memory_mb: None,
    };
    let wall = match args.get("timeout") {
        None => None,
        Some(v) => {
            let secs: f64 = v
                .parse()
                .map_err(|_| format!("option --timeout: cannot parse {v:?}"))?;
            if !secs.is_finite() || secs < 0.0 {
                return Err(CliError::Usage(format!(
                    "option --timeout expects a finite number of seconds >= 0, got {v}"
                )));
            }
            report.timeout = Some(v.to_string());
            Some(WallDeadline::after(Duration::from_secs_f64(secs)))
        }
    };
    let trip = match args.get("trip-after") {
        None => None,
        Some(v) => {
            // Fault injection: a deterministic clock that expires on the
            // N-th budget poll.
            let n: u64 = args.number("trip-after", 1)?;
            report.trip_after = Some(v.to_string());
            Some(TripClock::at_poll(n))
        }
    };
    if wall.is_some() || trip.is_some() {
        let clock = Arc::new(RecordingDeadline {
            wall,
            trip,
            tripped: AtomicU8::new(TRIPPED_NONE),
        });
        report.clock = Some(Arc::clone(&clock));
        budget = budget.deadline(clock);
    }
    if let Some(v) = args.get("memory-budget") {
        let mb: usize = args.number("memory-budget", 0)?;
        report.memory_mb = Some(v.to_string());
        budget = budget.memory_cap(mb.saturating_mul(1024 * 1024));
    }
    if args.get("check-interval").is_some() {
        let ticks: u32 = args.number("check-interval", 0)?;
        if ticks == 0 {
            return Err(CliError::Usage(
                "option --check-interval must be at least 1".to_string(),
            ));
        }
        budget = budget.check_interval(ticks);
    }
    Ok((budget, report))
}

/// Validated worker-thread count for the parallel kernel. The library
/// contract ([`nsky_skyline::filter_refine_sky_par`]) panics on zero
/// workers, so the CLI rejects `--threads 0` with a proper error before
/// the kernel ever sees it.
fn threads_from(args: &Args) -> Result<usize, String> {
    let default = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads: usize = args.number("threads", default)?;
    if threads == 0 {
        return Err(
            "option --threads must be at least 1 (the parallel kernel needs a worker thread)"
                .to_string(),
        );
    }
    Ok(threads)
}

/// Appends the anytime-status line for a tripped run, naming the budget
/// flag responsible when the recording clock knows it.
fn status_line(out: &mut String, completion: Completion, report: &BudgetReport) {
    if !completion.is_complete() {
        let _ = match report.cause(completion) {
            Some(cause) => writeln!(
                out,
                "status = {completion} (tripped by {cause}; partial result: \
                 best answer verified before the trip)"
            ),
            None => writeln!(
                out,
                "status = {completion} (partial result: best answer verified before the trip)"
            ),
        };
    }
}

/// Default polls between periodic checkpoints (`--checkpoint-interval`).
const DEFAULT_CHECKPOINT_INTERVAL: u64 = 1024;

/// Parsed `--checkpoint` / `--checkpoint-interval` / `--resume` state.
struct Checkpointing {
    sink: Option<FileCheckpointer>,
    resume: Option<Snapshot>,
    path: Option<String>,
    degraded: bool,
    warnings: Vec<String>,
}

impl Checkpointing {
    /// Whether any checkpoint flag is present (for rejecting them on
    /// algorithms without resumable entry points).
    fn requested(args: &Args) -> bool {
        args.get("checkpoint").is_some()
            || args.switch("resume")
            || args.get("checkpoint-interval").is_some()
    }

    /// The sink for the kernel's periodic checkpoints.
    fn sink(&mut self) -> Option<&mut dyn Checkpointer> {
        self.sink.as_mut().map(|s| s as &mut dyn Checkpointer)
    }

    /// Records that a requested resume degraded to a fresh run.
    fn degrade(&mut self, path: &str, err: &RecoveryError) {
        self.degraded = true;
        self.warnings
            .push(format!("checkpoint {path}: {err}; continuing fresh"));
    }
}

/// Arms periodic checkpointing on `budget` and loads the `--resume`
/// snapshot. An unusable checkpoint (missing, torn, corrupt, or from a
/// different graph or kernel — the latter two detected later by the
/// resume driver) is never trusted: the run degrades to a fresh start,
/// warns, and exits with code 4.
fn checkpoint_from(args: &Args, budget: &ExecutionBudget) -> Result<Checkpointing, CliError> {
    let mut ck = Checkpointing {
        sink: None,
        resume: None,
        path: None,
        degraded: false,
        warnings: Vec::new(),
    };
    let Some(path) = args.get("checkpoint") else {
        if args.switch("resume") {
            return Err(CliError::Usage(
                "--resume requires --checkpoint <path>".to_string(),
            ));
        }
        if args.get("checkpoint-interval").is_some() {
            return Err(CliError::Usage(
                "--checkpoint-interval requires --checkpoint <path>".to_string(),
            ));
        }
        return Ok(ck);
    };
    let interval: u64 = args.number("checkpoint-interval", DEFAULT_CHECKPOINT_INTERVAL)?;
    if interval == 0 {
        return Err(CliError::Usage(
            "option --checkpoint-interval must be at least 1".to_string(),
        ));
    }
    budget.set_checkpoint_period(interval);
    if args.switch("resume") {
        match Snapshot::load(Path::new(path)) {
            Ok(snap) => ck.resume = Some(snap),
            Err(err) => ck.degrade(path, &err),
        }
    }
    ck.sink = Some(FileCheckpointer::new(path));
    ck.path = Some(path.to_string());
    Ok(ck)
}

/// Folds a finished resumable run into [`CmdOut`]: records a resume that
/// the driver rejected (wrong graph/kernel), persists the final state of
/// a tripped run so `--resume` can continue it, and removes the
/// checkpoint file once the run completes.
fn seal(
    mut out: String,
    completion: Completion,
    recovery: Option<RecoveryError>,
    snapshot: Option<Snapshot>,
    mut ck: Checkpointing,
    report: &BudgetReport,
) -> CmdOut {
    if let (Some(err), Some(path)) = (&recovery, ck.path.clone()) {
        ck.degrade(&path, err);
    }
    status_line(&mut out, completion, report);
    if let Some(path) = &ck.path {
        if completion.is_complete() {
            let _ = std::fs::remove_file(path);
        } else if let Some(snap) = &snapshot {
            match snap.save(Path::new(path)) {
                Ok(()) => {
                    let _ = writeln!(out, "checkpoint = {path} (resume with --resume)");
                }
                Err(err) => ck
                    .warnings
                    .push(format!("checkpoint {path}: {err} (final state not saved)")),
            }
        }
    }
    CmdOut {
        text: out,
        completion,
        degraded: ck.degraded,
        warnings: ck.warnings,
    }
}

/// Parsed `--metrics <path>`: a [`CountingRecorder`] armed when the flag
/// is present, plus the path the versioned JSON run report is written to
/// once the command finishes. Without the flag every method is a no-op,
/// so the instrumented command paths stay branch-free at the call sites.
struct Metrics {
    rec: Option<CountingRecorder>,
    path: Option<String>,
}

impl Metrics {
    /// Whether `--metrics` is present (for rejecting it on algorithms
    /// without instrumented entry points).
    fn requested(args: &Args) -> bool {
        args.get("metrics").is_some()
    }

    fn from(args: &Args) -> Metrics {
        let path = args.get("metrics").map(str::to_string);
        Metrics {
            rec: path.as_ref().map(|_| CountingRecorder::new()),
            path,
        }
    }

    /// The live recorder, if `--metrics` was given.
    fn recorder(&self) -> Option<&CountingRecorder> {
        self.rec.as_ref()
    }

    fn phase_start(&self, name: &'static str) {
        if let Some(rec) = &self.rec {
            rec.phase_start(name);
        }
    }

    fn phase_end(&self, name: &'static str) {
        if let Some(rec) = &self.rec {
            rec.phase_end(name);
        }
    }

    /// Builds the run report from the recorder and the sealed command
    /// output — budget trips, degraded resumes and checkpoint saves
    /// become report events — then writes it to the `--metrics` path and
    /// appends a `metrics = <path>` line to the command's stdout text.
    fn seal(
        self,
        cmd: &mut CmdOut,
        kernel: &str,
        fingerprint: u64,
        budget: &BudgetReport,
    ) -> Result<(), CliError> {
        let (Some(rec), Some(path)) = (self.rec, self.path) else {
            return Ok(());
        };
        let mut report = RunReport::from_recorder(kernel, fingerprint, cmd.completion, &rec);
        if let Some(cause) = budget.cause(cmd.completion) {
            report.push_event(format!("budget tripped by {cause}"));
        }
        if cmd.degraded {
            report.push_event("resume degraded to a fresh run");
        }
        for w in &cmd.warnings {
            report.push_event(format!("warning: {w}"));
        }
        if let Some(line) = cmd.text.lines().find(|l| l.starts_with("checkpoint = ")) {
            report.push_event(line);
        }
        let mut file =
            std::fs::File::create(&path).map_err(|e| CliError::Input(format!("{path}: {e}")))?;
        report
            .write_to(&mut file)
            .map_err(|e| CliError::Input(format!("{path}: {e}")))?;
        let _ = writeln!(cmd.text, "metrics = {path}");
        Ok(())
    }
}

/// One [`ExecutionContext`] from the budget / checkpoint / metrics flags
/// — the single carrier every instrumented kernel invocation receives.
/// The kernels flush their own counters and phase spans through the
/// context's recorder, so the CLI no longer mirrors any flush helper.
fn context_from<'a>(
    budget: &'a ExecutionBudget,
    resume: Option<&'a Snapshot>,
    ck: &'a mut Checkpointing,
    metrics: &'a Metrics,
) -> ExecutionContext<'a> {
    let mut ctx = ExecutionContext::new().budget(budget).resume(resume);
    if let Some(rec) = metrics.recorder() {
        ctx = ctx.recorder(rec);
    }
    ctx.checkpoint(ck.sink())
}

/// The context a NeiSky input is built under: the command's budget and
/// recorder. The build saves nothing to resume, so it runs before
/// [`checkpoint_from`] arms the checkpoint period.
fn build_context<'a>(budget: &'a ExecutionBudget, metrics: &'a Metrics) -> ExecutionContext<'a> {
    let ctx = ExecutionContext::new().budget(budget);
    match metrics.recorder() {
        Some(rec) => ctx.recorder(rec),
        None => ctx,
    }
}

/// A tripped input build's partial answer, as a run with no state to
/// save.
fn unsaved<T>(outcome: T) -> ResumableRun<T> {
    ResumableRun {
        outcome,
        snapshot: None,
        recovery: None,
    }
}

/// NeiSkyGC/NeiSkyGH on a built input, or a tripped build's partial
/// answer.
fn nei_sky_group_run<M: nsky_centrality::measure::GroupMeasure>(
    g: &Graph,
    built: Result<NeiSkyGroupInput<M>, NeiSkyOutcome>,
    k: usize,
    ctx: &mut ExecutionContext<'_>,
) -> ResumableRun<NeiSkyOutcome> {
    match built {
        Ok(input) => nei_sky_group_with(g, &input, k, true, ctx),
        Err(partial) => unsaved(partial),
    }
}

fn maybe_write(args: &Args, g: &Graph) -> Result<String, CliError> {
    match args.get("output") {
        None => Ok(String::new()),
        Some(path) => {
            let file =
                std::fs::File::create(path).map_err(|e| CliError::Input(format!("{path}: {e}")))?;
            io::write_edge_list(g, file).map_err(|e| CliError::Input(format!("{path}: {e}")))?;
            Ok(format!("wrote {path}\n"))
        }
    }
}

/// `nsky stats <file>`.
pub(crate) fn stats(args: &Args) -> Result<String, CliError> {
    let g = load(args)?;
    let s = nsky_graph::stats::graph_stats(&g);
    let (_, components) = nsky_graph::traversal::connected_components(&g);
    let deco = nsky_graph::degeneracy::core_decomposition(&g);
    let mut out = String::new();
    let _ = writeln!(out, "n = {}", s.n);
    let _ = writeln!(out, "m = {}", s.m);
    let _ = writeln!(out, "dmax = {}", s.dmax);
    let _ = writeln!(out, "avg degree = {:.2}", s.avg_degree);
    let _ = writeln!(out, "components = {components}");
    let _ = writeln!(out, "degeneracy = {}", deco.degeneracy);
    let _ = writeln!(
        out,
        "threshold graph = {}",
        nsky_graph::threshold::is_threshold(&g)
    );
    Ok(out)
}

/// Renders the `skyline` command's report for a computed skyline.
fn skyline_text(
    args: &Args,
    g: &Graph,
    name: &str,
    skyline: &[VertexId],
) -> Result<String, CliError> {
    let mut out = String::new();
    let _ = writeln!(out, "algorithm = {name}");
    let _ = writeln!(
        out,
        "|R| = {} of {} ({:.1}%)",
        skyline.len(),
        g.num_vertices(),
        100.0 * skyline.len() as f64 / g.num_vertices().max(1) as f64
    );
    if let Some(path) = args.get("output") {
        let body: String = skyline.iter().map(|u| format!("{u}\n")).collect();
        std::fs::write(path, body).map_err(|e| CliError::Input(format!("{path}: {e}")))?;
        let _ = writeln!(out, "wrote {path}");
    } else {
        let _ = writeln!(out, "skyline: {skyline:?}");
    }
    Ok(out)
}

/// `nsky skyline <file> [--algorithm ...] [--threads T] [--epsilon E]
/// [budget flags] [checkpoint flags] [-o out]`.
pub(crate) fn skyline(args: &Args) -> Result<CmdOut, CliError> {
    let metrics = Metrics::from(args);
    metrics.phase_start("load");
    let g = load(args)?;
    metrics.phase_end("load");
    let algo = args.get("algorithm").unwrap_or("refine");
    if let "cset" | "2hop" | "lcjoin" | "approx" = algo {
        let (budget, _) = budget_from(args)?;
        if budget.is_active() || Checkpointing::requested(args) || Metrics::requested(args) {
            return Err(CliError::Usage(format!(
                "algorithm {algo:?} does not support budget, checkpoint or metrics options \
                 (--timeout/--memory-budget/--trip-after/--checkpoint/--resume/--metrics); \
                 instrumented algorithms: refine, base, par"
            )));
        }
        let (name, skyline) = match algo {
            "cset" => ("BaseCSet", nsky_skyline::cset_sky(&g).skyline),
            "2hop" => ("Base2Hop", nsky_skyline::two_hop_sky(&g).skyline),
            "lcjoin" => ("LC-Join", nsky_setjoin::lc_join_skyline(&g).skyline),
            _ => {
                let eps: f64 = args.number("epsilon", 0.0)?;
                if !(0.0..1.0).contains(&eps) {
                    return Err(CliError::Usage(format!(
                        "--epsilon must lie in [0, 1), got {eps}"
                    )));
                }
                (
                    "ApproxSky",
                    nsky_skyline::approx::approx_sky(&g, eps).skyline,
                )
            }
        };
        return Ok(CmdOut::complete(skyline_text(args, &g, name, &skyline)?));
    }
    let (budget, report) = budget_from(args)?;
    let mut ck = checkpoint_from(args, &budget)?;
    let resume = ck.resume.take();
    let cfg = nsky_skyline::RefineConfig::default();
    metrics.phase_start("run");
    let (name, run) = {
        let mut ctx = context_from(&budget, resume.as_ref(), &mut ck, &metrics);
        match algo {
            "refine" => (
                "FilterRefineSky",
                nsky_skyline::filter_refine_sky_with(&g, &cfg, &mut ctx),
            ),
            "base" => ("BaseSky", nsky_skyline::base_sky_with(&g, &mut ctx)),
            "par" => {
                let threads = threads_from(args)?;
                (
                    "ParFilterRefineSky",
                    nsky_skyline::filter_refine_sky_par_with(&g, &cfg, threads, &mut ctx),
                )
            }
            other => return Err(CliError::Usage(format!("unknown algorithm {other:?}"))),
        }
    };
    metrics.phase_end("run");
    let out = skyline_text(args, &g, name, &run.outcome.skyline)?;
    let mut cmd = seal(
        out,
        run.outcome.completion,
        run.recovery,
        run.snapshot,
        ck,
        &report,
    );
    metrics.seal(&mut cmd, name, g.fingerprint(), &report)?;
    Ok(cmd)
}

/// `nsky group <file> -k K [--measure ...] [--no-prune] [budget flags]
/// [checkpoint flags]`.
pub(crate) fn group(args: &Args) -> Result<CmdOut, CliError> {
    let metrics = Metrics::from(args);
    metrics.phase_start("load");
    let g = load(args)?;
    metrics.phase_end("load");
    let k: usize = args.number("k", 5)?;
    let measure = args.get("measure").unwrap_or("closeness");
    let prune = !args.switch("no-prune");
    let mut out = String::new();
    match measure {
        "closeness" | "harmonic" => {
            use nsky_centrality::greedy::{greedy_group_with, GreedyOptions};
            use nsky_centrality::measure::{Closeness, Harmonic};
            let (budget, report) = budget_from(args)?;
            metrics.phase_start("run");
            let build_ctx = build_context(&budget, &metrics);
            let closeness = (prune && measure == "closeness")
                .then(|| NeiSkyGroupInput::build(&g, Closeness, None, &build_ctx));
            let harmonic = (prune && measure == "harmonic")
                .then(|| NeiSkyGroupInput::build(&g, Harmonic, None, &build_ctx));
            let mut ck = checkpoint_from(args, &budget)?;
            let resume = ck.resume.take();
            let opts = GreedyOptions::optimized();
            let (label, result, recovery, snapshot) = {
                let mut ctx = context_from(&budget, resume.as_ref(), &mut ck, &metrics);
                match (closeness, harmonic, measure) {
                    (Some(built), _, _) => {
                        let run = nei_sky_group_run(&g, built, k, &mut ctx);
                        ("NeiSkyGC", run.outcome.greedy, run.recovery, run.snapshot)
                    }
                    (_, Some(built), _) => {
                        let run = nei_sky_group_run(&g, built, k, &mut ctx);
                        ("NeiSkyGH", run.outcome.greedy, run.recovery, run.snapshot)
                    }
                    (_, _, "closeness") => {
                        let run = greedy_group_with(&g, Closeness, k, &opts, &mut ctx);
                        ("Greedy++", run.outcome, run.recovery, run.snapshot)
                    }
                    _ => {
                        let run = greedy_group_with(&g, Harmonic, k, &opts, &mut ctx);
                        ("Greedy-H", run.outcome, run.recovery, run.snapshot)
                    }
                }
            };
            metrics.phase_end("run");
            let _ = writeln!(out, "engine = {label} ({measure})");
            let _ = writeln!(out, "group: {:?}", result.group);
            let _ = writeln!(out, "score = {:.4}", result.score);
            let _ = writeln!(out, "gain evaluations = {}", result.gain_evaluations);
            let mut cmd = seal(out, result.completion, recovery, snapshot, ck, &report);
            metrics.seal(&mut cmd, label, g.fingerprint(), &report)?;
            Ok(cmd)
        }
        "betweenness" => {
            let (budget, _) = budget_from(args)?;
            if budget.is_active() || Checkpointing::requested(args) || Metrics::requested(args) {
                return Err(CliError::Usage(
                    "measure \"betweenness\" does not support budget, checkpoint or metrics \
                     options (--timeout/--memory-budget/--trip-after/--checkpoint/--resume/\
                     --metrics); instrumented measures: closeness, harmonic"
                        .to_string(),
                ));
            }
            use nsky_centrality::betweenness::{base_gb, nei_sky_gb};
            let result = if prune {
                nei_sky_gb(&g, k)
            } else {
                base_gb(&g, k)
            };
            let _ = writeln!(
                out,
                "engine = {} (betweenness)",
                if prune { "NeiSkyGB" } else { "BaseGB" }
            );
            let _ = writeln!(out, "group: {:?}", result.group);
            let _ = writeln!(out, "GB = {:.4}", result.score);
            Ok(CmdOut::complete(out))
        }
        other => Err(CliError::Usage(format!("unknown measure {other:?}"))),
    }
}

/// `nsky clique <file> [--top K] [--no-prune] [budget flags]
/// [checkpoint flags]`.
pub(crate) fn clique(args: &Args) -> Result<CmdOut, CliError> {
    let metrics = Metrics::from(args);
    metrics.phase_start("load");
    let g = load(args)?;
    metrics.phase_end("load");
    let top: usize = args.number("top", 1)?;
    let prune = !args.switch("no-prune");
    let (budget, report) = budget_from(args)?;
    metrics.phase_start("run");
    let built = (top <= 1 && prune)
        .then(|| nsky_clique::NeiSkyMcInput::build(&g, None, &build_context(&budget, &metrics)));
    let mut ck = checkpoint_from(args, &budget)?;
    let resume = ck.resume.take();
    let mut out = String::new();
    let (kernel, completion, recovery, snapshot) = if top <= 1 {
        let (label, c, completion, recovery, snapshot) = {
            let mut ctx = context_from(&budget, resume.as_ref(), &mut ck, &metrics);
            if let Some(built) = built {
                let run = match built {
                    Ok(input) => nsky_clique::nei_sky_mc_with(&g, &input, &mut ctx),
                    Err(partial) => unsaved(partial),
                };
                let o = run.outcome;
                (
                    "NeiSkyMC",
                    o.clique,
                    o.completion,
                    run.recovery,
                    run.snapshot,
                )
            } else {
                let run = nsky_clique::mc_brb_with(&g, &mut ctx);
                let o = run.outcome;
                ("MC-BRB", o.clique, o.completion, run.recovery, run.snapshot)
            }
        };
        let _ = writeln!(out, "engine = {label}");
        let _ = writeln!(out, "ω = {}", c.len());
        let _ = writeln!(out, "clique: {c:?}");
        (label, completion, recovery, snapshot)
    } else {
        let mode = if prune {
            nsky_clique::TopkMode::NeiSky
        } else {
            nsky_clique::TopkMode::Base
        };
        let run = {
            let mut ctx = context_from(&budget, resume.as_ref(), &mut ck, &metrics);
            nsky_clique::top_k_cliques_with(&g, top, mode, &mut ctx)
        };
        let _ = writeln!(out, "engine = {mode:?} top-{top}");
        for (i, c) in run.outcome.cliques.iter().enumerate() {
            let _ = writeln!(out, "#{}: size {} {:?}", i + 1, c.len(), c);
        }
        let kernel = if prune {
            "NeiSkyTopkMCC"
        } else {
            "BaseTopkMCC"
        };
        (kernel, run.outcome.completion, run.recovery, run.snapshot)
    };
    metrics.phase_end("run");
    let mut cmd = seal(out, completion, recovery, snapshot, ck, &report);
    metrics.seal(&mut cmd, kernel, g.fingerprint(), &report)?;
    Ok(cmd)
}

/// `nsky update <edge-list> <delta-file> [budget flags]
/// [checkpoint flags] [--metrics path] [-o out.txt]`.
///
/// Loads the graph, applies the edge-delta stream through
/// [`nsky_skyline::MutableSkyline`] (incremental maintenance scoped to
/// the 2-hop regions of the touched endpoints) and reports the
/// resulting skyline. A tripped run commits an exact prefix of the
/// stream — the printed skyline is the exact answer for the graph
/// after `cursor` deltas — and `--checkpoint`/`--resume` continue it.
pub(crate) fn update(args: &Args) -> Result<CmdOut, CliError> {
    let metrics = Metrics::from(args);
    metrics.phase_start("load");
    let g = load(args)?;
    let delta_path = args
        .positionals
        .get(2)
        .ok_or("expected an edge-delta file argument (lines of `+ u v` / `- u v`)")?;
    let cap: VertexId = args.number("max-vertex-id", io::DEFAULT_MAX_VERTEX_ID)?;
    let file = std::fs::File::open(delta_path)
        .map_err(|e| CliError::Input(format!("{delta_path}: {e}")))?;
    let deltas = io::read_edge_deltas_limited(
        std::io::BufReader::new(file),
        cap,
        io::DEFAULT_MAX_LINE_BYTES,
    )
    .map_err(|e| CliError::Input(format!("{delta_path}: {e}")))?;
    // The engine panics on structurally invalid batches; the CLI turns
    // that into a proper input error up front.
    nsky_graph::validate_batch(&deltas, g.num_vertices())
        .map_err(|e| CliError::Input(format!("{delta_path}: {e}")))?;
    metrics.phase_end("load");
    let (budget, report) = budget_from(args)?;
    let mut ck = checkpoint_from(args, &budget)?;
    let resume = ck.resume.take();
    let fingerprint = g.fingerprint();
    let mut engine = nsky_skyline::MutableSkyline::new(g);
    metrics.phase_start("run");
    let run = {
        let mut ctx = context_from(&budget, resume.as_ref(), &mut ck, &metrics);
        engine.apply_batch_with(&deltas, &mut ctx)
    };
    metrics.phase_end("run");
    let o = &run.outcome;
    let mut out = String::new();
    let _ = writeln!(out, "engine = DynamicMaintain");
    let _ = writeln!(
        out,
        "deltas = {} of {} committed ({} applied, {} no-ops)",
        o.cursor, o.total, o.stats.applied, o.stats.skipped
    );
    let _ = writeln!(
        out,
        "dirty vertices = {} scoped refines = {}",
        o.stats.dirty_vertices, o.stats.scoped_refines
    );
    let n = engine.num_vertices();
    let _ = writeln!(
        out,
        "|R| = {} of {} ({:.1}%)",
        o.skyline.len(),
        n,
        100.0 * o.skyline.len() as f64 / n.max(1) as f64
    );
    if let Some(path) = args.get("output") {
        let body: String = o.skyline.iter().map(|u| format!("{u}\n")).collect();
        std::fs::write(path, body).map_err(|e| CliError::Input(format!("{path}: {e}")))?;
        let _ = writeln!(out, "wrote {path}");
    } else {
        let _ = writeln!(out, "skyline: {:?}", o.skyline);
    }
    let completion = o.completion;
    let mut cmd = seal(out, completion, run.recovery, run.snapshot, ck, &report);
    metrics.seal(&mut cmd, "DynamicMaintain", fingerprint, &report)?;
    Ok(cmd)
}

/// `nsky mis <file>`.
pub(crate) fn mis(args: &Args) -> Result<String, CliError> {
    let g = load(args)?;
    let set = nsky_clique::mis::reducing_peeling_mis(&g);
    debug_assert!(nsky_clique::mis::is_independent_set(&g, &set));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "independent set of size {} ({} vertices total)",
        set.len(),
        g.num_vertices()
    );
    let _ = writeln!(out, "members: {set:?}");
    Ok(out)
}

/// `nsky serve <edge-list> [--addr A] [--workers N] [--queue N]
/// [--request-timeout SECS] [--read-timeout SECS]`.
///
/// Blocks until a client sends `{"op":"shutdown"}`; the daemon then
/// drains in-flight requests and this returns the final counters. The
/// listening line is printed eagerly (before blocking) so callers can
/// discover the bound port.
pub(crate) fn serve(args: &Args) -> Result<String, CliError> {
    let g = load(args)?;
    let n = g.num_vertices();
    let mut config = nsky_server::ServerConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:7071").to_owned(),
        ..nsky_server::ServerConfig::default()
    };
    config.workers = args.number("workers", config.workers)?;
    config.queue_capacity = args.number("queue", config.queue_capacity)?;
    let read_timeout: f64 = args.number("read-timeout", 5.0)?;
    if read_timeout > 0.0 {
        config.read_timeout = Duration::from_secs_f64(read_timeout);
    }
    let request_timeout: f64 = args.number("request-timeout", 0.0)?;
    if request_timeout > 0.0 {
        config.default_timeout = Some(Duration::from_secs_f64(request_timeout));
    }
    let handle = nsky_server::Server::start(g, config)
        .map_err(|e| CliError::Input(format!("failed to start server: {e}")))?;
    // Printed eagerly: `run()` only prints after the daemon exits.
    println!(
        "nsky: serving on {} (n = {n}, send {{\"op\":\"shutdown\"}} to stop)",
        handle.addr()
    );
    let stats = handle.join();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "server drained: accepted = {} completed = {} partial = {} shed = {} \
         cancelled = {} protocol_errors = {}",
        stats.accepted,
        stats.completed,
        stats.partial,
        stats.shed,
        stats.cancelled,
        stats.protocol_errors
    );
    Ok(out)
}

/// `nsky generate <family> --n N [--seed S] [family params] [-o out]`.
pub(crate) fn generate(args: &Args) -> Result<String, CliError> {
    use nsky_graph::generators as gen;
    let family = args
        .positionals
        .get(1)
        .ok_or("expected a generator family")?
        .as_str();
    let n: usize = args.number("n", 1_000)?;
    let seed: u64 = args.number("seed", 42)?;
    let g = match family {
        "er" => gen::erdos_renyi(n, args.number("p", 0.01)?, seed),
        "powerlaw" => gen::power_law_configuration(n, args.number("beta", 2.8)?, 1, seed),
        "ba" => gen::barabasi_albert(n, args.number("m", 3)?, seed),
        "leafy" => gen::leafy_preferential(
            n,
            args.number("p-leaf", 0.9)?,
            args.number("extra", 1.0)?,
            args.number("m", 8)?,
            seed,
        ),
        "affiliation" => gen::affiliation_model(
            n,
            args.number("team-min", 4)?,
            args.number("team-max", 8)?,
            args.number("p-new", 0.7)?,
            seed,
        ),
        "copying" => gen::copying_model(n, args.number("m", 3)?, args.number("copy-p", 0.8)?, seed),
        "threshold" => {
            nsky_graph::threshold::random_threshold_graph(n, args.number("p", 0.5)?, seed)
        }
        "karate" => nsky_datasets::karate(),
        "bombing" => nsky_datasets::bombing(),
        other => {
            return Err(CliError::Usage(format!(
                "unknown generator family {other:?}"
            )))
        }
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "generated {family}: n = {} m = {} dmax = {}",
        g.num_vertices(),
        g.num_edges(),
        g.max_degree()
    );
    out.push_str(&maybe_write(args, &g)?);
    Ok(out)
}
