//! One execution context per kernel.
//!
//! Anytime execution under an [`ExecutionBudget`], crash-safe
//! checkpoint/resume through the [`crate::snapshot`] container and
//! bulk-flush observability through a [`Recorder`] must compose: a
//! long-lived server runs kernels budgeted, recorded, checkpointed and
//! cancellable at once.
//!
//! [`ExecutionContext`] composes the four infrastructure carriers —
//! budget (deadline + memory + cancel), checkpoint resume source,
//! checkpoint sink, recorder — each defaulting to a no-op, and every
//! kernel exposes exactly one `*_with(ctx)` entry point threaded
//! through the one generic [`drive`] poll loop:
//!
//! ```text
//!              ExecutionContext
//!              ┌───────────────────────────────────────────┐
//!              │ budget: &ExecutionBudget  (default: inert)│
//!              │   ├─ deadline clock      (--timeout)      │
//!              │   ├─ memory accountant   (--memory-budget)│
//!              │   └─ CancelToken         (cross-thread)   │
//!              │ resume: Option<&Snapshot> (default: none) │
//!              │ sink:   Option<&mut dyn Checkpointer>     │
//!              │ recorder: &dyn Recorder (default: no-op)  │
//!              └──────────────┬────────────────────────────┘
//!                             │ exec::drive(ctx, ..)
//!                             ▼
//!              ┌───────────────────────────────────────────┐
//!              │ snapshot::drive leg loop                  │
//!              │   unpack resume (degrade on corruption)   │
//!              │   run leg until Complete / trip /         │
//!              │     CheckpointDue → pack → sink → re-arm  │
//!              └───────────────────────────────────────────┘
//! ```
//!
//! There is exactly one poll loop, one resume path and one recorder
//! flush per kernel, and the composed fault matrix
//! (`tests/tests/fault_matrix.rs`) exercises every kernel under every
//! single fault and every pairwise fault combination through it.

use crate::budget::{CancelToken, Completion, ExecutionBudget};
use crate::obs::{NoopRecorder, Recorder};
use crate::snapshot::{self, Checkpointer, KernelState, ResumableRun, Snapshot};

/// The recorder behind a context nobody instrumented.
static NOOP: NoopRecorder = NoopRecorder;

/// Everything a kernel invocation runs under: budget, cancellation,
/// checkpointing and observability, composed into one value with no-op
/// defaults.
///
/// A default context is fully inert — unlimited budget, no resume
/// snapshot, no checkpoint sink, no-op recorder — so
/// `kernel_with(g, &mut ExecutionContext::new())` is the plain
/// uninstrumented run. Each capability is armed independently through
/// the builder methods, and *any subset* composes: a run can be
/// budgeted, cancellable, checkpointed and recorded all at once.
///
/// # Examples
///
/// ```
/// use nsky_graph::generators::special::star;
/// use nsky_skyline::base_sky_with;
/// use nsky_skyline::exec::ExecutionContext;
///
/// let g = star(5);
/// let run = base_sky_with(&g, &mut ExecutionContext::new());
/// assert_eq!(run.outcome.skyline, vec![0]);
/// assert!(run.snapshot.is_none()); // completed: nothing to resume
/// ```
pub struct ExecutionContext<'a> {
    /// Fallback budget when none was injected: unlimited, owned by the
    /// context so [`ExecutionContext::cancel_token`] and the drive loop
    /// always have a live budget to poll.
    owned: ExecutionBudget,
    budget: Option<&'a ExecutionBudget>,
    recorder: &'a dyn Recorder,
    resume: Option<&'a Snapshot>,
    sink: Option<&'a mut dyn Checkpointer>,
}

impl Default for ExecutionContext<'_> {
    fn default() -> Self {
        ExecutionContext::new()
    }
}

impl std::fmt::Debug for ExecutionContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutionContext")
            .field("budget_armed", &self.budget.is_some())
            .field("resume", &self.resume.is_some())
            .field("sink", &self.sink.is_some())
            .finish()
    }
}

impl<'a> ExecutionContext<'a> {
    /// A fully inert context: unlimited budget, no resume, no
    /// checkpoint sink, no-op recorder.
    pub fn new() -> ExecutionContext<'a> {
        ExecutionContext {
            owned: ExecutionBudget::unlimited(),
            budget: None,
            recorder: &NOOP,
            resume: None,
            sink: None,
        }
    }

    /// Arms an [`ExecutionBudget`] (deadline, memory cap, cancellation
    /// and checkpoint period all ride on it).
    pub fn budget(mut self, budget: &'a ExecutionBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Attaches an observability [`Recorder`]; kernels open their phase
    /// spans on it and bulk-flush their counters at exit.
    pub fn recorder(mut self, rec: &'a dyn Recorder) -> Self {
        self.recorder = rec;
        self
    }

    /// Feeds back a snapshot from an earlier interrupted run. An
    /// unusable snapshot (torn, corrupt, wrong graph or kernel) is
    /// never trusted: the run degrades to a clean fresh start, reported
    /// in [`ResumableRun::recovery`].
    pub fn resume(mut self, snapshot: Option<&'a Snapshot>) -> Self {
        self.resume = snapshot;
        self
    }

    /// Attaches a checkpoint sink, handed a freshly packed snapshot
    /// whenever the budget's checkpoint period elapses and at the final
    /// trip.
    pub fn checkpoint(mut self, sink: Option<&'a mut dyn Checkpointer>) -> Self {
        self.sink = sink;
        self
    }

    /// The budget the kernel polls: the injected one, or the context's
    /// own unlimited fallback.
    pub fn effective_budget(&self) -> &ExecutionBudget {
        self.budget.unwrap_or(&self.owned)
    }

    /// The attached recorder (the shared no-op if none was injected).
    /// Returns the full context lifetime so kernels can hold it across
    /// a mutable [`drive`] call.
    pub fn effective_recorder(&self) -> &'a dyn Recorder {
        self.recorder
    }

    /// A handle for cancelling this run from another thread. Taking a
    /// token arms cancellation polling on the effective budget; take it
    /// before starting the kernel.
    pub fn cancel_token(&self) -> CancelToken {
        self.effective_budget().cancel_token()
    }
}

/// Runs a kernel to completion (or a real trip) through its
/// checkpoint-aware leg function, under everything the context
/// composes. This is the single poll loop behind every `*_with` entry
/// point; see [`snapshot::drive`] for the leg contract (checkpoint
/// persistence, budget re-arming, and the period-doubling backoff that
/// keeps a slow step from livelocking the loop).
///
/// `leg` receives the state to continue from plus the effective budget,
/// and returns the outcome, the state at the stop point, and how the
/// leg ended.
pub fn drive<S: KernelState, T>(
    ctx: &mut ExecutionContext<'_>,
    graph_fingerprint: u64,
    initial: impl FnOnce() -> S,
    mut leg: impl FnMut(S, &ExecutionBudget) -> (T, S, Completion),
) -> ResumableRun<T> {
    let budget: &ExecutionBudget = ctx.budget.unwrap_or(&ctx.owned);
    snapshot::drive(
        budget,
        graph_fingerprint,
        ctx.resume,
        initial,
        |state| leg(state, budget),
        ctx.sink.as_deref_mut(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::TripClock;
    use crate::obs::CountingRecorder;

    #[test]
    fn default_context_is_inert() {
        let ctx = ExecutionContext::new();
        assert!(!ctx.effective_budget().is_active());
        assert_eq!(ctx.effective_budget().status(), Completion::Complete);
    }

    #[test]
    fn cancel_token_arms_the_owned_budget() {
        let ctx = ExecutionContext::new();
        let token = ctx.cancel_token();
        assert!(ctx.effective_budget().is_active());
        token.cancel();
        assert!(token.is_cancelled());
    }

    #[test]
    fn injected_budget_overrides_the_fallback() {
        let budget = ExecutionBudget::unlimited()
            .deadline(TripClock::at_poll(1))
            .check_interval(1);
        let ctx = ExecutionContext::new().budget(&budget);
        assert!(ctx.effective_budget().is_active());
        let mut ticker = ctx.effective_budget().ticker();
        assert_eq!(ticker.check(), Some(Completion::DeadlineExceeded));
    }

    #[test]
    fn recorder_defaults_to_noop_and_accepts_injection() {
        let rec = CountingRecorder::new();
        let ctx = ExecutionContext::new().recorder(&rec);
        ctx.effective_recorder().phase_start("p");
        ctx.effective_recorder().phase_end("p");
        assert_eq!(rec.phases().len(), 1);
        // The default context's recorder swallows everything.
        let ctx = ExecutionContext::new();
        ctx.effective_recorder().phase_start("q");
        ctx.effective_recorder().phase_end("q");
    }

    // Degenerate configurations a long-lived server hits in practice:
    // disarmed/every-poll checkpoint cadences, deadlines that expired
    // before the kernel even started, and recorder + cancel composed in
    // one context. `drive` must stay sound (partial ⊆ full) through all
    // of them.
    mod degenerate {
        use super::*;
        use crate::snapshot::{Checkpointer, RecoveryError, Snapshot};
        use crate::{base_sky, base_sky_with};
        use nsky_graph::Graph;
        use std::time::Duration;

        /// An in-memory sink that only counts saves.
        struct CountingSink {
            saves: usize,
        }

        impl Checkpointer for CountingSink {
            fn save(&mut self, _snapshot: &Snapshot) -> Result<(), RecoveryError> {
                self.saves += 1;
                Ok(())
            }
        }

        fn graph() -> Graph {
            // A double star plus a path: a skyline with both dominated
            // and undominated vertices.
            Graph::from_edges(
                8,
                [
                    (0, 1),
                    (0, 2),
                    (0, 3),
                    (4, 1),
                    (4, 2),
                    (4, 5),
                    (5, 6),
                    (6, 7),
                ],
            )
        }

        #[test]
        fn checkpoint_interval_zero_is_disarmed() {
            let g = graph();
            let budget = ExecutionBudget::unlimited().check_interval(1);
            budget.set_checkpoint_period(0);
            let mut sink = CountingSink { saves: 0 };
            let mut ctx = ExecutionContext::new()
                .budget(&budget)
                .checkpoint(Some(&mut sink));
            let run = base_sky_with(&g, &mut ctx);
            assert_eq!(run.outcome.completion, Completion::Complete);
            assert_eq!(run.outcome.skyline, base_sky(&g).skyline);
            assert_eq!(sink.saves, 0, "period 0 must never checkpoint");
        }

        #[test]
        fn checkpoint_interval_one_still_converges() {
            let g = graph();
            let budget = ExecutionBudget::unlimited().check_interval(1);
            budget.set_checkpoint_period(1);
            let mut sink = CountingSink { saves: 0 };
            let mut ctx = ExecutionContext::new()
                .budget(&budget)
                .checkpoint(Some(&mut sink));
            let run = base_sky_with(&g, &mut ctx);
            // A checkpoint due on *every* poll must not livelock: the
            // driver's period backoff still reaches a Complete leg, and
            // the answer matches the unbudgeted kernel.
            assert_eq!(run.outcome.completion, Completion::Complete);
            assert_eq!(run.outcome.skyline, base_sky(&g).skyline);
            assert!(sink.saves >= 1, "period 1 must checkpoint at least once");
        }

        #[test]
        fn expired_deadline_at_entry_returns_sound_partial_immediately() {
            let g = graph();
            let budget = ExecutionBudget::with_timeout(Duration::ZERO).check_interval(1);
            let mut ctx = ExecutionContext::new().budget(&budget);
            let run = base_sky_with(&g, &mut ctx);
            assert_eq!(run.outcome.completion, Completion::DeadlineExceeded);
            // Empty-but-sound: whatever made it in before the first poll
            // is a subset of the full skyline; nothing is invented.
            let full = base_sky(&g).skyline;
            assert!(run.outcome.skyline.iter().all(|v| full.contains(v)));
            assert!(run.outcome.skyline.len() < full.len());
        }

        #[test]
        fn recorder_and_cancel_compose_in_one_context() {
            let g = graph();
            let rec = CountingRecorder::new();
            let token = crate::budget::CancelToken::new();
            token.cancel();
            let budget = ExecutionBudget::unlimited()
                .check_interval(1)
                .cancelled_by(token);
            let mut ctx = ExecutionContext::new().budget(&budget).recorder(&rec);
            let run = base_sky_with(&g, &mut ctx);
            assert_eq!(run.outcome.completion, Completion::Cancelled);
            let full = base_sky(&g).skyline;
            assert!(run.outcome.skyline.iter().all(|v| full.contains(v)));
            // The recorder observed the run: stats were flushed once at
            // the end even though the kernel was cancelled mid-flight.
            assert_eq!(
                rec.value(crate::obs::Counter::CandidatesEmitted),
                run.outcome.stats.candidate_count as u64
            );
            assert_eq!(
                rec.value(crate::obs::Counter::PairTests),
                run.outcome.stats.pair_tests
            );
        }
    }
}
