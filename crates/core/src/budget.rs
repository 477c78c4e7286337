//! Budgeted, cancellable execution for every skyline kernel.
//!
//! The paper's worst cases are real: `BaseSky` is `O(m·dmax)`, the clique
//! branch and bound is exponential, and a production service cannot let
//! one pathological query hold a worker hostage. This module is the
//! workspace's single execution-control layer:
//!
//! * [`ExecutionBudget`] — a deadline (behind the injectable
//!   [`DeadlineClock`] trait so tests are deterministic), a cooperative
//!   cancellation flag shared across parallel refine workers, and an
//!   approximate memory accountant (bloom-filter bits and candidate/stamp
//!   arrays are charged against a cap before they are allocated).
//! * [`BudgetTicker`] — the per-worker hot-loop handle. Kernels call
//!   [`BudgetTicker::check`] once per inner-loop step; the ticker
//!   decrements a local countdown and only consults the shared budget
//!   every `check_interval` ticks, so the default (unlimited) path costs
//!   one branch per step and budgeted runs stay within ~2% of open-loop
//!   speed.
//! * [`Completion`] — the status attached to every kernel result
//!   ([`crate::SkylineResult`], clique outcomes, greedy group outcomes).
//!   Anything other than [`Completion::Complete`] marks an *anytime*
//!   partial answer: the kernel stopped within one check interval of the
//!   trip and returned its best-so-far result instead of panicking or
//!   running on.
//!
//! A trip is **sticky and shared**: the first worker that observes an
//! exhausted budget publishes the status, and every other ticker on the
//! same budget trips at its next poll. See DESIGN.md §7 for what a
//! partial skyline means soundness-wise.
//!
//! # Examples
//!
//! ```
//! use nsky_graph::generators::chung_lu_power_law;
//! use nsky_skyline::budget::{Completion, ExecutionBudget, TripClock};
//! use nsky_skyline::{base_sky_with, filter_refine_sky_with, ExecutionContext, RefineConfig};
//!
//! let g = chung_lu_power_law(300, 2.8, 5.0, 1);
//! // Unlimited budget: identical to the open-loop algorithms.
//! let unlimited = ExecutionBudget::unlimited();
//! let mut ctx = ExecutionContext::new().budget(&unlimited);
//! let full = filter_refine_sky_with(&g, &RefineConfig::default(), &mut ctx).outcome;
//! assert_eq!(full.completion, Completion::Complete);
//!
//! // A clock tripped deterministically at the 5th poll: the kernel
//! // stops and reports the candidates verified so far.
//! let budget = ExecutionBudget::unlimited()
//!     .deadline(TripClock::at_poll(5))
//!     .check_interval(1);
//! let partial = base_sky_with(&g, &mut ExecutionContext::new().budget(&budget)).outcome;
//! assert_eq!(partial.completion, Completion::DeadlineExceeded);
//! assert!(partial.skyline.len() <= full.skyline.len());
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a kernel run ended. Attached to every kernel result; anything
/// other than [`Completion::Complete`] marks a partial (anytime) answer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Completion {
    /// The kernel ran to completion; the result is exact and identical
    /// to the open-loop algorithm's output.
    #[default]
    Complete,
    /// The deadline clock expired; the result is the best answer found
    /// before the trip.
    DeadlineExceeded,
    /// The memory accountant refused an allocation; the result is the
    /// best answer reachable within the cap.
    MemoryCapped,
    /// The cooperative cancellation flag was raised.
    Cancelled,
    /// A driver-armed checkpoint period elapsed (see
    /// [`ExecutionBudget::set_checkpoint_period`]). The kernel unwound
    /// exactly as for a real trip and its partial state is ready to be
    /// snapshotted; the driver re-arms with
    /// [`ExecutionBudget::rearm_after_checkpoint`] and re-enters.
    CheckpointDue,
}

impl Completion {
    /// Whether the run finished without tripping any budget.
    #[inline]
    pub fn is_complete(self) -> bool {
        matches!(self, Completion::Complete)
    }

    /// Non-zero wire code for the sticky trip register.
    fn code(self) -> u8 {
        match self {
            Completion::Complete => 0,
            Completion::DeadlineExceeded => 1,
            Completion::MemoryCapped => 2,
            Completion::Cancelled => 3,
            Completion::CheckpointDue => 4,
        }
    }

    fn from_code(code: u8) -> Completion {
        match code {
            1 => Completion::DeadlineExceeded,
            2 => Completion::MemoryCapped,
            3 => Completion::Cancelled,
            4 => Completion::CheckpointDue,
            _ => Completion::Complete,
        }
    }
}

impl std::fmt::Display for Completion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Completion::Complete => "Complete",
            Completion::DeadlineExceeded => "DeadlineExceeded",
            Completion::MemoryCapped => "MemoryCapped",
            Completion::Cancelled => "Cancelled",
            Completion::CheckpointDue => "CheckpointDue",
        };
        f.write_str(s)
    }
}

/// An injectable deadline source. Production code uses [`WallDeadline`];
/// the fault-injection tests use [`TripClock`] so every trip lands on a
/// deterministic poll.
pub trait DeadlineClock: Send + Sync {
    /// Whether the deadline has passed. Polled at most once per
    /// `check_interval` ticks per worker; must be cheap and lock-free.
    fn expired(&self) -> bool;
}

impl<C: DeadlineClock + ?Sized> DeadlineClock for Arc<C> {
    fn expired(&self) -> bool {
        (**self).expired()
    }
}

/// Wall-clock deadline: expires `timeout` after construction.
#[derive(Debug)]
pub struct WallDeadline {
    deadline: Instant,
}

impl WallDeadline {
    /// A deadline `timeout` from now.
    pub fn after(timeout: Duration) -> Self {
        WallDeadline {
            deadline: Instant::now() + timeout,
        }
    }
}

impl DeadlineClock for WallDeadline {
    fn expired(&self) -> bool {
        Instant::now() >= self.deadline
    }
}

/// Deterministic fault-injection clock: reports expiry from its `n`-th
/// poll onward (1-based), and counts every poll so tests can assert that
/// kernels stop within one check interval of the trip.
#[derive(Debug)]
pub struct TripClock {
    remaining: AtomicU64,
    polls: AtomicU64,
}

impl TripClock {
    /// Trips on the `n`-th [`DeadlineClock::expired`] call; polls
    /// `1..n` return `false`. `n == 0` behaves like `n == 1`
    /// (already expired).
    pub fn at_poll(n: u64) -> Self {
        TripClock {
            remaining: AtomicU64::new(n.saturating_sub(1)),
            polls: AtomicU64::new(0),
        }
    }

    /// Total `expired()` calls observed so far.
    pub fn polls(&self) -> u64 {
        // ORDERING: statistic counter; readers tolerate staleness and no
        // other memory is published through it.
        self.polls.load(Ordering::Relaxed)
    }
}

impl DeadlineClock for TripClock {
    fn expired(&self) -> bool {
        // ORDERING: pure event counter — no data is gated on its value.
        self.polls.fetch_add(1, Ordering::Relaxed);
        // ORDERING: the countdown only decides *when* to trip; the trip
        // itself is published by `ExecutionBudget::trip` with Release.
        self.remaining
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1))
            .is_err()
    }
}

/// A handle for cancelling a running kernel from another thread.
/// Obtained with [`ExecutionBudget::cancel_token`] (tied to one budget),
/// [`CancelToken::new`] (detached), or [`CancelToken::child`] (scoped
/// under a parent); cloneable and cheap.
///
/// Tokens are **single-use**: once raised, a token stays raised forever
/// (the flag is never reset, so a raised token can never un-cancel a
/// kernel that already observed it). Long-lived owners — a server
/// connection serving many requests — must therefore never hand the same
/// token to two requests: request N's raised flag would instantly cancel
/// request N+1. The supported pattern is a fresh [`CancelToken::child`]
/// per request: raising a child never touches the parent or any sibling,
/// while raising the parent (connection closed, server draining) is
/// observed by every child. Link the per-request child to the request's
/// budget with [`ExecutionBudget::cancelled_by`].
#[derive(Clone, Debug)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    /// Flags of every ancestor, outermost first. Immutable after
    /// construction and shared by clone, so `child()` is two `Arc`
    /// bumps plus one small allocation.
    ancestors: Vec<Arc<AtomicBool>>,
}

impl CancelToken {
    /// A fresh, detached token (no budget, no parent). Use
    /// [`ExecutionBudget::cancelled_by`] to make a budget observe it.
    pub fn new() -> Self {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            ancestors: Vec::new(),
        }
    }

    /// A child token scoped under `self`: cancelling the child raises
    /// only the child's own flag (the parent and any sibling children
    /// stay live), while cancelling `self` — or any ancestor — is
    /// observed by the child. This is the reset-free per-request
    /// pattern: a raised request token can never leak into the next
    /// request, because the next request gets a new child.
    pub fn child(&self) -> CancelToken {
        let mut ancestors = self.ancestors.clone();
        ancestors.push(Arc::clone(&self.flag));
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            ancestors,
        }
    }

    /// Raises the cooperative cancellation flag: every ticker on a
    /// budget observing this token (or a child of it) trips with
    /// [`Completion::Cancelled`] at its next poll. Ancestors and
    /// siblings are unaffected.
    pub fn cancel(&self) {
        // ORDERING: Release pairs with the Acquire load in
        // `ExecutionBudget::poll`, so everything the cancelling thread
        // wrote before calling `cancel()` is visible to the kernel when
        // it observes the flag and starts unwinding.
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested on this token or any of
    /// its ancestors.
    pub fn is_cancelled(&self) -> bool {
        // ORDERING: Acquire pairs with the Release store in `cancel`.
        if self.flag.load(Ordering::Acquire) {
            return true;
        }
        // ORDERING: Acquire pairs with the Release store a `cancel()`
        // on the raised ancestor performed, so its prior writes are
        // visible to the observer here.
        self.ancestors.iter().any(|a| a.load(Ordering::Acquire))
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

/// Default ticks between budget polls (see [`ExecutionBudget::check_interval`]).
/// One tick is one inner-loop step (nanoseconds of work), so 8192 ticks
/// still bounds trip latency well below a millisecond while amortizing
/// the clock read (`Instant::now` can cost ~100ns under virtualized
/// clocksources) to noise.
pub const DEFAULT_CHECK_INTERVAL: u32 = 8192;

/// The execution budget shared by one kernel run (and all of its worker
/// threads): optional deadline, optional memory cap, cooperative
/// cancellation, and the sticky trip status.
///
/// The default [`ExecutionBudget::unlimited`] budget is inert: tickers
/// derived from it never poll anything, so running a kernel's `*_with`
/// entry point under an unlimited budget produces byte-identical results
/// at indistinguishable cost.
#[derive(Default)]
pub struct ExecutionBudget {
    clock: Option<Box<dyn DeadlineClock>>,
    cancel: Arc<AtomicBool>,
    cancel_observed: AtomicBool,
    linked: Option<CancelToken>,
    memory_cap: Option<usize>,
    memory_charged: AtomicUsize,
    tripped: AtomicU8,
    check_interval: u32,
    checkpoint_period: AtomicU64,
    polls_until_checkpoint: AtomicU64,
}

impl std::fmt::Debug for ExecutionBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutionBudget")
            .field("deadline", &self.clock.is_some())
            .field("memory_cap", &self.memory_cap)
            .field("check_interval", &self.check_interval)
            .field("status", &self.status())
            .finish()
    }
}

impl ExecutionBudget {
    /// A budget with no limits: checks are no-ops, results are identical
    /// to the open-loop algorithms.
    pub fn unlimited() -> Self {
        ExecutionBudget {
            check_interval: DEFAULT_CHECK_INTERVAL,
            ..ExecutionBudget::default()
        }
    }

    /// Convenience constructor: a wall-clock deadline `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> Self {
        ExecutionBudget::unlimited().deadline(WallDeadline::after(timeout))
    }

    /// Installs a deadline clock (builder style).
    pub fn deadline(mut self, clock: impl DeadlineClock + 'static) -> Self {
        self.clock = Some(Box::new(clock));
        self
    }

    /// Installs an approximate memory cap in bytes: kernels charge their
    /// dominant allocations (bloom filters, candidate/stamp arrays)
    /// before making them, and trip with [`Completion::MemoryCapped`]
    /// when the running total would exceed the cap.
    pub fn memory_cap(mut self, bytes: usize) -> Self {
        self.memory_cap = Some(bytes);
        self
    }

    /// Sets how many [`BudgetTicker::check`] ticks elapse between polls
    /// of the clock/cancellation flag (clamped to ≥ 1; the first check
    /// of every ticker always polls, so an already-expired budget trips
    /// immediately). Default [`DEFAULT_CHECK_INTERVAL`].
    pub fn check_interval(mut self, ticks: u32) -> Self {
        self.check_interval = ticks.max(1);
        self
    }

    /// A handle for cancelling this run from another thread. Taking a
    /// token arms cancellation polling; take it before starting the
    /// kernel.
    pub fn cancel_token(&self) -> CancelToken {
        // ORDERING: Release pairs with the Acquire load in `is_active`:
        // a thread that sees the budget armed also sees the token's
        // shared flag fully initialized.
        self.cancel_observed.store(true, Ordering::Release);
        CancelToken {
            flag: Arc::clone(&self.cancel),
            ancestors: Vec::new(),
        }
    }

    /// Links an externally owned token (builder style): the budget trips
    /// with [`Completion::Cancelled`] once `token` — or any of its
    /// ancestors — is raised. This is how a server wires a per-request
    /// [`CancelToken::child`] into the request's budget without sharing
    /// the budget's own flag across requests.
    pub fn cancelled_by(mut self, token: CancelToken) -> Self {
        self.linked = Some(token);
        self
    }

    /// Whether any limit is armed (deadline, memory cap, an outstanding
    /// cancel token or a checkpoint period). Inactive budgets produce
    /// inert tickers.
    pub fn is_active(&self) -> bool {
        self.clock.is_some()
            || self.memory_cap.is_some()
            || self.linked.is_some()
            // ORDERING: Acquire pairs with the Release store in
            // `cancel_token`, so an armed budget is seen fully set up.
            || self.cancel_observed.load(Ordering::Acquire)
            // ORDERING: arming config; monotonic and self-contained, the
            // countdown value itself carries no other state.
            || self.checkpoint_period.load(Ordering::Relaxed) != 0
    }

    /// Arms periodic checkpointing: after `polls` shared budget polls the
    /// budget trips with [`Completion::CheckpointDue`], so every kernel
    /// unwinds through its existing trip path with a snapshottable
    /// partial state. `polls == 0` disarms. Drivers call
    /// [`ExecutionBudget::rearm_after_checkpoint`] after persisting the
    /// snapshot to resume counting.
    pub fn set_checkpoint_period(&self, polls: u64) {
        // ORDERING: configuration counters read only by `poll`; a poll
        // racing the (re)arming may count one period late, which is
        // within the checkpoint cadence contract. The CheckpointDue trip
        // itself is published by `trip` with Release.
        self.checkpoint_period.store(polls, Ordering::Relaxed);
        self.polls_until_checkpoint.store(polls, Ordering::Relaxed);
    }

    /// The currently armed checkpoint period in polls (`0` = disarmed).
    pub fn checkpoint_period(&self) -> u64 {
        // ORDERING: standalone config value; see `set_checkpoint_period`.
        self.checkpoint_period.load(Ordering::Relaxed)
    }

    /// Clears a [`Completion::CheckpointDue`] trip after the driver has
    /// persisted a snapshot, resetting the poll countdown and the memory
    /// accountant (a resumed leg rebuilds and re-charges its scratch from
    /// zero). Returns `false` — leaving the trip in place — when the
    /// sticky status is anything other than `CheckpointDue`, so real
    /// trips are never masked.
    pub fn rearm_after_checkpoint(&self) -> bool {
        let code = Completion::CheckpointDue.code();
        // ORDERING: AcqRel — Acquire sees the tripping thread's final
        // writes before clearing, Release publishes the reset countdown
        // to the next poller; Acquire on failure to read the real trip.
        if self
            .tripped
            .compare_exchange(code, 0, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return false;
        }
        // ORDERING: config counters; see `set_checkpoint_period`.
        self.polls_until_checkpoint.store(
            self.checkpoint_period.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
        // ORDERING: approximate accounting; see `charge`.
        self.memory_charged.store(0, Ordering::Relaxed);
        true
    }

    /// The sticky status: [`Completion::Complete`] until a trip, then
    /// the first trip's status forever.
    pub fn status(&self) -> Completion {
        // ORDERING: Acquire pairs with the Release in `trip`, so a
        // reader that observes a trip also observes every write the
        // tripping thread made before it (its published partial result).
        Completion::from_code(self.tripped.load(Ordering::Acquire))
    }

    /// Bytes charged so far (an approximate high-water mark; charges are
    /// never refunded).
    pub fn charged_bytes(&self) -> usize {
        // ORDERING: approximate accounting; see `charge`.
        self.memory_charged.load(Ordering::Relaxed)
    }

    /// Charges `bytes` against the memory cap. Returns the trip status
    /// when the cap (or a previous trip) refuses the allocation; callers
    /// must then stop and return their best-so-far answer.
    pub fn charge(&self, bytes: usize) -> Option<Completion> {
        let tripped = self.status();
        if !tripped.is_complete() {
            return Some(tripped);
        }
        let cap = self.memory_cap?;
        // ORDERING: the running total is a commutative sum — the cap
        // comparison uses this RMW's own returned value, and the trip
        // decision is published by `trip` with Release, so Relaxed loses
        // nothing.
        let total = self
            .memory_charged
            .fetch_add(bytes, Ordering::Relaxed)
            .saturating_add(bytes);
        if total > cap {
            Some(self.trip(Completion::MemoryCapped))
        } else {
            None
        }
    }

    /// A hot-loop handle for this budget. Each worker thread takes its
    /// own ticker; all tickers share the budget's sticky trip status.
    pub fn ticker(&self) -> BudgetTicker<'_> {
        BudgetTicker {
            budget: if self.is_active() { Some(self) } else { None },
            interval: self.check_interval,
            countdown: 1, // first check polls, so expired budgets trip at once
            tripped: None,
        }
    }

    /// Publishes a trip (first writer wins) and returns the winning
    /// status.
    fn trip(&self, status: Completion) -> Completion {
        // ORDERING: AcqRel — Release publishes every write the tripping
        // thread made before the trip (pairs with the Acquire load in
        // `status`), Acquire orders this thread behind a winning earlier
        // trip; Acquire on failure so the loser sees the winner's state.
        match self
            .tripped
            .compare_exchange(0, status.code(), Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => status,
            Err(prev) => Completion::from_code(prev),
        }
    }

    /// One poll of every armed limit, in priority order: sticky trip,
    /// cancellation, deadline, then the checkpoint countdown (real trips
    /// always outrank a due checkpoint).
    fn poll(&self) -> Option<Completion> {
        let tripped = self.status();
        if !tripped.is_complete() {
            return Some(tripped);
        }
        // ORDERING: Acquire pairs with the Release store in
        // `CancelToken::cancel`, so the kernel that observes the request
        // also sees everything the canceller wrote before raising it.
        if self.cancel.load(Ordering::Acquire) {
            return Some(self.trip(Completion::Cancelled));
        }
        if self.linked.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Some(self.trip(Completion::Cancelled));
        }
        if let Some(clock) = &self.clock {
            if clock.expired() {
                return Some(self.trip(Completion::DeadlineExceeded));
            }
        }
        // ORDERING: config counters; see `set_checkpoint_period`.
        if self.checkpoint_period.load(Ordering::Relaxed) != 0 {
            let prev = self.polls_until_checkpoint.fetch_update(
                Ordering::Relaxed,
                Ordering::Relaxed,
                |v| v.checked_sub(1),
            );
            if matches!(prev, Ok(1) | Err(_)) {
                return Some(self.trip(Completion::CheckpointDue));
            }
        }
        None
    }
}

/// Per-worker budget handle for hot loops: one branch per tick, one
/// shared-budget poll every `check_interval` ticks, sticky after the
/// first trip. Create with [`ExecutionBudget::ticker`], or
/// [`BudgetTicker::inert`] where a callee requires one but the caller
/// has no budget to enforce.
#[derive(Debug)]
pub struct BudgetTicker<'a> {
    budget: Option<&'a ExecutionBudget>,
    interval: u32,
    countdown: u32,
    tripped: Option<Completion>,
}

impl BudgetTicker<'_> {
    /// A ticker that never trips (for callers without a budget).
    pub fn inert() -> BudgetTicker<'static> {
        BudgetTicker {
            budget: None,
            interval: 1,
            countdown: 1,
            tripped: None,
        }
    }

    /// One tick of kernel work. Returns the trip status once the budget
    /// is exhausted; the kernel must then unwind and return its
    /// best-so-far answer.
    ///
    /// The hot path is one decrement and one branch per tick — even with
    /// an armed budget, everything else (the sticky-trip check and the
    /// shared poll) runs only once per `check_interval`, keeping armed
    /// kernels within ~2% of open-loop speed.
    #[inline]
    pub fn check(&mut self) -> Option<Completion> {
        self.countdown -= 1;
        if self.countdown > 0 {
            return None;
        }
        self.countdown = self.interval;
        let budget = self.budget?;
        if self.tripped.is_some() {
            return self.tripped;
        }
        self.tripped = budget.poll();
        self.tripped
    }

    /// The status this ticker has already observed ([`Completion::Complete`]
    /// while it has not tripped). Lets callers distinguish "callee
    /// finished" from "callee unwound on a trip" without re-polling.
    pub fn status(&self) -> Completion {
        self.tripped.unwrap_or(Completion::Complete)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_is_inert() {
        let b = ExecutionBudget::unlimited();
        assert!(!b.is_active());
        let mut t = b.ticker();
        for _ in 0..10_000 {
            assert_eq!(t.check(), None);
        }
        assert_eq!(b.status(), Completion::Complete);
        assert_eq!(b.charge(usize::MAX), None, "no cap means free charges");
    }

    #[test]
    fn trip_clock_trips_on_exact_poll() {
        let c = TripClock::at_poll(3);
        assert!(!c.expired());
        assert!(!c.expired());
        assert!(c.expired());
        assert!(c.expired(), "sticky after the trip");
        assert_eq!(c.polls(), 4);
        let zero = TripClock::at_poll(0);
        assert!(zero.expired());
    }

    #[test]
    fn ticker_polls_every_interval_and_first_check() {
        let clock = Arc::new(TripClock::at_poll(u64::MAX));
        let b = ExecutionBudget::unlimited()
            .deadline(Arc::clone(&clock))
            .check_interval(4);
        let mut t = b.ticker();
        assert_eq!(t.check(), None);
        assert_eq!(clock.polls(), 1, "first check polls immediately");
        for _ in 0..4 {
            assert_eq!(t.check(), None);
        }
        assert_eq!(clock.polls(), 2, "then one poll per interval");
    }

    #[test]
    fn deadline_trip_is_sticky_and_shared() {
        let b = ExecutionBudget::unlimited()
            .deadline(TripClock::at_poll(2))
            .check_interval(1);
        let mut t1 = b.ticker();
        let mut t2 = b.ticker();
        assert_eq!(t1.check(), None);
        assert_eq!(t1.check(), Some(Completion::DeadlineExceeded));
        assert_eq!(t1.status(), Completion::DeadlineExceeded);
        // The second ticker observes the shared sticky trip on its first
        // poll without consulting the clock again.
        assert_eq!(t2.check(), Some(Completion::DeadlineExceeded));
        assert_eq!(b.status(), Completion::DeadlineExceeded);
    }

    #[test]
    fn cancellation_trips_tickers() {
        let b = ExecutionBudget::unlimited().check_interval(1);
        let token = b.cancel_token();
        assert!(b.is_active(), "outstanding token arms polling");
        assert!(!token.is_cancelled());
        let mut t = b.ticker();
        assert_eq!(t.check(), None);
        token.cancel();
        assert!(token.is_cancelled());
        assert_eq!(t.check(), Some(Completion::Cancelled));
        assert_eq!(b.status(), Completion::Cancelled);
    }

    #[test]
    fn child_token_is_isolated_from_siblings_and_parent() {
        let conn = CancelToken::new();
        // Request N gets a child, runs, and is cancelled mid-flight.
        let req_n = conn.child();
        req_n.cancel();
        assert!(req_n.is_cancelled());
        assert!(
            !conn.is_cancelled(),
            "raising a child never touches the parent"
        );
        // Request N+1 gets a *fresh* child: request N's raised flag must
        // not leak into it — this is the reset-free reuse contract.
        let req_n1 = conn.child();
        assert!(!req_n1.is_cancelled());
        let b = ExecutionBudget::unlimited()
            .cancelled_by(req_n1.clone())
            .check_interval(1);
        assert!(b.is_active(), "a linked token arms polling");
        assert_eq!(b.ticker().check(), None, "fresh child: no spurious trip");
        // Raising the parent is observed by every live child.
        conn.cancel();
        assert!(req_n1.is_cancelled());
        assert_eq!(b.ticker().check(), Some(Completion::Cancelled));
        assert_eq!(b.status(), Completion::Cancelled);
    }

    #[test]
    fn grandchild_observes_every_ancestor() {
        let root = CancelToken::new();
        let mid = root.child();
        let leaf = mid.child();
        assert!(!leaf.is_cancelled());
        root.cancel();
        assert!(leaf.is_cancelled(), "grandchild sees the root's flag");
        assert!(mid.is_cancelled());
        // A sibling branched off the root after the fact is raised too
        // (the ancestor flag is already up) — children are per-scope,
        // not per-construction-order.
        assert!(root.child().is_cancelled());
    }

    #[test]
    fn linked_token_trips_budget_directly() {
        let token = CancelToken::new();
        let b = ExecutionBudget::unlimited()
            .cancelled_by(token.clone())
            .check_interval(1);
        let mut t = b.ticker();
        assert_eq!(t.check(), None);
        token.cancel();
        assert_eq!(t.check(), Some(Completion::Cancelled));
        // The budget's own token is independent of the linked one.
        let own = ExecutionBudget::unlimited();
        let own_token = own.cancel_token();
        token.cancel();
        assert!(!own_token.is_cancelled());
    }

    #[test]
    fn memory_cap_trips_on_overflow() {
        let b = ExecutionBudget::unlimited().memory_cap(1000);
        assert_eq!(b.charge(600), None);
        assert_eq!(b.charge(400), None, "exactly at the cap is allowed");
        assert_eq!(b.charge(1), Some(Completion::MemoryCapped));
        assert_eq!(b.status(), Completion::MemoryCapped);
        assert!(b.charged_bytes() >= 1000);
        // Subsequent tickers observe the sticky trip.
        assert_eq!(b.ticker().check(), Some(Completion::MemoryCapped));
    }

    #[test]
    fn first_trip_wins() {
        let b = ExecutionBudget::unlimited()
            .deadline(TripClock::at_poll(1))
            .memory_cap(0)
            .check_interval(1);
        assert_eq!(b.charge(8), Some(Completion::MemoryCapped));
        let mut t = b.ticker();
        assert_eq!(t.check(), Some(Completion::MemoryCapped));
        assert_eq!(b.status(), Completion::MemoryCapped);
    }

    #[test]
    fn wall_deadline_zero_is_already_expired() {
        let b = ExecutionBudget::with_timeout(Duration::ZERO).check_interval(1);
        let mut t = b.ticker();
        assert_eq!(t.check(), Some(Completion::DeadlineExceeded));
    }

    #[test]
    fn inert_ticker_never_trips() {
        let mut t = BudgetTicker::inert();
        for _ in 0..100 {
            assert_eq!(t.check(), None);
        }
        assert_eq!(t.status(), Completion::Complete);
    }

    #[test]
    fn completion_display_and_codes_round_trip() {
        for c in [
            Completion::Complete,
            Completion::DeadlineExceeded,
            Completion::MemoryCapped,
            Completion::Cancelled,
            Completion::CheckpointDue,
        ] {
            assert_eq!(Completion::from_code(c.code()), c);
            assert!(!format!("{c}").is_empty());
        }
        assert!(Completion::Complete.is_complete());
        assert!(!Completion::Cancelled.is_complete());
        assert!(!Completion::CheckpointDue.is_complete());
    }

    #[test]
    fn checkpoint_period_trips_and_rearms() {
        let b = ExecutionBudget::unlimited().check_interval(1);
        assert!(!b.is_active());
        b.set_checkpoint_period(3);
        assert!(
            b.is_active(),
            "an armed checkpoint period activates polling"
        );
        let mut t = b.ticker();
        assert_eq!(t.check(), None);
        assert_eq!(t.check(), None);
        assert_eq!(t.check(), Some(Completion::CheckpointDue));
        assert_eq!(b.status(), Completion::CheckpointDue);
        // Other tickers observe the shared sticky trip.
        assert_eq!(b.ticker().check(), Some(Completion::CheckpointDue));
        // Re-arming clears the trip and restarts the countdown.
        assert!(b.rearm_after_checkpoint());
        assert_eq!(b.status(), Completion::Complete);
        let mut t2 = b.ticker();
        assert_eq!(t2.check(), None);
        assert_eq!(t2.check(), None);
        assert_eq!(t2.check(), Some(Completion::CheckpointDue));
    }

    #[test]
    fn rearm_never_masks_real_trips() {
        let b = ExecutionBudget::unlimited()
            .deadline(TripClock::at_poll(1))
            .check_interval(1);
        b.set_checkpoint_period(100);
        let mut t = b.ticker();
        assert_eq!(t.check(), Some(Completion::DeadlineExceeded));
        assert!(!b.rearm_after_checkpoint(), "a real trip stays sticky");
        assert_eq!(b.status(), Completion::DeadlineExceeded);
    }

    #[test]
    fn rearm_resets_memory_accounting() {
        let b = ExecutionBudget::unlimited()
            .memory_cap(1000)
            .check_interval(1);
        b.set_checkpoint_period(1);
        assert_eq!(b.charge(900), None);
        let mut t = b.ticker();
        assert_eq!(t.check(), Some(Completion::CheckpointDue));
        assert!(b.rearm_after_checkpoint());
        assert_eq!(b.charged_bytes(), 0, "a resumed leg re-charges from zero");
        assert_eq!(b.charge(900), None, "the rebuilt scratch fits again");
    }
}
