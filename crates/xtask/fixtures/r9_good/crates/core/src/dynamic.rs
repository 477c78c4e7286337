//! Fixture: an instrumented dynamic-maintenance module — one entry
//! point accepts the observability recorder, covering the module.

/// Open-loop entry point (uninstrumented on purpose).
pub fn apply_batch(deltas: &[u32]) -> u32 {
    deltas.iter().copied().sum()
}

/// Flushes a finished batch's counters into the recorder.
pub fn record_batch_stats(applied: u32, rec: &dyn Recorder) {
    rec.add(Counter::DeltasApplied, u64::from(applied));
}
