//! Fixture: an instrumented kernel module — one entry point takes an
//! execution context, whose recorder slot covers the whole module.

/// Open-loop entry point (uninstrumented on purpose).
pub fn refine_sky(xs: &[u32]) -> u32 {
    xs.iter().copied().max().unwrap_or(0)
}

/// Context entry point: flushes counters into the context's recorder.
pub fn refine_sky_with(xs: &[u32], ctx: &mut ExecutionContext<'_>) -> u32 {
    let out = refine_sky(xs);
    ctx.effective_recorder()
        .add(Counter::CandidatesEmitted, u64::from(out));
    out
}
