//! Fixture: a kernel module whose public entry points never accept an
//! observability recorder or an execution context.

/// Computes the skyline with no way to observe its counters.
pub fn refine_sky(xs: &[u32]) -> u32 {
    xs.iter().copied().max().unwrap_or(0)
}

/// Builds its own context internally, so a caller still cannot arm a
/// recorder: only a context *parameter* instruments a module. A second
/// uninstrumented entry point is still one violation per module.
pub fn refine_sky_inert(xs: &[u32]) -> u32 {
    let _ctx = ExecutionContext::new();
    refine_sky(xs)
}
