//! Per-request query execution: one request, one `ExecutionContext`.
//!
//! The engine is the seam between the wire protocol and the kernel
//! substrate. Every query builds a fresh [`ExecutionBudget`] (deadline,
//! optional memory cap, the request's own [`CancelToken`] child) and runs
//! at most one `*_with` kernel under it, so a tripped budget degrades to
//! an anytime partial answer — never an error — and a client disconnect
//! cancels only its own request. A graph's [`EpochCache`] holds what
//! depends on that graph alone: a default `skyline` read runs no kernel
//! once it holds the exact skyline, and `clique`/`group` run only their
//! search once it holds their prepared inputs.

use std::sync::OnceLock;
use std::time::Duration;

use nsky_centrality::measure::{Closeness, GroupMeasure, Harmonic};
use nsky_centrality::neisky::{nei_sky_group_with, NeiSkyGroupInput, NeiSkyOutcome};
use nsky_clique::mcbrb::mc_brb_with;
use nsky_clique::neisky::{nei_sky_mc_with, NeiSkyMcInput};
use nsky_graph::{EdgeDelta, Graph, VertexId};
use nsky_skyline::budget::{CancelToken, ExecutionBudget, TripClock};
use nsky_skyline::obs::CountingRecorder;
use nsky_skyline::{
    base_sky_with, domination, filter_refine_sky_with, Completion, MutableSkyline, Recorder,
    RefineConfig,
};

use crate::json::{self, Rendered, Value};
use crate::protocol::ProtocolError;

/// The outcome of one executed query, ready for response assembly.
#[derive(Debug)]
pub struct QueryOutcome {
    /// Kernel identifier recorded in the response's `RunReport`.
    pub kernel: &'static str,
    /// How the kernel run ended; anything other than `Complete` marks
    /// the response `"partial": true`.
    pub completion: Completion,
    /// The op-specific result payload.
    pub result: Value,
}

/// One graph's exact skyline: the ids, ascending, and their array
/// rendered once as JSON.
#[derive(Debug)]
pub struct EpochSkyline {
    ids: Vec<VertexId>,
    array: Rendered,
}

impl EpochSkyline {
    fn new(skyline: Vec<VertexId>) -> EpochSkyline {
        EpochSkyline {
            array: Rendered::new(&ids(&skyline)),
            ids: skyline,
        }
    }

    /// The `result` object of a skyline read.
    fn result(&self) -> Value {
        json::obj(vec![
            ("skyline", Value::Raw(self.array.clone())),
            ("size", json::num(self.ids.len() as u64)),
        ])
    }
}

/// A published graph's derived state: fill-once cells for its exact
/// skyline and for the prepared inputs of NeiSkyMC and of NeiSkyGC /
/// NeiSkyGH, each a pure function of the graph. Only a complete
/// computation on that graph fills a cell, and a partial one never
/// does: the update engine's exact skyline at publish, or a complete
/// build under the budget of the first request that needs the cell.
/// Two racing first requests may both compute; the cell keeps one of
/// their (identical) values.
#[derive(Debug, Default)]
pub struct EpochCache {
    skyline: OnceLock<EpochSkyline>,
    clique: OnceLock<NeiSkyMcInput>,
    closeness: OnceLock<NeiSkyGroupInput<Closeness>>,
    harmonic: OnceLock<NeiSkyGroupInput<Harmonic>>,
}

impl From<EpochSkyline> for EpochCache {
    fn from(skyline: EpochSkyline) -> EpochCache {
        EpochCache {
            skyline: OnceLock::from(skyline),
            ..EpochCache::default()
        }
    }
}

/// Builds the per-request budget from the request's knobs.
///
/// `trip_after` (a poll-count trip, exact and clock-free) takes
/// precedence over `timeout_ms` so tests can force deterministic trips;
/// absent both, `default_timeout` applies. The request's cancel `token`
/// is always linked so a disconnect trips the budget mid-kernel.
///
/// # Errors
///
/// Returns [`ProtocolError::BadRequest`] for non-numeric knobs.
pub fn budget_for(
    req: &Value,
    default_timeout: Option<Duration>,
    token: CancelToken,
) -> Result<ExecutionBudget, ProtocolError> {
    let mut budget = if let Some(polls) = opt_u64(req, "trip_after")? {
        ExecutionBudget::unlimited().deadline(TripClock::at_poll(polls))
    } else if let Some(ms) = opt_u64(req, "timeout_ms")? {
        ExecutionBudget::with_timeout(Duration::from_millis(ms))
    } else if let Some(timeout) = default_timeout {
        ExecutionBudget::with_timeout(timeout)
    } else {
        ExecutionBudget::unlimited()
    };
    if let Some(mb) = opt_u64(req, "memory_cap_mb")? {
        let bytes = usize::try_from(mb.saturating_mul(1 << 20)).unwrap_or(usize::MAX);
        budget = budget.memory_cap(bytes);
    }
    if let Some(ticks) = opt_u64(req, "check_interval")? {
        let ticks = u32::try_from(ticks.min(u64::from(u32::MAX)))
            .map_err(|_| ProtocolError::BadRequest("check_interval out of range".to_owned()))?;
        budget = budget.check_interval(ticks);
    }
    Ok(budget.cancelled_by(token))
}

/// [`execute_read`] with no cache: every request computes the state it
/// needs from the graph.
///
/// # Errors
///
/// As [`execute_read`].
pub fn execute_query(
    g: &Graph,
    req: &Value,
    default_timeout: Option<Duration>,
    token: &CancelToken,
    rec: &CountingRecorder,
) -> Result<QueryOutcome, ProtocolError> {
    execute_read(g, None, req, default_timeout, token, rec)
}

/// Executes one parsed request against `g`, whose derived state `cache`
/// (if any) spares the request what earlier requests computed.
///
/// A default (`refine`) `skyline` read is answered from a filled
/// skyline cell with no kernel run and no budget. On an empty cell it
/// runs FilterRefineSky under the request's budget, and a complete run
/// fills the cell. A `clique` runs NeiSkyMC on the cached input, or
/// first builds it under the request's budget, from the cached skyline
/// when there is one; a `group` does the same with its measure's input.
/// A complete build fills its cell, and the skyline cell if the build
/// computed the skyline; a tripped one fills nothing and answers with
/// the partial result. `algorithm:"base"` (BaseSky) and `prune:false`
/// (MC-BRB) always run their kernel, as the cross-checks.
///
/// The recorder is the caller's: the server passes a fresh
/// `CountingRecorder` per request and folds it into the response's
/// `RunReport`, so kernels observe a plain [`Recorder`] and the hot
/// loops keep their bulk-flush contract.
///
/// # Errors
///
/// Returns a typed [`ProtocolError`] for unknown ops or structurally
/// invalid arguments; kernel budget trips are *not* errors.
pub fn execute_read(
    g: &Graph,
    cache: Option<&EpochCache>,
    req: &Value,
    default_timeout: Option<Duration>,
    token: &CancelToken,
    rec: &CountingRecorder,
) -> Result<QueryOutcome, ProtocolError> {
    // Without a cache, clique and group inputs live for this request.
    let scratch = EpochCache::default();
    let cells = cache.unwrap_or(&scratch);
    let op = req
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| ProtocolError::BadRequest("missing string field \"op\"".to_owned()))?;
    let dyn_rec: &dyn Recorder = rec;
    match op {
        "ping" => Ok(QueryOutcome {
            kernel: "server/ping",
            completion: Completion::Complete,
            result: json::obj(vec![("pong", Value::Bool(true))]),
        }),
        "skyline" => {
            let budget = budget_for(req, default_timeout, token.child())?;
            let algorithm = req
                .get("algorithm")
                .and_then(Value::as_str)
                .unwrap_or("refine");
            let cache = cache.filter(|_| algorithm == "refine");
            if let Some(sky) = cache.and_then(|cache| cache.skyline.get()) {
                return Ok(QueryOutcome {
                    kernel: "server/skyline_cache",
                    completion: Completion::Complete,
                    result: sky.result(),
                });
            }
            let mut ctx = nsky_skyline::ExecutionContext::new()
                .budget(&budget)
                .recorder(dyn_rec);
            let (kernel, run) = match algorithm {
                "base" => ("server/base_sky", base_sky_with(g, &mut ctx)),
                "refine" => (
                    "server/filter_refine_sky",
                    filter_refine_sky_with(g, &RefineConfig::default(), &mut ctx),
                ),
                other => {
                    return Err(ProtocolError::BadRequest(format!(
                        "unknown skyline algorithm {other:?}"
                    )))
                }
            };
            let outcome = run.outcome;
            let result = match cache {
                // Two racing first readers may both get here; the cache
                // keeps one of their (identical) answers.
                Some(cache) if outcome.completion.is_complete() => cache
                    .skyline
                    .get_or_init(|| EpochSkyline::new(outcome.skyline))
                    .result(),
                _ => json::obj(vec![
                    ("skyline", ids(&outcome.skyline)),
                    ("size", json::num(outcome.skyline.len() as u64)),
                ]),
            };
            Ok(QueryOutcome {
                kernel,
                completion: outcome.completion,
                result,
            })
        }
        "dominates" => {
            let u = vertex(req, "u", g)?;
            let v = vertex(req, "v", g)?;
            let result = domination::dominates(g, u, v);
            Ok(QueryOutcome {
                kernel: "server/dominates",
                completion: Completion::Complete,
                result: json::obj(vec![("dominates", Value::Bool(result))]),
            })
        }
        "clique" => {
            let budget = budget_for(req, default_timeout, token.child())?;
            let prune = req.get("prune").and_then(Value::as_bool).unwrap_or(true);
            let mut ctx = nsky_skyline::ExecutionContext::new()
                .budget(&budget)
                .recorder(dyn_rec);
            let (kernel, clique, completion) = if prune {
                let prepared = prepared(
                    &cells.clique,
                    &cells.skyline,
                    |known| NeiSkyMcInput::build(g, known, &ctx),
                    |input| {
                        let mut ids = input.seeds().to_vec();
                        ids.sort_unstable();
                        ids
                    },
                );
                let outcome = match prepared {
                    Ok(input) => nei_sky_mc_with(g, input, &mut ctx).outcome,
                    Err(partial) => partial,
                };
                ("server/nei_sky_mc", outcome.clique, outcome.completion)
            } else {
                let run = mc_brb_with(g, &mut ctx);
                ("server/mc_brb", run.outcome.clique, run.outcome.completion)
            };
            Ok(QueryOutcome {
                kernel,
                completion,
                result: json::obj(vec![
                    ("size", json::num(clique.len() as u64)),
                    ("clique", ids(&clique)),
                ]),
            })
        }
        "group" => {
            let budget = budget_for(req, default_timeout, token.child())?;
            let k = usize::try_from(opt_u64(req, "k")?.unwrap_or(2))
                .map_err(|_| ProtocolError::BadRequest("k out of range".to_owned()))?;
            let lazy = req.get("lazy").and_then(Value::as_bool).unwrap_or(true);
            let measure = req
                .get("measure")
                .and_then(Value::as_str)
                .unwrap_or("closeness");
            let mut ctx = nsky_skyline::ExecutionContext::new()
                .budget(&budget)
                .recorder(dyn_rec);
            let (kernel, outcome) = match measure {
                "closeness" => (
                    "server/nei_sky_group_closeness",
                    run_group(g, &cells.skyline, &cells.closeness, k, lazy, &mut ctx),
                ),
                "harmonic" => (
                    "server/nei_sky_group_harmonic",
                    run_group(g, &cells.skyline, &cells.harmonic, k, lazy, &mut ctx),
                ),
                other => {
                    return Err(ProtocolError::BadRequest(format!(
                        "unknown measure {other:?}"
                    )))
                }
            };
            Ok(QueryOutcome {
                kernel,
                completion: outcome.greedy.completion,
                result: json::obj(vec![
                    ("group", ids(&outcome.greedy.group)),
                    ("score", Value::Num(outcome.greedy.score)),
                    ("skyline_size", json::num(outcome.skyline_size as u64)),
                ]),
            })
        }
        other => Err(ProtocolError::UnknownOp(other.to_owned())),
    }
}

/// The prepared input in `cell`, or a build under the request's budget
/// that fills it. `build` receives the epoch's skyline when that cell is
/// filled; a build that computed the skyline itself also fills the
/// skyline cell, with the ids `skyline_of` reads off the input. A
/// tripped build fills nothing and returns its partial answer.
fn prepared<'c, T, E>(
    cell: &'c OnceLock<T>,
    skyline: &OnceLock<EpochSkyline>,
    build: impl FnOnce(Option<&[VertexId]>) -> Result<T, E>,
    skyline_of: impl FnOnce(&T) -> Vec<VertexId>,
) -> Result<&'c T, E> {
    if let Some(input) = cell.get() {
        return Ok(input);
    }
    let known = skyline.get().map(|sky| sky.ids.as_slice());
    let input = build(known)?;
    if known.is_none() {
        skyline.get_or_init(|| EpochSkyline::new(skyline_of(&input)));
    }
    Ok(cell.get_or_init(|| input))
}

/// A `group` request: NeiSkyGC/NeiSkyGH on the epoch's input for
/// measure `M`, held in `cell`.
fn run_group<M: GroupMeasure + Default>(
    g: &Graph,
    skyline: &OnceLock<EpochSkyline>,
    cell: &OnceLock<NeiSkyGroupInput<M>>,
    k: usize,
    lazy: bool,
    ctx: &mut nsky_skyline::ExecutionContext<'_>,
) -> NeiSkyOutcome {
    let prepared = prepared(
        cell,
        skyline,
        |known| NeiSkyGroupInput::build(g, M::default(), known, ctx),
        |input| input.pool().to_vec(),
    );
    match prepared {
        Ok(input) => nei_sky_group_with(g, input, k, lazy, ctx).outcome,
        Err(partial) => partial,
    }
}

/// Parses and fully validates the `deltas` field of an `update` request
/// — an array of `"+ u v"` / `"- u v"` strings — against a graph with
/// `n` vertices. Validation is complete *before* any engine mutation:
/// a malformed or structurally invalid delta rejects the whole request
/// with a typed error and the graph is untouched.
///
/// # Errors
///
/// Returns [`ProtocolError::BadRequest`] naming the offending delta
/// (1-based, as `line N`) for parse failures, and the delta index for
/// self-loops and out-of-range endpoints.
pub fn parse_update_deltas(req: &Value, n: usize) -> Result<Vec<EdgeDelta>, ProtocolError> {
    let arr = req
        .get("deltas")
        .and_then(Value::as_array)
        .ok_or_else(|| ProtocolError::BadRequest("missing array field \"deltas\"".to_owned()))?;
    let mut text = String::new();
    for d in arr {
        let Some(s) = d.as_str() else {
            return Err(ProtocolError::BadRequest(
                "deltas must be strings like \"+ u v\" / \"- u v\"".to_owned(),
            ));
        };
        text.push_str(s);
        text.push('\n');
    }
    // The wire format *is* the delta-file format, one delta per array
    // element, so the file reader's line numbers are delta positions.
    let deltas = nsky_graph::io::read_edge_deltas(text.as_bytes())
        .map_err(|e| ProtocolError::BadRequest(format!("deltas: {e}")))?;
    nsky_graph::validate_batch(&deltas, n)
        .map_err(|e| ProtocolError::BadRequest(format!("deltas: {e}")))?;
    Ok(deltas)
}

/// Runs one `update` request against the server's (already locked)
/// incremental engine. `deltas` must come from [`parse_update_deltas`]
/// on the same graph, so the engine's validation cannot fire. A budget
/// trip commits an exact prefix of the batch — the returned skyline is
/// the exact answer for the graph after `cursor` deltas — and the
/// caller publishes that prefix graph as the new epoch.
///
/// # Errors
///
/// Returns [`ProtocolError::BadRequest`] for non-numeric budget knobs.
pub fn execute_update(
    engine: &mut MutableSkyline,
    deltas: &[EdgeDelta],
    req: &Value,
    default_timeout: Option<Duration>,
    token: &CancelToken,
    rec: &CountingRecorder,
) -> Result<QueryOutcome, ProtocolError> {
    update_epoch(engine, deltas, req, default_timeout, token, rec).map(|(outcome, _)| outcome)
}

/// [`execute_update`], also returning the committed skyline for the
/// published epoch's [`EpochCache`]. Its array is rendered once: the
/// reply's `skyline` member is the same text.
pub(crate) fn update_epoch(
    engine: &mut MutableSkyline,
    deltas: &[EdgeDelta],
    req: &Value,
    default_timeout: Option<Duration>,
    token: &CancelToken,
    rec: &CountingRecorder,
) -> Result<(QueryOutcome, EpochSkyline), ProtocolError> {
    let budget = budget_for(req, default_timeout, token.child())?;
    let dyn_rec: &dyn Recorder = rec;
    let mut ctx = nsky_skyline::ExecutionContext::new()
        .budget(&budget)
        .recorder(dyn_rec);
    let run = engine.apply_batch_with(deltas, &mut ctx);
    let o = run.outcome;
    let sky = EpochSkyline::new(o.skyline);
    let outcome = QueryOutcome {
        kernel: "server/dynamic_maintain",
        completion: o.completion,
        result: json::obj(vec![
            ("skyline", Value::Raw(sky.array.clone())),
            ("size", json::num(sky.ids.len() as u64)),
            ("cursor", json::num(o.cursor as u64)),
            ("total", json::num(o.total as u64)),
            ("applied", json::num(o.stats.applied)),
            ("skipped", json::num(o.stats.skipped)),
            ("edges", json::num(engine.num_edges() as u64)),
        ]),
    };
    Ok((outcome, sky))
}

/// Renders a vertex list as a JSON array of numbers.
fn ids(list: &[VertexId]) -> Value {
    Value::Array(list.iter().map(|&v| json::num(u64::from(v))).collect())
}

/// Reads an optional non-negative integer field.
fn opt_u64(req: &Value, key: &str) -> Result<Option<u64>, ProtocolError> {
    match req.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| {
            ProtocolError::BadRequest(format!("field {key:?} must be a non-negative integer"))
        }),
    }
}

/// Reads a required vertex-id field and bounds-checks it.
fn vertex(req: &Value, key: &str, g: &Graph) -> Result<VertexId, ProtocolError> {
    let raw = opt_u64(req, key)?
        .ok_or_else(|| ProtocolError::BadRequest(format!("missing vertex field {key:?}")))?;
    let id = VertexId::try_from(raw)
        .map_err(|_| ProtocolError::BadRequest(format!("vertex {key:?} out of range")))?;
    if (id as usize) < g.num_vertices() {
        Ok(id)
    } else {
        Err(ProtocolError::BadRequest(format!(
            "vertex {key:?}={id} not in graph (n={})",
            g.num_vertices()
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsky_datasets::karate;
    use nsky_skyline::filter_refine_sky;

    fn run(req: &str) -> Result<QueryOutcome, ProtocolError> {
        let g = karate();
        let parsed = crate::protocol::parse_request(req).unwrap();
        let rec = CountingRecorder::new();
        execute_query(&g, &parsed, None, &CancelToken::new(), &rec)
    }

    #[test]
    fn skyline_matches_direct_kernel() {
        let g = karate();
        let out = run(r#"{"op":"skyline"}"#).unwrap();
        assert_eq!(out.completion, Completion::Complete);
        let expected = filter_refine_sky(&g, &RefineConfig::default());
        let got: Vec<u64> = out
            .result
            .get("skyline")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .filter_map(Value::as_u64)
            .collect();
        let want: Vec<u64> = expected.skyline.iter().map(|&v| u64::from(v)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn trip_after_yields_partial_subset() {
        let g = karate();
        let out = run(r#"{"op":"skyline","trip_after":1,"check_interval":1}"#).unwrap();
        assert!(!out.completion.is_complete());
        let full = filter_refine_sky(&g, &RefineConfig::default());
        let got: Vec<u64> = out
            .result
            .get("skyline")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .filter_map(Value::as_u64)
            .collect();
        assert!(got
            .iter()
            .all(|v| full.skyline.iter().any(|&w| u64::from(w) == *v)));
    }

    #[test]
    fn dominates_bounds_checked() {
        assert!(matches!(
            run(r#"{"op":"dominates","u":0,"v":9999}"#),
            Err(ProtocolError::BadRequest(_))
        ));
        let out = run(r#"{"op":"dominates","u":33,"v":8}"#).unwrap();
        assert_eq!(
            out.result.get("dominates").and_then(Value::as_bool),
            Some(domination::dominates(&karate(), 33, 8))
        );
    }

    #[test]
    fn clique_and_group_execute() {
        let clique = run(r#"{"op":"clique"}"#).unwrap();
        assert!(clique.result.get("size").and_then(Value::as_u64) >= Some(3));
        let group = run(r#"{"op":"group","k":2,"measure":"harmonic"}"#).unwrap();
        assert_eq!(
            group
                .result
                .get("group")
                .and_then(|v| v.as_array())
                .map(<[Value]>::len),
            Some(2)
        );
    }

    #[test]
    fn unknown_op_and_bad_fields_are_typed() {
        assert!(matches!(
            run(r#"{"op":"explode"}"#),
            Err(ProtocolError::UnknownOp(_))
        ));
        assert!(matches!(
            run(r#"{"op":"skyline","trip_after":-1}"#),
            Err(ProtocolError::BadRequest(_))
        ));
        assert!(matches!(
            run(r#"{"nota":"request"}"#),
            Err(ProtocolError::BadRequest(_))
        ));
    }
}
