//! The traced run's layer replay.
//!
//! After the timed window, the benchmark calls each layer's public
//! function itself, on the graph of the generation stamped on each reply,
//! and times the call: `protocol::parse_request`, the engine
//! (`execute_query`, or `parse_update_deltas` + `execute_update`), the
//! publish step (`current_graph` + `fingerprint`), the result render and
//! the `RunReport` render. Kernel phases and counters come from the
//! `CountingRecorder` each call runs under — the same recorder the server
//! threads through a request. Every timed call becomes a span.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use nsky_graph::Graph;
use nsky_server::json::Value;
use nsky_server::protocol;
use nsky_server::{execute_query, execute_update, parse_update_deltas};
use nsky_skyline::budget::CancelToken;
use nsky_skyline::obs::{Counter, CountingRecorder, RunReport};
use nsky_skyline::MutableSkyline;

use crate::workload::{Op, Request};

/// One timed interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary the span covers.
    pub name: String,
    /// Start, in ns after the tracer was created.
    pub start_ns: u64,
    /// End, in ns after the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request the span belongs to.
    pub request: usize,
}

/// In-memory span log, written out once at exit.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty log whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The tracer clock reading of `at`.
    pub fn stamp(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a span and returns its index (to parent later spans).
    pub fn push(
        &mut self,
        name: impl Into<String>,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: usize,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes one JSON object per span to `path`.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// One answered request to replay.
#[derive(Clone, Copy, Debug)]
pub struct Item<'a> {
    /// The request.
    pub req: &'a Request,
    /// Generation stamped on its reply.
    pub generation: u64,
    /// The span of its round trip, which the replay spans hang under.
    pub span: Option<usize>,
}

/// Samples per layer, keyed by op.
#[derive(Debug, Default)]
pub struct Layers {
    /// `protocol::parse_request`, µs.
    pub parse_us: BTreeMap<Op, Vec<f64>>,
    /// `execute_query`, or `parse_update_deltas` + `execute_update`, ms.
    pub engine_ms: BTreeMap<Op, Vec<f64>>,
    /// Rendering the result object to text, µs.
    pub render_us: BTreeMap<Op, Vec<f64>>,
    /// `RunReport::from_recorder` + `to_json`, µs.
    pub report_us: BTreeMap<Op, Vec<f64>>,
    /// `execute_update` alone, ms.
    pub apply_ms: Vec<f64>,
    /// `MutableSkyline::current_graph` after an update, ms.
    pub materialize_ms: Vec<f64>,
    /// `Graph::fingerprint` of the published graph, ms.
    pub fingerprint_ms: Vec<f64>,
    /// `MutableSkyline::new` on the served graph, ms.
    pub engine_init_ms: f64,
    /// Kernel phase durations, ms, keyed by op and phase name.
    pub phases: BTreeMap<(Op, String), Vec<f64>>,
    /// Recorder counters (plus `skyline_size`), keyed by op and name.
    pub counters: BTreeMap<(Op, &'static str), Vec<f64>>,
}

fn ms(from: Instant) -> f64 {
    from.elapsed().as_secs_f64() * 1e3
}

/// Replays `items` layer by layer. Every update is replayed (the graph
/// of later generations depends on it); reads are thinned to at most
/// `cap` per op, evenly spread over the run.
pub fn replay(base: &Graph, items: &[Item<'_>], cap: usize, tracer: &mut Tracer) -> Layers {
    let mut layers = Layers::default();
    let mut order: Vec<&Item<'_>> = items.iter().collect();
    // Updates produce their generation, so they sort before its reads.
    order.sort_by_key(|it| (it.generation, it.req.op != Op::Update));
    let mut per_op: BTreeMap<Op, usize> = BTreeMap::new();
    for it in items {
        *per_op.entry(it.req.op).or_default() += 1;
    }
    let mut seen: BTreeMap<Op, usize> = BTreeMap::new();

    let started = Instant::now();
    let mut engine = MutableSkyline::new(base.clone());
    layers.engine_init_ms = ms(started);
    let mut graph = base.clone();
    let mut fingerprint = graph.fingerprint();
    let token = CancelToken::new();

    for it in order {
        let op = it.req.op;
        let k = seen.entry(op).or_default();
        *k += 1;
        let stride = per_op[&op].div_ceil(cap.max(1));
        if op != Op::Update && !(*k - 1).is_multiple_of(stride) {
            continue;
        }
        let root_start = tracer.now();
        let root = tracer.push(
            format!("replay.{}", op.name()),
            root_start,
            0,
            it.span,
            it.req.id,
        );

        let t = Instant::now();
        let parsed = protocol::parse_request(it.req.line.trim_end())
            .expect("the benchmark only sends well-formed frames");
        push_timed(&mut layers.parse_us, op, t, 1e6);
        tracer.push(
            "protocol.parse",
            tracer.stamp(t),
            tracer.now(),
            Some(root),
            it.req.id,
        );

        let rec = CountingRecorder::new();
        let rec_origin = tracer.now();
        let t = Instant::now();
        let outcome = if op == Op::Update {
            let deltas = parse_update_deltas(&parsed, engine.num_vertices())
                .expect("generated batches are valid");
            let applied = Instant::now();
            let out = execute_update(&mut engine, &deltas, &parsed, None, &token, &rec)
                .expect("update without budget knobs");
            layers.apply_ms.push(ms(applied));
            out
        } else {
            execute_query(&graph, &parsed, None, &token, &rec)
                .expect("the benchmark only sends valid queries")
        };
        push_timed(&mut layers.engine_ms, op, t, 1e3);
        let engine_span = tracer.push(
            if op == Op::Update {
                "engine.update".to_owned()
            } else {
                format!("engine.query.{}", op.name())
            },
            tracer.stamp(t),
            tracer.now(),
            Some(root),
            it.req.id,
        );
        for phase in rec.phases() {
            layers
                .phases
                .entry((op, phase.name.clone()))
                .or_default()
                // CAST: phase spans are far below 2^53 ns.
                .push((phase.end_nanos - phase.start_nanos) as f64 / 1e6);
            tracer.push(
                format!("kernel.{}", phase.name),
                rec_origin + phase.start_nanos,
                rec_origin + phase.end_nanos,
                Some(engine_span),
                it.req.id,
            );
        }
        for &c in Counter::all() {
            // CAST: counter values are far below 2^53.
            layers
                .counters
                .entry((op, c.name()))
                .or_default()
                .push(rec.value(c) as f64);
        }
        if let Some(size) = outcome.result.get("size").and_then(Value::as_u64) {
            // CAST: skyline sizes are far below 2^53.
            layers
                .counters
                .entry((op, "skyline_size"))
                .or_default()
                .push(size as f64);
        }

        if op == Op::Update {
            let t = Instant::now();
            graph = engine.current_graph();
            layers.materialize_ms.push(ms(t));
            tracer.push(
                "publish.materialize",
                tracer.stamp(t),
                tracer.now(),
                Some(root),
                it.req.id,
            );
            let t = Instant::now();
            fingerprint = graph.fingerprint();
            layers.fingerprint_ms.push(ms(t));
            tracer.push(
                "publish.fingerprint",
                tracer.stamp(t),
                tracer.now(),
                Some(root),
                it.req.id,
            );
        }

        let t = Instant::now();
        let text = outcome.result.to_string();
        std::hint::black_box(&text);
        push_timed(&mut layers.render_us, op, t, 1e6);
        tracer.push(
            "json.result_render",
            tracer.stamp(t),
            tracer.now(),
            Some(root),
            it.req.id,
        );

        let t = Instant::now();
        let report =
            RunReport::from_recorder(outcome.kernel, fingerprint, outcome.completion, &rec);
        std::hint::black_box(report.to_json());
        push_timed(&mut layers.report_us, op, t, 1e6);
        tracer.push(
            "obs.report_render",
            tracer.stamp(t),
            tracer.now(),
            Some(root),
            it.req.id,
        );

        let end = tracer.now();
        tracer.spans[root].end_ns = end;
    }
    layers
}

fn push_timed(map: &mut BTreeMap<Op, Vec<f64>>, op: Op, from: Instant, scale: f64) {
    map.entry(op)
        .or_default()
        .push(from.elapsed().as_secs_f64() * scale);
}
