//! Metric names, units, and their computation from one run.
//!
//! The two name lists below are the benchmark's contract with
//! `BENCHMARK.json`: `--trace 0` prints exactly the end-to-end list,
//! `--trace 1` exactly the per-layer list (a test holds them equal).

use std::collections::BTreeMap;

use nsky_server::json::{self, Value};

use crate::openloop::Exchange;
use crate::stats::{median, tail};
use crate::workload::{Op, Workload};
use crate::{Measured, TAIL_BEYOND};

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("p10_ms", "ms"),
    ("tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics that do not depend on the op: `(name, unit)`.
const LAYER_FIXED: [(&str, &str); 49] = [
    ("traced.p10_ms", "ms"),
    ("traced.tail_ms", "ms"),
    ("traced.p50_ms", "ms"),
    ("sustainable_qps", "1/s"),
    ("latency.tail_pct", "%"),
    ("latency.samples", "count"),
    ("error_rate", "ratio"),
    ("partial_rate", "ratio"),
    ("server.connect_ping_ms", "ms"),
    ("server.keepalive_ping_ms", "ms"),
    ("server.outside_ms", "ms"),
    ("server.shed", "count"),
    ("server.cancelled", "count"),
    ("server.protocol_errors", "count"),
    ("protocol.parse_us", "us"),
    ("obs.report_render_us", "us"),
    ("json.result_render_us", "us"),
    ("json.response_bytes", "B"),
    ("engine.update_ms", "ms"),
    ("refine.filter_ms", "ms"),
    ("refine.bloom_build_ms", "ms"),
    ("refine.refine_ms", "ms"),
    ("refine.candidates", "count"),
    ("refine.skyline_per_candidate", "ratio"),
    ("refine.pair_tests", "count"),
    ("refine.bloom_reject_ratio", "ratio"),
    ("refine.adjacency_probes", "count"),
    ("refine.peak_bytes", "B"),
    ("dynamic.apply_ms", "ms"),
    ("dynamic.dirty_per_delta", "count"),
    ("dynamic.scoped_refines_per_delta", "count"),
    ("dynamic.engine_init_ms", "ms"),
    ("publish.materialize_ms", "ms"),
    ("publish.fingerprint_ms", "ms"),
    ("clique.search_ms", "ms"),
    ("clique.root_calls", "count"),
    ("clique.skyline_prunes", "count"),
    ("clique.nodes_expanded", "count"),
    ("clique.bound_cuts", "count"),
    ("group.skyline_ms", "ms"),
    ("group.greedy_ms", "ms"),
    ("group.gain_evaluations", "count"),
    ("group.lazy_skip_ratio", "ratio"),
    ("setup.dataset_build_ms", "ms"),
    ("setup.server_start_ms", "ms"),
    ("setup.warmup_ms", "ms"),
    ("gen.lag_tail_ms", "ms"),
    ("gen.backlog_max", "count"),
    ("trace.spans", "count"),
];

/// Every per-layer metric: `(name, unit)`.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = LAYER_FIXED
        .iter()
        .map(|&(n, u)| (n.to_owned(), u))
        .collect();
    for op in Op::ALL {
        names.push((format!("trace.unattributed_ms.{}", op.name()), "ms"));
        names.push((format!("latency.{}.p50_ms", op.name()), "ms"));
        names.push((format!("latency.{}.tail_ms", op.name()), "ms"));
        if op != Op::Update {
            names.push((format!("engine.query_ms.{}", op.name()), "ms"));
        }
    }
    names
}

/// Metrics of one run, in the order they were set.
pub struct Report {
    names: Vec<(String, &'static str)>,
    values: BTreeMap<String, f64>,
}

impl Report {
    fn new(names: Vec<(String, &'static str)>) -> Report {
        Report {
            names,
            values: BTreeMap::new(),
        }
    }

    fn set(&mut self, name: &str, value: f64) {
        assert!(
            self.names.iter().any(|(n, _)| n == name),
            "metric {name} is not declared"
        );
        // JSON has no NaN or infinity; an undefined ratio reads as 0.
        let value = if value.is_finite() { value } else { 0.0 };
        self.values.insert(name.to_owned(), value);
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// declared metric with its unit.
    pub fn to_json(&self, correct: bool, attempted: usize, failed: usize) -> String {
        let metrics: Vec<(&str, Value)> = self
            .names
            .iter()
            .map(|(name, unit)| {
                let value = *self
                    .values
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                (
                    name.as_str(),
                    json::obj(vec![("value", Value::Num(value)), ("unit", json::s(unit))]),
                )
            })
            .collect();
        json::obj(vec![
            ("correct", Value::Bool(correct)),
            ("attempted", json::num(attempted as u64)),
            ("failed", json::num(failed as u64)),
            ("metrics", json::obj(metrics)),
        ])
        .to_string()
    }
}

/// A failed request counts as missing every latency limit: it enters the
/// latency sample at this value.
const FAILED_MS: f64 = 60_000.0;

fn latency(x: &Exchange) -> f64 {
    if x.reply.is_ok() {
        x.latency_ms()
    } else {
        FAILED_MS
    }
}

fn med(xs: &[f64]) -> f64 {
    median(xs).unwrap_or(0.0)
}

/// The tail value, or the maximum when the sample is too small to keep
/// `TAIL_BEYOND` points beyond any percentile.
fn tail_of(xs: &[f64]) -> (f64, f64) {
    tail(xs, TAIL_BEYOND).unwrap_or_else(|| (xs.iter().copied().fold(0.0, f64::max), 100.0))
}

/// The 10th percentile of the whole nominal window. On a host shared with
/// other tenants a request's latency is bimodal: a quiet mode, and a mode
/// some 20 % slower while neighbours contend for cache and memory. Their
/// shares vary from run to run, and the median, which lies between the
/// modes, moved by as much as its 20 % bound between runs of the same
/// code. The 10th percentile lies in the quiet mode, which every run
/// reaches.
fn nominal_p10(m: &Measured) -> f64 {
    let mut lat: Vec<f64> = m.nominal.iter().map(|(_, x)| latency(x)).collect();
    lat.sort_by(f64::total_cmp);
    lat.get(lat.len() / 10).copied().unwrap_or(0.0)
}

/// Median over the repetitions of the nominal window of `(p50, tail,
/// tail percentile, samples)`.
fn nominal_latency(m: &Measured) -> [f64; 4] {
    let per_window: Vec<[f64; 4]> = m
        .windows
        .iter()
        .map(|(_, range)| {
            let lat: Vec<f64> = m.nominal[range.clone()]
                .iter()
                .map(|(_, x)| latency(x))
                .collect();
            let (tail, pct) = tail_of(&lat);
            [med(&lat), tail, pct, lat.len() as f64]
        })
        .collect();
    std::array::from_fn(|i| med(&per_window.iter().map(|w| w[i]).collect::<Vec<_>>()))
}

/// The `--trace 0` metrics.
pub fn end_to_end(m: &Measured) -> Report {
    let mut r = Report::new(END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect());
    let [_, tail, _, _] = nominal_latency(m);
    let setup: Vec<f64> = m.setups.iter().map(|s| s.total_s).collect();
    r.set("setup_s", med(&setup));
    r.set("p10_ms", nominal_p10(m));
    r.set("tail_ms", tail);
    r.set("peak_rss_mb", m.peak_rss_mb);
    r
}

fn sum(xs: Option<&Vec<f64>>) -> f64 {
    xs.map_or(0.0, |v| v.iter().sum())
}

/// The `--trace 1` metrics.
pub fn per_layer(w: &Workload, m: &Measured) -> Report {
    let mut r = Report::new(per_layer_names());
    let layers = m
        .layers
        .as_ref()
        .expect("the traced run replays its layers");
    let [p50, tail, pct, samples] = nominal_latency(m);
    r.set("traced.p10_ms", nominal_p10(m));
    r.set("traced.tail_ms", tail);
    r.set("traced.p50_ms", p50);
    r.set("sustainable_qps", m.sustainable_qps);
    r.set("latency.tail_pct", pct);
    r.set("latency.samples", samples);
    let attempted = m.attempted.max(1) as f64;
    r.set("error_rate", m.failed as f64 / attempted);
    r.set("partial_rate", m.partial as f64 / attempted);

    // server::server
    r.set("server.connect_ping_ms", med(&m.connect_pings));
    r.set("server.keepalive_ping_ms", med(&m.keepalive_pings));
    let outside: Vec<f64> = m
        .nominal
        .iter()
        .filter_map(|(_, x)| {
            let d = x.reply.as_ref().ok()?;
            // CAST: nanosecond spans of one run are far below 2^53.
            Some(x.done_ns.saturating_sub(x.sent_ns) as f64 / 1e6 - d.elapsed_ms)
        })
        .collect();
    r.set("server.outside_ms", med(&outside));
    r.set("server.shed", m.server.shed as f64);
    r.set("server.cancelled", m.server.cancelled as f64);
    r.set("server.protocol_errors", m.server.protocol_errors as f64);

    // server::protocol / server::json / core::obs, over the mix.
    let mixed = |map: &BTreeMap<Op, Vec<f64>>| -> f64 {
        let all: Vec<f64> = map
            .iter()
            .filter(|(op, _)| w.sends(**op))
            .flat_map(|(_, v)| v.iter().copied())
            .collect();
        med(&all)
    };
    r.set("protocol.parse_us", mixed(&layers.parse_us));
    r.set("obs.report_render_us", mixed(&layers.report_us));
    r.set("json.result_render_us", mixed(&layers.render_us));
    let bytes: Vec<f64> = m
        .nominal
        .iter()
        .filter(|(_, x)| x.reply.is_ok())
        .map(|(_, x)| x.bytes as f64)
        .collect();
    r.set("json.response_bytes", med(&bytes));

    // server::engine and the per-op latencies.
    let of =
        |map: &BTreeMap<Op, Vec<f64>>, op: Op| med(map.get(&op).map_or(&[][..], Vec::as_slice));
    for op in Op::ALL {
        let source = if w.sends(op) { &m.nominal } else { &m.probes };
        let lat: Vec<f64> = source
            .iter()
            .filter(|(req, _)| req.op == op)
            .map(|(_, x)| latency(x))
            .collect();
        let p50 = med(&lat);
        r.set(&format!("latency.{}.p50_ms", op.name()), p50);
        r.set(&format!("latency.{}.tail_ms", op.name()), tail_of(&lat).0);
        let engine = of(&layers.engine_ms, op);
        if op == Op::Update {
            r.set("engine.update_ms", engine);
        } else {
            r.set(&format!("engine.query_ms.{}", op.name()), engine);
        }
        let mut attributed = of(&layers.parse_us, op) / 1e3
            + engine
            + of(&layers.render_us, op) / 1e3
            + of(&layers.report_us, op) / 1e3;
        if op == Op::Update {
            attributed += med(&layers.materialize_ms) + med(&layers.fingerprint_ms);
        }
        r.set(
            &format!("trace.unattributed_ms.{}", op.name()),
            p50 - attributed,
        );
    }

    // Kernel layers, from the replay's recorders.
    let phase = |op: Op, name: &str| {
        med(layers
            .phases
            .get(&(op, name.to_owned()))
            .map_or(&[][..], Vec::as_slice))
    };
    let counter = |op: Op, name: &'static str| {
        med(layers
            .counters
            .get(&(op, name))
            .map_or(&[][..], Vec::as_slice))
    };
    let total = |op: Op, name: &'static str| sum(layers.counters.get(&(op, name)));
    r.set("refine.filter_ms", phase(Op::Skyline, "filter"));
    r.set("refine.bloom_build_ms", phase(Op::Skyline, "bloom_build"));
    r.set("refine.refine_ms", phase(Op::Skyline, "refine"));
    r.set(
        "refine.candidates",
        counter(Op::Skyline, "candidates_emitted"),
    );
    r.set(
        "refine.skyline_per_candidate",
        counter(Op::Skyline, "skyline_size") / counter(Op::Skyline, "candidates_emitted"),
    );
    r.set("refine.pair_tests", counter(Op::Skyline, "pair_tests"));
    r.set(
        "refine.bloom_reject_ratio",
        (total(Op::Skyline, "bloom_word_rejects") + total(Op::Skyline, "bloom_bit_rejects"))
            / total(Op::Skyline, "bloom_queries"),
    );
    r.set(
        "refine.adjacency_probes",
        counter(Op::Skyline, "adjacency_probes"),
    );
    r.set("refine.peak_bytes", counter(Op::Skyline, "peak_bytes"));

    r.set("dynamic.apply_ms", med(&layers.apply_ms));
    let applied = total(Op::Update, "deltas_applied");
    r.set(
        "dynamic.dirty_per_delta",
        total(Op::Update, "dirty_vertices") / applied,
    );
    r.set(
        "dynamic.scoped_refines_per_delta",
        total(Op::Update, "scoped_refines") / applied,
    );
    r.set("dynamic.engine_init_ms", layers.engine_init_ms);
    r.set("publish.materialize_ms", med(&layers.materialize_ms));
    r.set("publish.fingerprint_ms", med(&layers.fingerprint_ms));

    r.set("clique.search_ms", phase(Op::Clique, "neisky_mc"));
    r.set("clique.root_calls", counter(Op::Clique, "root_calls"));
    r.set(
        "clique.skyline_prunes",
        counter(Op::Clique, "skyline_prunes"),
    );
    r.set(
        "clique.nodes_expanded",
        counter(Op::Clique, "nodes_expanded"),
    );
    r.set("clique.bound_cuts", counter(Op::Clique, "bound_cuts"));

    r.set("group.skyline_ms", phase(Op::Group, "skyline"));
    r.set("group.greedy_ms", phase(Op::Group, "greedy"));
    r.set(
        "group.gain_evaluations",
        counter(Op::Group, "gain_evaluations"),
    );
    let lazy = total(Op::Group, "lazy_skips");
    r.set(
        "group.lazy_skip_ratio",
        lazy / (lazy + total(Op::Group, "gain_evaluations")),
    );

    // Set-up and the generator.
    let setup = |f: fn(&crate::SetupTimes) -> f64| med(&m.setups.iter().map(f).collect::<Vec<_>>());
    r.set("setup.dataset_build_ms", setup(|s| s.dataset_ms));
    r.set("setup.server_start_ms", setup(|s| s.server_ms));
    r.set("setup.warmup_ms", setup(|s| s.warmup_ms));
    let lag: Vec<f64> = m
        .nominal
        .iter()
        // CAST: nanosecond spans of one run are far below 2^53.
        .map(|(_, x)| x.sent_ns.saturating_sub(x.due_ns) as f64 / 1e6)
        .collect();
    r.set("gen.lag_tail_ms", tail_of(&lag).0);
    r.set("gen.backlog_max", m.backlog_max as f64);
    r.set("trace.spans", m.spans as f64);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(section: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let doc = json::parse(text).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(Value::as_array)
            .expect("section is an array")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn printed_names_match_benchmark_json() {
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer_names()
            .into_iter()
            .map(|(n, u)| (n, u.to_owned()))
            .collect();
        assert_eq!(declared("per_layer"), layers);
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = json::parse(text).unwrap();
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::workload::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
    }
}
