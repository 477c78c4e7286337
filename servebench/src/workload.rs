//! The three workloads and their seeded request streams.
//!
//! The benchmark builds every request line here, from the workload and
//! the seed alone; the server only ever sees those bytes. Arrivals are
//! evenly spaced at the phase's rate (a fixed open-loop schedule), the op
//! of each arrival follows a fixed pattern of the mix, and its vertices
//! and edge deltas come from a `SplitMix64` stream seeded by `--seed`.

use std::collections::{HashSet, VecDeque};

use nsky_graph::prng::SplitMix64;
use nsky_graph::{EdgeDelta, Graph, VertexId};

/// A request kind the benchmark sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Op {
    /// `skyline` — FilterRefineSky on the published epoch.
    Skyline,
    /// `dominates` — one pairwise domination test (a point read).
    Dominates,
    /// `update` — one batch of edge deltas through the incremental engine.
    Update,
    /// `clique` — NeiSkyMC maximum clique.
    Clique,
    /// `group` — NeiSkyGC group closeness, k = [`GROUP_K`].
    Group,
}

impl Op {
    /// Every op, in report order.
    pub const ALL: [Op; 5] = [
        Op::Skyline,
        Op::Dominates,
        Op::Update,
        Op::Clique,
        Op::Group,
    ];

    /// The op's wire name.
    pub fn name(self) -> &'static str {
        match self {
            Op::Skyline => "skyline",
            Op::Dominates => "dominates",
            Op::Update => "update",
            Op::Clique => "clique",
            Op::Group => "group",
        }
    }
}

/// Arrivals per block of the op mix; mix weights are multiples of
/// `100 / BLOCK`.
pub const BLOCK: u32 = 20;
/// Group size of every `group` request.
pub const GROUP_K: usize = 4;
/// Deltas inserted (and, once the stream is primed, deleted) per batch.
const HALF_BATCH: usize = 8;
/// Inserted edges alive at any time once the stream is primed. Every
/// delete targets an edge inserted this many edges earlier, i.e. four
/// batches back, so two updates that the server happens to run out of
/// order still apply all their deltas.
const LIVE_INSERTS: usize = 4 * HALF_BATCH;

/// How the generator reaches the server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    /// Long-lived connections, requests pipelined on them.
    Persistent,
    /// A fresh TCP connection per request, closed after its reply.
    Fresh,
}

/// One workload: a graph, a traffic mix and the rates it is driven at.
#[derive(Debug)]
pub struct Workload {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// Dataset stand-in the server loads.
    pub dataset: &'static str,
    /// Connection discipline.
    pub transport: Transport,
    /// Op weights in percent; they sum to 100.
    pub mix: &'static [(Op, u32)],
    /// Arrival rate (requests/s) of the measured window.
    pub nominal_rate: f64,
    /// Tail-latency limit a ladder step must meet to count as sustained.
    pub tail_limit_ms: f64,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "skyline-lj",
        dataset: "LiveJournal",
        transport: Transport::Persistent,
        mix: &[(Op::Skyline, 100)],
        nominal_rate: 30.0,
        tail_limit_ms: 100.0,
    },
    Workload {
        name: "mixed-pokec",
        dataset: "Pokec",
        transport: Transport::Fresh,
        mix: &[(Op::Dominates, 80), (Op::Skyline, 10), (Op::Update, 10)],
        nominal_rate: 150.0,
        tail_limit_ms: 50.0,
    },
    Workload {
        name: "apps-notredame",
        dataset: "Notredame",
        transport: Transport::Persistent,
        mix: &[(Op::Clique, 85), (Op::Group, 15)],
        nominal_rate: 30.0,
        tail_limit_ms: 200.0,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Whether the mix sends `op`.
    pub fn sends(&self, op: Op) -> bool {
        self.mix.iter().any(|&(o, _)| o == op)
    }

    /// Builds the workload's graph (deterministic; independent of the seed).
    pub fn build_graph(&self) -> Graph {
        match self.dataset {
            "Notredame" => nsky_datasets::paper_datasets()
                .into_iter()
                .find(|spec| spec.name == "Notredame")
                .map(|spec| spec.build())
                .expect("Notredame is a paper dataset"),
            name => nsky_datasets::scalability_dataset(name)
                .expect("workload datasets are registered stand-ins")
                .build(),
        }
    }
}

/// One block of [`BLOCK`] arrivals: each op `weight · BLOCK / 100` times,
/// spread evenly by smooth weighted round robin (every step credits each
/// op its count and takes the op with the most credit, which pays the
/// block length back).
pub fn block(mix: &[(Op, u32)]) -> Vec<Op> {
    let counts: Vec<i64> = mix
        .iter()
        .map(|&(_, weight)| i64::from(weight * BLOCK / 100))
        .collect();
    let total: i64 = counts.iter().sum();
    let mut credit = vec![0_i64; mix.len()];
    (0..total)
        .map(|_| {
            for (c, n) in credit.iter_mut().zip(&counts) {
                *c += n;
            }
            // The first op of the mix wins ties.
            let best = (0..mix.len())
                .rev()
                .max_by_key(|&i| credit[i])
                .expect("a mix has at least one op");
            credit[best] -= total;
            mix[best].0
        })
        .collect()
}

/// One request of the stream.
#[derive(Clone, Debug)]
pub struct Request {
    /// Position in the run; unique, and echoed in the request line.
    pub id: usize,
    /// The op.
    pub op: Op,
    /// When the request is due, in nanoseconds after its phase starts.
    pub due_ns: u64,
    /// The exact frame sent, newline included.
    pub line: String,
    /// For `update`: the batch, in wire order.
    pub deltas: Vec<EdgeDelta>,
    /// For `dominates`: `(u, v)`, asking whether `u` dominates `v`.
    pub pair: (VertexId, VertexId),
}

/// The seeded source of every request in a run.
pub struct Generator {
    graph: Graph,
    rng: SplitMix64,
    next_id: usize,
    live: VecDeque<(VertexId, VertexId)>,
    live_set: HashSet<(VertexId, VertexId)>,
}

impl Generator {
    /// A generator over `graph` (the graph the server starts from).
    pub fn new(graph: Graph, seed: u64) -> Generator {
        Generator {
            graph,
            rng: SplitMix64::new(seed ^ 0x5e7e_bec4_0000_0001),
            next_id: 0,
            live: VecDeque::new(),
            live_set: HashSet::new(),
        }
    }

    /// `seconds` of arrivals at `rate`, evenly spaced. Ops repeat the
    /// fixed pattern of [`block`], so every run places its ops alike and
    /// the seed picks only vertices and edge deltas: with a shuffled
    /// block, the seed decided how often two `group` requests queued
    /// behind each other, and that moved the tail between seeds.
    pub fn schedule(&mut self, mix: &[(Op, u32)], rate: f64, seconds: f64) -> Vec<Request> {
        // CAST: rate·seconds is a small positive request count.
        let count = (rate * seconds).round().max(1.0) as usize;
        let gap_ns = 1e9 / rate;
        let pattern = block(mix);
        (0..count)
            .map(|i| {
                let mut req = self.request(pattern[i % pattern.len()]);
                // CAST: due offsets are far below u64::MAX nanoseconds.
                req.due_ns = (i as f64 * gap_ns) as u64;
                req
            })
            .collect()
    }

    /// The next request of `op`, due at offset 0.
    pub fn request(&mut self, op: Op) -> Request {
        let id = self.next_id;
        self.next_id += 1;
        let mut deltas = Vec::new();
        let mut pair = (0, 0);
        let line = match op {
            Op::Skyline => format!("{{\"op\":\"skyline\",\"id\":{id}}}\n"),
            Op::Clique => format!("{{\"op\":\"clique\",\"id\":{id}}}\n"),
            Op::Group => {
                format!(
                    "{{\"op\":\"group\",\"k\":{GROUP_K},\"measure\":\"closeness\",\"id\":{id}}}\n"
                )
            }
            Op::Dominates => {
                pair = self.pair();
                format!(
                    "{{\"op\":\"dominates\",\"u\":{},\"v\":{},\"id\":{id}}}\n",
                    pair.0, pair.1
                )
            }
            Op::Update => {
                deltas = self.batch();
                let items: Vec<String> = deltas
                    .iter()
                    .map(|d| match *d {
                        EdgeDelta::Insert(u, v) => format!("\"+ {u} {v}\""),
                        EdgeDelta::Delete(u, v) => format!("\"- {u} {v}\""),
                    })
                    .collect();
                format!(
                    "{{\"op\":\"update\",\"deltas\":[{}],\"id\":{id}}}\n",
                    items.join(",")
                )
            }
        };
        Request {
            id,
            op,
            due_ns: 0,
            line,
            deltas,
            pair,
        }
    }

    fn vertex(&mut self) -> VertexId {
        // CAST: vertex ids of the stand-ins fit in u32.
        self.rng.next_index(self.graph.num_vertices()) as VertexId
    }

    /// Half adjacent pairs, where domination is possible, half uniform.
    fn pair(&mut self) -> (VertexId, VertexId) {
        loop {
            let u = self.vertex();
            let v = if self.rng.next_bool(0.5) {
                let nbrs = self.graph.neighbors(u);
                if nbrs.is_empty() {
                    continue;
                }
                nbrs[self.rng.next_index(nbrs.len())]
            } else {
                self.vertex()
            };
            if u == v {
                continue;
            }
            return if self.rng.next_bool(0.5) {
                (u, v)
            } else {
                (v, u)
            };
        }
    }

    /// One update batch. Until `LIVE_INSERTS` inserted edges are alive the
    /// batch only inserts (`2 · HALF_BATCH` fresh edges); afterwards it
    /// inserts `HALF_BATCH` fresh edges and deletes the `HALF_BATCH`
    /// oldest live ones, so the edge count stays at `m + LIVE_INSERTS`.
    fn batch(&mut self) -> Vec<EdgeDelta> {
        let primed = self.live.len() >= LIVE_INSERTS;
        let inserts = if primed { HALF_BATCH } else { 2 * HALF_BATCH };
        let mut deltas = Vec::with_capacity(2 * HALF_BATCH);
        for _ in 0..inserts {
            let (u, v) = self.fresh_edge();
            self.live.push_back((u, v));
            self.live_set.insert((u.min(v), u.max(v)));
            deltas.push(EdgeDelta::Insert(u, v));
        }
        if primed {
            for _ in 0..HALF_BATCH {
                let (u, v) = self.live.pop_front().expect("primed stream has live edges");
                self.live_set.remove(&(u.min(v), u.max(v)));
                deltas.push(EdgeDelta::Delete(u, v));
            }
        }
        deltas
    }

    /// An edge absent from the base graph and from the live inserts: half
    /// close a triangle (local, as social graphs grow), half are uniform.
    fn fresh_edge(&mut self) -> (VertexId, VertexId) {
        loop {
            let u = self.vertex();
            let v = if self.rng.next_bool(0.5) {
                let nbrs = self.graph.neighbors(u);
                if nbrs.is_empty() {
                    continue;
                }
                let w = nbrs[self.rng.next_index(nbrs.len())];
                let far = self.graph.neighbors(w);
                far[self.rng.next_index(far.len())]
            } else {
                self.vertex()
            };
            if u != v
                && !self.graph.has_edge(u, v)
                && !self.live_set.contains(&(u.min(v), u.max(v)))
            {
                return (u, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsky_graph::DeltaGraph;

    fn pokec() -> Graph {
        Workload::find("mixed-pokec").unwrap().build_graph()
    }

    #[test]
    fn same_seed_same_bytes() {
        let g = pokec();
        let w = Workload::find("mixed-pokec").unwrap();
        let stream = |seed| {
            let mut gen = Generator::new(g.clone(), seed);
            let mut bytes = String::new();
            for req in gen.schedule(w.mix, 200.0, 2.0) {
                bytes.push_str(&format!("{} ", req.due_ns));
                bytes.push_str(&req.line);
            }
            bytes
        };
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8));
    }

    #[test]
    fn update_stream_keeps_the_edge_count_stationary() {
        let g = pokec();
        let m = g.num_edges();
        let mut gen = Generator::new(g.clone(), 3);
        let mut view = DeltaGraph::from_graph(g.clone());
        for i in 0..40 {
            let batch = gen.request(Op::Update).deltas;
            let effective = batch.iter().filter(|&&d| view.apply(d)).count();
            assert_eq!(effective, 2 * HALF_BATCH, "batch {i} has a no-op delta");
            if i >= LIVE_INSERTS / (2 * HALF_BATCH) {
                assert_eq!(view.num_edges(), m + LIVE_INSERTS, "after batch {i}");
            }
        }
    }

    #[test]
    fn mixes_fill_whole_blocks() {
        for w in &WORKLOADS {
            assert_eq!(
                w.mix.iter().map(|&(_, wt)| wt).sum::<u32>(),
                100,
                "{}",
                w.name
            );
            assert!(
                w.mix
                    .iter()
                    .all(|&(_, wt)| (wt * BLOCK).is_multiple_of(100)),
                "{}",
                w.name
            );
            let pattern = block(w.mix);
            assert_eq!(pattern.len(), BLOCK as usize, "{}", w.name);
            for &(op, wt) in w.mix {
                let at: Vec<usize> = (0..pattern.len()).filter(|&i| pattern[i] == op).collect();
                assert_eq!(at.len(), (wt * BLOCK / 100) as usize, "{}", w.name);
                // Evenly spread, also across the wrap into the next block:
                // no two arrivals of a minority op are adjacent.
                if 2 * at.len() <= pattern.len() {
                    let wrap = at[0] + pattern.len();
                    assert!(
                        at.windows(2).all(|p| p[1] - p[0] > 1) && wrap - at[at.len() - 1] > 1,
                        "{}: {op:?} at {at:?}",
                        w.name
                    );
                }
            }
        }
    }
}
