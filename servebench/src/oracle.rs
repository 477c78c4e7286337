//! The answer oracle: every reply is checked against the graph of the
//! generation stamped on it.
//!
//! Each reply is first reduced to a [`Digest`] — the fields the check
//! needs, with skyline arrays folded into a length and a hash — so a run
//! holds a few bytes per reply instead of the reply. The oracle keeps its
//! own adjacency lists, starts from the graph the server was started
//! with, and replays the updates in generation order (only the first
//! `cursor` deltas of an update the server cut short). Domination is
//! tested on the adjacency lists directly. Skylines come from a
//! `MutableSkyline` of the oracle's own that replays the same deltas; at
//! the last generation the oracle's skyline is itself checked against
//! `BaseSky` on the oracle's graph (one call: `BaseSky` takes ~1 s on the
//! Pokec stand-in), so a fault in the incremental engine or in the
//! server's `FilterRefineSky` is caught too. The check runs after the
//! timed window, so it costs the timing nothing.

use std::collections::{BTreeMap, HashMap};

use nsky_centrality::measure::Closeness;
use nsky_centrality::neisky::nei_sky_group;
use nsky_graph::{EdgeDelta, Graph, VertexId};
use nsky_server::json::{self, Value};
use nsky_skyline::MutableSkyline;

use crate::workload::{Op, Request, GROUP_K};

/// A vertex list reduced to its length and an order-sensitive hash.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IdsDigest {
    len: usize,
    hash: u64,
}

impl IdsDigest {
    /// Digests `ids` in the order given.
    pub fn of(ids: impl IntoIterator<Item = VertexId>) -> IdsDigest {
        let mut len = 0;
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for id in ids {
            len += 1;
            for b in id.to_le_bytes() {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        IdsDigest { len, hash }
    }
}

/// What the oracle needs of one `"ok": true` reply.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Digest {
    /// The graph generation stamped on the reply.
    pub generation: u64,
    /// Whether the reply was an anytime partial answer.
    pub partial: bool,
    /// The server's own `elapsed_ms`.
    pub elapsed_ms: f64,
    /// The `skyline` array of a skyline or update reply.
    pub skyline: Option<IdsDigest>,
    /// A partial skyline's members, kept to check they are a subset.
    pub partial_skyline: Option<Vec<VertexId>>,
    /// The `dominates` flag.
    pub dominates: Option<bool>,
    /// The `clique` or `group` members.
    pub members: Option<Vec<VertexId>>,
    /// The group's `score`.
    pub score: Option<f64>,
    /// An update's `cursor` (deltas applied).
    pub cursor: Option<usize>,
    /// An update's `edges` (edge count after it).
    pub edges: Option<u64>,
}

fn ids(v: &Value) -> Option<Vec<VertexId>> {
    v.as_array()?
        .iter()
        .map(|x| x.as_u64().and_then(|x| VertexId::try_from(x).ok()))
        .collect()
}

/// Decodes one reply line. `Err` names why it is not an answer: the
/// server's error code (`overloaded` when shed) or a malformed reply.
pub fn digest(line: &str) -> Result<Digest, String> {
    let v = json::parse(line).map_err(|e| format!("malformed reply: {e}"))?;
    if v.get("ok").and_then(Value::as_bool) != Some(true) {
        let code = v.get("error").and_then(Value::as_str).unwrap_or("not ok");
        return Err(code.to_owned());
    }
    let generation = v
        .get("generation")
        .and_then(Value::as_u64)
        .ok_or("reply has no generation")?;
    let result = v.get("result").ok_or("reply has no result")?;
    let partial = v.get("partial").and_then(Value::as_bool) == Some(true);
    let skyline = result.get("skyline").and_then(ids);
    Ok(Digest {
        generation,
        partial,
        elapsed_ms: v.get("elapsed_ms").and_then(Value::as_f64).unwrap_or(0.0),
        skyline: skyline.as_ref().map(|s| IdsDigest::of(s.iter().copied())),
        partial_skyline: skyline.filter(|_| partial),
        dominates: result.get("dominates").and_then(Value::as_bool),
        members: result
            .get("clique")
            .or_else(|| result.get("group"))
            .and_then(ids),
        score: result.get("score").and_then(Value::as_f64),
        cursor: result
            .get("cursor")
            .and_then(Value::as_u64)
            .and_then(|c| usize::try_from(c).ok()),
        edges: result.get("edges").and_then(Value::as_u64),
    })
}

/// One answered request.
#[derive(Clone, Copy, Debug)]
pub struct Answer<'a> {
    /// The request.
    pub req: &'a Request,
    /// Its reply.
    pub digest: &'a Digest,
}

/// The oracle's graph: sorted adjacency lists plus its own skyline engine.
struct State {
    adj: Vec<Vec<VertexId>>,
    engine: MutableSkyline,
}

impl State {
    fn new(g: &Graph) -> State {
        State {
            adj: g.vertices().map(|u| g.neighbors(u).to_vec()).collect(),
            engine: MutableSkyline::new(g.clone()),
        }
    }

    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.adj[u as usize].binary_search(&v).is_ok()
    }

    fn apply(&mut self, deltas: &[EdgeDelta]) {
        for d in deltas {
            let (u, v) = d.endpoints();
            for (a, b) in [(u, v), (v, u)] {
                let list = &mut self.adj[a as usize];
                match (list.binary_search(&b), d.is_insert()) {
                    (Err(at), true) => list.insert(at, b),
                    (Ok(at), false) => {
                        list.remove(at);
                    }
                    _ => {}
                }
            }
        }
        self.engine.apply_batch(deltas);
    }

    fn num_edges(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    fn graph(&self) -> Graph {
        let edges = self.adj.iter().enumerate().flat_map(|(u, list)| {
            // CAST: vertex ids fit in u32 (the server's own bound).
            let u = u as VertexId;
            list.iter().filter(move |&&v| u < v).map(move |&v| (u, v))
        });
        Graph::from_edges(self.adj.len(), edges)
    }

    /// `N(a) ⊆ N[b]`.
    fn included(&self, a: VertexId, b: VertexId) -> bool {
        self.adj[a as usize]
            .iter()
            .all(|&x| x == b || self.has_edge(b, x))
    }

    /// Definition 2: `u` dominates `v`, twins broken toward the smaller id.
    fn dominates(&self, u: VertexId, v: VertexId) -> bool {
        u != v && self.included(v, u) && (!self.included(u, v) || u < v)
    }
}

/// The oracle's skyline of one generation and its digest.
type Skyline = (Vec<VertexId>, IdsDigest);

/// Answers derived from one generation's graph, computed on first use.
#[derive(Default)]
struct Truth {
    graph: Option<Graph>,
    skyline: Option<Result<Skyline, String>>,
    omega: Option<usize>,
    group_score: Option<f64>,
}

impl Truth {
    fn graph(&mut self, state: &State) -> &Graph {
        self.graph.get_or_insert_with(|| state.graph())
    }

    /// The skyline, or the discrepancy between the oracle's engine and
    /// `BaseSky` when this generation is cross-checked.
    fn skyline(&mut self, state: &State, cross_check: bool) -> Result<&Skyline, String> {
        if self.skyline.is_none() {
            let sky = state.engine.skyline();
            let mut verdict = Ok(());
            if cross_check {
                let base = nsky_skyline::base_sky(self.graph(state)).skyline;
                if base != sky {
                    verdict = Err(format!(
                        "oracle engine skyline ({}) differs from BaseSky ({})",
                        sky.len(),
                        base.len()
                    ));
                }
            }
            let digest = IdsDigest::of(sky.iter().copied());
            self.skyline = Some(verdict.map(|()| (sky, digest)));
        }
        self.skyline
            .as_ref()
            .expect("just computed")
            .as_ref()
            .map_err(Clone::clone)
    }

    fn omega(&mut self, state: &State) -> usize {
        if self.omega.is_none() {
            self.omega = Some(nsky_clique::nei_sky_mc(self.graph(state)).clique.len());
        }
        self.omega.expect("just computed")
    }

    fn group_score(&mut self, state: &State) -> f64 {
        if self.group_score.is_none() {
            let direct = nei_sky_group(self.graph(state), Closeness, GROUP_K, true);
            self.group_score = Some(direct.greedy.score);
        }
        self.group_score.expect("just computed")
    }
}

/// Checks one answer against the truth of its generation.
fn check_one(
    state: &State,
    truth: &mut Truth,
    cross_check: bool,
    a: &Answer<'_>,
) -> Result<(), String> {
    let d = a.digest;
    let n = state.adj.len();
    match a.req.op {
        Op::Skyline | Op::Update => {
            let got = d.skyline.ok_or("reply has no skyline array")?;
            let (want, want_digest) = truth.skyline(state, cross_check)?;
            let ok = match &d.partial_skyline {
                Some(part) if a.req.op == Op::Skyline => {
                    part.iter().all(|v| want.binary_search(v).is_ok())
                }
                _ => got == *want_digest,
            };
            if !ok {
                return Err(format!(
                    "skyline of {} vertices, oracle has {}",
                    got.len,
                    want.len()
                ));
            }
            if a.req.op == Op::Update && d.edges != Some(state.num_edges() as u64) {
                return Err(format!(
                    "edges {:?}, oracle has {}",
                    d.edges,
                    state.num_edges()
                ));
            }
        }
        Op::Dominates => {
            let got = d.dominates.ok_or("reply has no dominates flag")?;
            let (u, v) = a.req.pair;
            if got != state.dominates(u, v) {
                return Err(format!("dominates({u}, {v}) = {got}"));
            }
        }
        Op::Clique => {
            let c = d.members.as_deref().ok_or("reply has no clique array")?;
            let valid = c.iter().enumerate().all(|(i, &u)| {
                (u as usize) < n && c[i + 1..].iter().all(|&v| u != v && state.has_edge(u, v))
            });
            if !valid {
                return Err(format!("{c:?} is not a clique"));
            }
            let omega = truth.omega(state);
            if !d.partial && c.len() != omega {
                return Err(format!("clique of size {}, ω = {omega}", c.len()));
            }
        }
        Op::Group => {
            let mut g = d.members.clone().ok_or("reply has no group array")?;
            g.sort_unstable();
            g.dedup();
            if g.len() != GROUP_K || g.iter().any(|&v| v as usize >= n) {
                return Err(format!("group {g:?} is not {GROUP_K} distinct vertices"));
            }
            let score = d.score.ok_or("reply has no score")?;
            let want = truth.group_score(state);
            if !d.partial && score != want {
                return Err(format!("group score {score}, direct kernel {want}"));
            }
        }
    }
    Ok(())
}

/// Checks every answer. `base` is the graph the server started from and
/// `answers` must include every update the server acknowledged (warm-up
/// updates too). Returns one verdict per answer, in input order: `None`
/// when correct, otherwise what is wrong.
pub fn verify(base: &Graph, answers: &[Answer<'_>]) -> Vec<Option<String>> {
    let mut verdicts: Vec<Option<String>> = vec![None; answers.len()];
    let mut updates: HashMap<u64, usize> = HashMap::new();
    let mut by_generation: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, a) in answers.iter().enumerate() {
        let generation = a.digest.generation;
        if a.req.op == Op::Update && updates.insert(generation, i).is_some() {
            verdicts[i] = Some(format!("generation {generation} stamped twice"));
        }
        by_generation.entry(generation).or_default().push(i);
    }
    let last = by_generation.keys().next_back().copied().unwrap_or(0);
    let mut state = State::new(base);
    let mut generation = 0;
    for (&stamp, members) in &by_generation {
        // Replay every update up to the stamped generation.
        while generation < stamp {
            let Some(&u) = updates.get(&(generation + 1)) else {
                break;
            };
            generation += 1;
            let a = &answers[u];
            let cursor = a.digest.cursor.unwrap_or(a.req.deltas.len());
            state.apply(&a.req.deltas[..cursor.min(a.req.deltas.len())]);
        }
        let reachable = generation == stamp;
        let cross_check = stamp == last;
        let mut truth = Truth::default();
        for &i in members {
            if verdicts[i].is_some() {
                continue;
            }
            verdicts[i] = if reachable {
                check_one(&state, &mut truth, cross_check, &answers[i]).err()
            } else {
                Some(format!(
                    "generation {stamp} follows an unacknowledged update"
                ))
            };
        }
    }
    verdicts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Generator;

    fn id_list(xs: &[VertexId]) -> String {
        let items: Vec<String> = xs.iter().map(u32::to_string).collect();
        items.join(",")
    }

    /// A reply line as the server frames it, around `result`.
    fn reply(generation: u64, result: &str) -> Digest {
        digest(&format!(
            "{{\"ok\":true,\"partial\":false,\"generation\":{generation},\"elapsed_ms\":1,\"result\":{result}}}"
        ))
        .unwrap()
    }

    #[test]
    fn accepts_true_answers_and_rejects_corrupted_ones() {
        let g = nsky_datasets::karate();
        let mut gen = Generator::new(g.clone(), 1);
        let sky_req = gen.request(Op::Skyline);
        let sky = nsky_skyline::filter_refine_sky(&g, &nsky_skyline::RefineConfig::default());
        let good_sky = reply(0, &format!("{{\"skyline\":[{}]}}", id_list(&sky.skyline)));
        let bad_sky = reply(
            0,
            &format!("{{\"skyline\":[{}]}}", id_list(&sky.skyline[1..])),
        );

        let mut dom_req = gen.request(Op::Dominates);
        dom_req.pair = (33, 8);
        let truth = nsky_skyline::domination::dominates(&g, 33, 8);
        let good_dom = reply(0, &format!("{{\"dominates\":{truth}}}"));
        let bad_dom = reply(0, &format!("{{\"dominates\":{}}}", !truth));

        let clique_req = gen.request(Op::Clique);
        let clique = nsky_clique::nei_sky_mc(&g).clique;
        let good_clique = reply(0, &format!("{{\"clique\":[{}]}}", id_list(&clique)));
        let short_clique = reply(0, &format!("{{\"clique\":[{}]}}", id_list(&clique[1..])));
        let mut not_clique = clique.clone();
        not_clique[0] = (0..34)
            .find(|v| !clique.contains(v) && !g.has_edge(*v, clique[1]))
            .unwrap();
        let fake_clique = reply(0, &format!("{{\"clique\":[{}]}}", id_list(&not_clique)));

        let pairs = [
            (&sky_req, &good_sky),
            (&sky_req, &bad_sky),
            (&dom_req, &good_dom),
            (&dom_req, &bad_dom),
            (&clique_req, &good_clique),
            (&clique_req, &short_clique),
            (&clique_req, &fake_clique),
        ];
        let answers: Vec<Answer<'_>> = pairs
            .iter()
            .map(|&(req, digest)| Answer { req, digest })
            .collect();
        let verdicts = verify(&g, &answers);
        let wrong: Vec<bool> = verdicts.iter().map(Option::is_some).collect();
        assert_eq!(
            wrong,
            [false, true, false, true, false, true, true],
            "{verdicts:?}"
        );
    }

    #[test]
    fn replays_updates_in_generation_order() {
        let g = nsky_datasets::karate();
        let mut gen = Generator::new(g.clone(), 2);
        // Cutting vertex 11's only edge isolates it, so it joins the
        // skyline: the base generation's skyline differs from gen 1's.
        assert_eq!(g.neighbors(11), &[0]);
        let mut first = gen.request(Op::Update);
        first.deltas = vec![EdgeDelta::Delete(0, 11)];
        let second = gen.request(Op::Update);
        let mut engine = MutableSkyline::new(g.clone());
        let mut updates = Vec::new();
        let mut reads = Vec::new();
        for (generation, req) in (1..).zip([&first, &second]) {
            let out = engine.apply_batch(&req.deltas);
            let sky = id_list(&out.skyline);
            updates.push(reply(
                generation,
                &format!(
                    "{{\"skyline\":[{sky}],\"cursor\":{},\"edges\":{}}}",
                    out.cursor,
                    engine.num_edges()
                ),
            ));
            reads.push(reply(generation, &format!("{{\"skyline\":[{sky}]}}")));
        }
        let read = gen.request(Op::Skyline);
        // Listed out of generation order on purpose.
        let answers = [
            Answer {
                req: &read,
                digest: &reads[1],
            },
            Answer {
                req: &second,
                digest: &updates[1],
            },
            Answer {
                req: &read,
                digest: &reads[0],
            },
            Answer {
                req: &first,
                digest: &updates[0],
            },
        ];
        assert_eq!(verify(&g, &answers), vec![None, None, None, None]);
        // Generation 1's skyline stamped with the base generation is wrong.
        let stale = Digest {
            generation: 0,
            ..reads[0].clone()
        };
        let verdicts = verify(
            &g,
            &[Answer {
                req: &read,
                digest: &stale,
            }],
        );
        assert!(verdicts[0].is_some());
    }

    #[test]
    fn typed_errors_are_not_answers() {
        let shed = digest("{\"ok\":false,\"error\":\"overloaded\",\"retry_after_ms\":100}");
        assert_eq!(shed, Err("overloaded".to_owned()));
        assert!(digest("{\"ok\":tru").is_err());
    }
}
