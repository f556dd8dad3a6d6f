//! The §4.2 world and its realization on the real data plane.
//!
//! [`World`] is everything the seed decides: the PlanetLab-like deployment
//! with synthetic SensorScope sensors, the CQL query population, and the
//! sensor readings. [`Plane`] realizes a placement in `cosmos-pubsub` and
//! `cosmos-engine`: each processor subscribes to its queries' input
//! streams with their selection predicates pushed down, runs its queries in
//! one [`StreamEngine`], and publishes each query's results on a result
//! stream its proxy subscribes to.

use crate::stats::Digest;
use crate::trace::{Layer, Tracer};
use cosmos_core::distribute::Distributor;
use cosmos_core::hierarchy::CoordinatorTree;
use cosmos_core::spec::{Assignment, QuerySpec};
use cosmos_engine::exec::CompiledProjection;
use cosmos_engine::tuple::Tuple;
use cosmos_engine::StreamEngine;
use cosmos_net::NodeId;
use cosmos_pubsub::{BrokerNetwork, StreamProjection, SubId, Subscription};
use cosmos_query::{Predicate, Query, QueryId};
use cosmos_util::Symbol;
use cosmos_workload::sensors::SensorScenario;
use std::collections::{BTreeMap, HashMap};

/// Sizes of a world. [`Scale::paper`] is the §4.2 prototype set-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// SensorScope sensors, one stream each.
    pub sensors: usize,
    /// Source nodes the sensors are spread over.
    pub sources: usize,
    /// Processor nodes.
    pub processors: usize,
    /// Standing query population.
    pub queries: usize,
}

impl Scale {
    /// 100 sensors on 5 sources, 30 processors, 1000 queries.
    pub const fn paper() -> Self {
        Self { sensors: 100, sources: 5, processors: 30, queries: 1000 }
    }

    /// A small world for the benchmark's own tests.
    pub const fn tiny() -> Self {
        Self { sensors: 12, sources: 3, processors: 6, queries: 40 }
    }
}

/// Simulated milliseconds between two readings of one sensor.
pub const PERIOD_MS: i64 = 1_000;
/// Warm-up length in sensor ticks: fills the longest window the query
/// generator draws (`[Range 60 Seconds]`).
pub const WARMUP_TICKS: usize = 60;

/// Seed of the deployment: topology, node roles and sensor rates are the
/// fixed testbed every run shares, as the paper's prototype ran on one
/// PlanetLab slice. The run's seed draws everything placed on it.
pub const DEPLOYMENT_SEED: u64 = 42;

/// A deployment plus everything the run's seed decides on it: the query
/// population with its proxies, and the sensor readings.
pub struct World {
    /// Deployment, substream table, stream names and sources.
    pub scen: SensorScenario,
    /// Coordinator hierarchy over the processors.
    pub tree: CoordinatorTree,
    /// `(id, query, proxy)` for every query the run may host, standing
    /// population first.
    pub cql: Vec<(QueryId, Query, NodeId)>,
    seed: u64,
}

impl World {
    /// Builds the deployment and `n_queries` CQL queries drawn from `seed`.
    pub fn build(scale: Scale, n_queries: usize, seed: u64) -> Self {
        let scen =
            SensorScenario::build(scale.sensors, scale.sources, scale.processors, DEPLOYMENT_SEED);
        let tree = CoordinatorTree::build(&scen.dep, 2);
        let cql = scen.generate_cql(n_queries, seed);
        Self { scen, tree, cql, seed }
    }

    /// The optimizer's view of query `i` of [`World::cql`] under the
    /// current rates.
    pub fn spec(&self, i: usize) -> QuerySpec {
        let (id, q, proxy) = &self.cql[i];
        self.scen.to_spec(*id, q, *proxy)
    }

    /// The source records of sensor ticks `[from, to)`: every sensor's
    /// reading of a tick, in sensor order, ticks in timestamp order.
    pub fn readings(&self, from: usize, to: usize) -> Vec<Tuple> {
        let n = self.scen.streams.len();
        let per_sensor: Vec<Vec<Tuple>> = (0..n)
            .map(|s| self.scen.readings(s, to, 0, PERIOD_MS, self.seed).split_off(from))
            .collect();
        let mut out = Vec::with_capacity((to - from) * n);
        for k in 0..to - from {
            for sensor in &per_sensor {
                out.push(sensor[k].clone());
            }
        }
        out
    }
}

/// A query's selection predicates on `alias`, re-qualified by the stream
/// name, which is how broker filters name their relation.
pub fn pushed_down(q: &Query, alias: &str, stream: &str) -> Vec<Predicate> {
    q.selection_predicates_for(alias)
        .into_iter()
        .map(|p| match p {
            Predicate::Cmp { attr, op, value } => {
                let mut attr = attr.clone();
                attr.relation = stream.to_string();
                Predicate::Cmp { attr, op: *op, value: value.clone() }
            }
            other => other.clone(),
        })
        .collect()
}

/// The result stream of query `id`.
pub fn result_stream(id: QueryId) -> Symbol {
    Symbol::intern(&format!("Result{}", id.0))
}

/// The processor's input subscription of query `id`.
pub fn input_sub(id: QueryId) -> SubId {
    SubId(2 * id.0)
}

/// The proxy's result subscription of query `id`.
pub fn result_sub(id: QueryId) -> SubId {
    SubId(2 * id.0 + 1)
}

/// One hosting of a query, from the record it was hosted at to the record
/// it was moved or removed at, with the digest of what reached its proxy.
#[derive(Debug, Clone)]
pub struct Segment {
    /// The query.
    pub id: QueryId,
    /// Index of the first source record published while hosted.
    pub from: usize,
    /// One past the last source record published while hosted.
    pub to: usize,
    /// Results delivered to the proxy.
    pub got: Digest,
}

struct Hosted {
    processor: NodeId,
    proxy: NodeId,
    query: Query,
    proj: CompiledProjection,
    result: Symbol,
    from: usize,
    got: Digest,
}

/// Counters the data plane accumulates over the run.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlaneCounters {
    /// Source records published.
    pub records: u64,
    /// Input deliveries to processor subscriptions.
    pub deliveries: u64,
    /// Engine pushes (one per processor reached per record).
    pub pushes: u64,
    /// Results published.
    pub results: u64,
    /// Link transmissions (source and result traffic).
    pub link_msgs: u64,
    /// Latency-weighted link bytes (source and result traffic).
    pub link_cost: f64,
}

/// A placement realized on one broker network and one engine per
/// processor.
pub struct Plane {
    /// The broker overlay over the deployment's topology.
    pub net: BrokerNetwork,
    engines: BTreeMap<NodeId, StreamEngine>,
    hosted: HashMap<QueryId, Hosted>,
    /// Closed hostings (moved or departed queries).
    pub segments: Vec<Segment>,
    /// Data-plane counters.
    pub counters: PlaneCounters,
    published: usize,
    since_flush: usize,
    targets: Vec<(NodeId, Tuple)>,
}

/// Records between two harvests of the broker's link counters and
/// delivery log (which otherwise grows with the run).
const FLUSH_EVERY: usize = 256;

impl Plane {
    /// A broker per node of `world`'s topology, every sensor stream
    /// advertised at its source, one empty engine per processor.
    pub fn new(world: &World) -> Self {
        let mut net = BrokerNetwork::new(world.scen.dep.topology().clone());
        for s in &world.scen.streams {
            net.advertise(s.as_str(), world.scen.stream_source[s]);
        }
        let engines =
            world.scen.dep.processors().iter().map(|&p| (p, StreamEngine::new())).collect();
        Self {
            net,
            engines,
            hosted: HashMap::new(),
            segments: Vec::new(),
            counters: PlaneCounters::default(),
            published: 0,
            since_flush: 0,
            targets: Vec::new(),
        }
    }

    /// Source records published so far.
    pub fn published(&self) -> usize {
        self.published
    }

    /// Hosts `query` at `processor`: subscribes its inputs with selections
    /// pushed down, advertises its result stream there and subscribes the
    /// proxy to it, and adds the query to the processor's engine.
    pub fn host(&mut self, t: &mut Tracer, id: QueryId, query: Query, proxy: NodeId, at: NodeId) {
        let mut b = Subscription::builder(at).id(input_sub(id));
        for r in &query.relations {
            b = b.stream(
                r.stream.as_str(),
                StreamProjection::All,
                pushed_down(&query, &r.alias, &r.stream),
            );
        }
        let result = result_stream(id);
        let result_sub = Subscription::builder(proxy)
            .id(result_sub(id))
            .stream(result, StreamProjection::All, vec![])
            .build();
        let net = &mut self.net;
        t.span(Layer::Subscribe, || {
            net.subscribe(b.build());
            net.advertise(result, at);
            net.subscribe(result_sub);
        });
        let engine = self.engines.get_mut(&at).expect("hosting at a processor");
        let q = query.clone();
        t.span(Layer::HostMove, || engine.add_query(id, q));
        let proj = CompiledProjection::compile(&query.projection);
        let from = self.published;
        self.hosted.insert(
            id,
            Hosted { processor: at, proxy, query, proj, result, from, got: Digest::default() },
        );
    }

    /// Removes query `id`: unsubscribes its input and result streams and
    /// drops it from its engine, closing its hosting segment. Returns the
    /// query and its proxy.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not hosted.
    pub fn unhost(&mut self, t: &mut Tracer, id: QueryId) -> (Query, NodeId) {
        let h = self.hosted.remove(&id).expect("unhosting a hosted query");
        let net = &mut self.net;
        t.span(Layer::Unsubscribe, || {
            net.unsubscribe(input_sub(id));
            net.unsubscribe(result_sub(id));
        });
        let engine = self.engines.get_mut(&h.processor).expect("hosted at a processor");
        t.span(Layer::HostMove, || engine.remove_query(id));
        self.segments.push(Segment { id, from: h.from, to: self.published, got: h.got });
        (h.query, h.proxy)
    }

    /// Moves query `id` to `to` (unsubscribe, unhost, host, subscribe).
    /// Window state does not move: the query restarts empty at `to`.
    pub fn migrate(&mut self, t: &mut Tracer, id: QueryId, to: NodeId) {
        let (query, proxy) = self.unhost(t, id);
        self.host(t, id, query, proxy, to);
    }

    /// Where query `id` is hosted, if it is.
    pub fn processor_of(&self, id: QueryId) -> Option<NodeId> {
        self.hosted.get(&id).map(|h| h.processor)
    }

    /// Hosted query ids, ascending.
    pub fn hosted_ids(&self) -> Vec<QueryId> {
        let mut ids: Vec<QueryId> = self.hosted.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Processors whose engine hosts `id` (the oracle's exactly-once check).
    pub fn engines_hosting(&self, id: QueryId) -> Vec<NodeId> {
        self.engines.iter().filter(|(_, e)| e.query(id).is_some()).map(|(&n, _)| n).collect()
    }

    /// Hosts every query of `world` placed by `assignment`.
    pub fn host_all(&mut self, t: &mut Tracer, world: &World, n: usize, assignment: &Assignment) {
        for (id, q, proxy) in &world.cql[..n] {
            let at = assignment.processor_of(*id).expect("every query is placed");
            self.host(t, *id, q.clone(), *proxy, at);
        }
    }

    /// Publishes one source record and carries it through the plane: the
    /// broker routes it to the processors whose subscriptions match, each
    /// such engine consumes it once, and every result is projected and
    /// published on its query's result stream toward the proxy.
    pub fn process(&mut self, t: &mut Tracer, rec: &Tuple) {
        let before = self.net.log().len();
        let net = &mut self.net;
        t.span(Layer::Publish, || net.publish(rec.clone()));
        self.targets.clear();
        for d in &self.net.log().deliveries()[before..] {
            self.counters.deliveries += 1;
            if !self.targets.iter().any(|(n, _)| *n == d.node) {
                self.targets.push((d.node, d.message.clone()));
            }
        }
        let mut targets = std::mem::take(&mut self.targets);
        for (node, msg) in targets.drain(..) {
            let engine =
                self.engines.get_mut(&node).expect("input subscriptions live at processors");
            let outs = t.span(Layer::Push, || engine.push(msg));
            self.counters.pushes += 1;
            for out in outs {
                let h = self.hosted.get_mut(&out.query).expect("results come from hosted queries");
                let tuple = t.span(Layer::Project, || out.project_compiled(&h.proj, h.result));
                let b = self.net.log().len();
                let net = &mut self.net;
                t.span(Layer::ResultPublish, || net.publish(tuple));
                self.counters.results += 1;
                for d in &self.net.log().deliveries()[b..] {
                    if d.sub == result_sub(out.query) && d.node == h.proxy {
                        h.got.add(&d.message);
                    }
                }
            }
        }
        self.targets = targets;
        self.published += 1;
        self.counters.records += 1;
        self.since_flush += 1;
        if self.since_flush >= FLUSH_EVERY {
            self.flush();
        }
    }

    /// Harvests the broker's link counters and clears its delivery log.
    pub fn flush(&mut self) {
        // `weighted_cost()` by hand, summed in link order so the total
        // repeats to the last bit for a given seed.
        let topo = self.net.topology();
        for ((a, b), s) in self.net.all_link_stats() {
            self.counters.link_cost += s.bytes as f64 * topo.edge_latency(a, b).unwrap_or(0.0);
            self.counters.link_msgs += s.messages;
        }
        self.net.reset_stats();
        self.since_flush = 0;
    }

    /// Closes every open hosting segment (at the end of the run).
    pub fn close_all(&mut self) {
        for id in self.hosted_ids() {
            let h = &self.hosted[&id];
            self.segments.push(Segment { id, from: h.from, to: self.published, got: h.got });
        }
    }

    /// Engine counters summed over every processor.
    pub fn engine_stats(&self) -> cosmos_engine::EngineStats {
        let mut total = cosmos_engine::EngineStats::default();
        for e in self.engines.values() {
            let s = e.total_stats();
            total.ingested += s.ingested;
            total.probes += s.probes;
            total.emitted += s.emitted;
            total.filtered += s.filtered;
        }
        total
    }
}

/// A world placed by the optimizer and hosted on the data plane.
pub struct Placed {
    /// The world.
    pub world: World,
    /// Specs of the hosted queries.
    pub specs: Vec<QuerySpec>,
    /// Their placement.
    pub assignment: Assignment,
    /// The realized data plane.
    pub plane: Plane,
    /// Wall time of `Distributor::distribute`.
    pub distribute: std::time::Duration,
}

/// Builds the world with a pool of `pool` queries, places the first
/// `scale.queries` of them with `Distributor::distribute`, and hosts them
/// on a fresh data plane.
pub fn place(scale: Scale, pool: usize, seed: u64, t: &mut Tracer) -> Placed {
    let world = World::build(scale, pool, seed);
    let specs: Vec<QuerySpec> = (0..scale.queries).map(|i| world.spec(i)).collect();
    let (assignment, distribute) = distribute(&world, &specs, seed);
    let mut plane = Plane::new(&world);
    plane.host_all(t, &world, scale.queries, &assignment);
    Placed { world, specs, assignment, plane, distribute }
}

/// Places `specs` with `Distributor::distribute`, timing the call.
pub fn distribute(
    world: &World,
    specs: &[QuerySpec],
    seed: u64,
) -> (Assignment, std::time::Duration) {
    let d = Distributor::new(&world.scen.dep, &world.tree, &world.scen.table);
    let t0 = std::time::Instant::now();
    let assignment = d.distribute(specs, seed).assignment;
    (assignment, t0.elapsed())
}

/// Standard deviation of processor load under `assignment`.
pub fn load_stddev(world: &World, specs: &[QuerySpec], assignment: &Assignment) -> f64 {
    crate::stats::stddev(&assignment.loads(specs, world.scen.dep.processors()))
}

/// Digest of a record sequence (the run's input fingerprint).
pub fn input_digest(records: &[Tuple]) -> u64 {
    let mut d = Digest::default();
    for r in records {
        d.add(r);
    }
    d.hash
}
