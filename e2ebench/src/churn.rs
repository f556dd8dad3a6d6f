//! `query-churn`: the optimizer and the broker's subscription install and
//! teardown do the work.
//!
//! Each of [`WORLDS`] worlds drawn from the seed (the `sensor-stream`
//! world) keeps a standing population of 1000 queries while queries arrive
//! and depart one at a time. An arrival is
//! `parse_query`, `OnlineRouter::insert`, subscribing its inputs and its
//! result stream, and `add_query` on the chosen engine; a departure undoes
//! it in reverse. Every [`OPS_PER_ROUND`] operations a few sensor rates
//! drift, the deltas go to the `IncrementalOptimizer`, one round runs, and
//! its migrations are carried out as unsubscribe/subscribe plus moving the
//! query between engines. A thin reading stream runs between operations,
//! so routing state is read between writes.

use crate::oracle::{check_segments, StreamIndex};
use crate::report::{peak_rss_mb, Report};
use crate::stats::median;
use crate::trace::{Layer, Tracer};
use crate::world::{
    input_digest, load_stddev, place, Plane, PlaneCounters, Segment, World, WARMUP_TICKS,
};
use crate::RunConfig;
use cosmos_core::adaptive::AdaptConfig;
use cosmos_core::distribute::{DistConfig, Distributor};
use cosmos_core::incremental::IncrementalOptimizer;
use cosmos_core::online::OnlineRouter;
use cosmos_core::spec::{Assignment, QuerySpec};
use cosmos_core::stats::StatDelta;
use cosmos_engine::tuple::Tuple;
use cosmos_net::NodeId;
use cosmos_query::{parse_query, Query, QueryId};
use cosmos_util::rng::{derive_seed, derive_seed_indexed, rng_for};
use rand::rngs::StdRng;
use rand::Rng;
use std::time::{Duration, Instant};

/// Query operations (arrivals plus departures) between two rounds.
pub const OPS_PER_ROUND: usize = 100;
/// Rounds (epochs of [`OPS_PER_ROUND`] operations plus one round) per
/// `--seconds` of run length, over all worlds.
pub const EPOCHS_PER_S: usize = 4;
/// Worlds per run, each drawn from the run's seed. A world's churn cost
/// is dominated by a few broad subscriptions whose teardown re-propagates
/// every subscription they cover, so one world's throughput swings by a
/// quarter from seed to seed; a run spreads its epochs over several.
pub const WORLDS: usize = 4;
/// Source records published between two query operations.
pub const RECORDS_PER_OP: usize = 2;
/// Sensors whose rate drifts before each round.
pub const DRIFT_SENSORS: usize = 4;

/// The live query population: specs in a dense vector (what the optimizer
/// takes) and their placement.
struct Live {
    specs: Vec<QuerySpec>,
    assignment: Assignment,
}

impl Live {
    fn insert(&mut self, spec: QuerySpec, at: cosmos_net::NodeId) {
        self.assignment.place(spec.id, at);
        self.specs.push(spec);
    }

    fn remove_at(&mut self, i: usize) -> QueryId {
        let id = self.specs.swap_remove(i).id;
        self.assignment.remove(id);
        id
    }
}

struct State {
    world: World,
    live: Live,
    plane: Plane,
    opt: IncrementalOptimizer,
}

/// The deltas of one rate drift: `DRIFT_SENSORS` sensors scaled by a
/// factor in `[0.5, 2]` (inverted when it would leave `[2, 32]` B/s), and
/// the live queries whose statistics moved, refreshed in place.
fn drift(world: &mut World, live: &mut Live, rng: &mut StdRng) -> Vec<StatDelta> {
    let n = world.scen.streams.len();
    let mut deltas = Vec::new();
    let mut moved = Vec::new();
    for _ in 0..DRIFT_SENSORS {
        let s = rng.gen_range(0..n);
        let mut f: f64 = rng.gen_range(0.5..2.0);
        if !(2.0..=32.0).contains(&(world.scen.table.rate(s) * f)) {
            f = 1.0 / f;
        }
        world.scen.table.scale_rate(s, f);
        deltas.push(StatDelta::RateChanged { substream: s });
        moved.push(s);
    }
    for spec in &mut live.specs {
        if moved.iter().any(|&s| spec.interest.contains(s)) {
            *spec = world.spec(spec.id.0 as usize);
            deltas.push(StatDelta::QueryChanged { id: spec.id });
        }
    }
    deltas
}

/// Runs one optimizer round and carries out its migrations; returns the
/// migration count.
fn round(t: &mut Tracer, s: &mut State, deltas: &[StatDelta]) -> usize {
    let State { world, live, plane, opt } = s;
    let d = Distributor::new(&world.scen.dep, &world.tree, &world.scen.table);
    let out = t.span(Layer::CoreRound, || {
        for delta in deltas {
            opt.ingest(delta);
        }
        opt.round(&d, &live.specs, &live.assignment)
    });
    // In query order: install order decides the broker's covering merges.
    let mut moves: Vec<_> =
        out.assignment.iter().filter(|&(id, p)| plane.processor_of(id) != Some(p)).collect();
    moves.sort_unstable();
    for (id, p) in moves {
        plane.migrate(t, id, p);
    }
    live.assignment = out.assignment;
    out.migrations
}

/// The oracle run after every round (untimed): the broker's ledger is
/// consistent, and every live query is hosted exactly once, at the
/// processor the optimizer assigned.
fn check_round(s: &State) -> Vec<String> {
    let mut why = Vec::new();
    if let Err(e) = s.plane.net.check_ledger_consistency() {
        why.push(format!("ledger: {e}"));
    }
    for spec in &s.live.specs {
        let hosts = s.plane.engines_hosting(spec.id);
        let want = s.live.assignment.processor_of(spec.id);
        if hosts.len() != 1 || Some(hosts[0]) != want {
            why.push(format!("query {} hosted at {hosts:?}, assigned {want:?}", spec.id.0));
        }
    }
    if s.plane.hosted_ids().len() != s.live.specs.len() {
        why.push("hosted set differs from the live population".to_string());
    }
    why
}

/// Everything one world's run contributes to the report.
#[derive(Default)]
struct Totals {
    setups: Vec<f64>,
    distribute: Vec<f64>,
    admit: Vec<f64>,
    round_ms: Vec<f64>,
    migrations: Vec<f64>,
    epochs: Vec<(f64, Duration)>,
    load_stddev: Vec<f64>,
    traced: Duration,
    counters: PlaneCounters,
    hits: u64,
    misses: u64,
    checked: u64,
    failed: u64,
    digest: u64,
}

/// What the segment oracle needs of one world, kept until every world has
/// run so that no oracle work lands in a metric (`peak_rss_mb` included).
struct Unchecked {
    segments: Vec<Segment>,
    cql: Vec<(QueryId, Query, NodeId)>,
    published: Vec<Tuple>,
}

impl Unchecked {
    /// Checks every hosting segment: it delivered what its query alone
    /// makes. Returns `(checked, failed)` and a few failure messages.
    fn check(&self) -> (u64, u64, Vec<String>) {
        let index = StreamIndex::new(&self.published);
        check_segments(&self.segments, &self.cql, &self.published, &index)
    }
}

/// Sets up one world (timed: it is one of the run's set-ups), drives
/// `epochs` epochs on it, and checks every round; returns the round
/// checks' failures and what the segment oracle needs.
fn run_world(
    cfg: &RunConfig,
    seed: u64,
    epochs: usize,
    t: &mut Tracer,
    tot: &mut Totals,
) -> (Vec<String>, Unchecked) {
    let standing = cfg.scale.queries;
    let arrivals = epochs * OPS_PER_ROUND / 2;
    let sensors = cfg.scale.sensors;
    let warm = WARMUP_TICKS * sensors;
    let ticks = WARMUP_TICKS + (epochs * OPS_PER_ROUND * RECORDS_PER_OP).div_ceil(sensors);
    let inputs = World::build(cfg.scale, standing + arrivals, seed);
    let mut records = inputs.readings(0, ticks);
    let texts: Vec<String> = inputs.cql[standing..].iter().map(|(_, q, _)| q.to_string()).collect();
    tot.digest = texts.iter().fold(tot.digest ^ input_digest(&records), |d, q| derive_seed(d, q));

    let mut off = Tracer::new(false);
    let t0 = Instant::now();
    let p = place(cfg.scale, standing + arrivals, seed, &mut off);
    let mut plane = p.plane;
    for r in &records[..warm] {
        plane.process(&mut off, r);
    }
    plane.flush();
    let opt =
        IncrementalOptimizer::new(seed, AdaptConfig::default()).expect("default knobs are valid");
    let live = Live { specs: p.specs, assignment: p.assignment };
    let mut s = State { world: p.world, live, plane, opt };
    // One round fills the optimizer's memos before timing.
    round(&mut off, &mut s, &[]);
    tot.setups.push(t0.elapsed().as_secs_f64());
    tot.distribute.push(p.distribute.as_secs_f64() * 1e3);

    let mut rng = rng_for(seed, "churn");
    let alpha = DistConfig::default().map.alpha;
    s.plane.counters = Default::default();
    let cache0 = s.opt.cache_stats();
    let mut failures = Vec::new();
    let (mut next_arrival, mut next_record, mut op_id) = (0usize, warm, 0u64);
    for e in 0..epochs {
        let traced = e % 2 == 1;
        let tr = if traced { &mut *t } else { &mut off };
        let t0 = Instant::now();
        // The router reads the rates the drift writes, so it lives for one
        // epoch and is re-seeded from the current placement.
        let mut router = {
            let w = &s.world;
            let tok = tr.begin(Layer::OnlineSeed, op_id);
            let mut r = OnlineRouter::new(&w.scen.dep, &w.tree, &w.scen.table, alpha);
            r.seed_from(&s.live.specs, &s.live.assignment);
            tr.end(tok);
            r
        };
        for k in 0..OPS_PER_ROUND {
            for _ in 0..RECORDS_PER_OP {
                let tok = tr.begin(Layer::Record, next_record as u64);
                s.plane.process(tr, &records[next_record]);
                tr.end(tok);
                next_record += 1;
            }
            op_id += 1;
            if k % 2 == 0 {
                let (id, _, proxy) = &s.world.cql[standing + next_arrival];
                let (id, proxy) = (*id, *proxy);
                let a0 = Instant::now();
                let tok = tr.begin(Layer::Arrive, op_id);
                let q = tr.span(Layer::Parse, || parse_query(&texts[next_arrival]));
                let q = q.expect("generated CQL parses");
                let spec = s.world.scen.to_spec(id, &q, proxy);
                let at = tr.span(Layer::OnlineInsert, || router.insert(&spec));
                s.plane.host(tr, id, q, proxy, at);
                s.live.insert(spec, at);
                s.opt.ingest(&StatDelta::QueryArrived { id });
                tr.end(tok);
                tot.admit.push(a0.elapsed().as_secs_f64() * 1e3);
                next_arrival += 1;
            } else {
                let tok = tr.begin(Layer::Depart, op_id);
                let id = s.live.remove_at(rng.gen_range(0..s.live.specs.len()));
                s.plane.unhost(tr, id);
                s.opt.ingest(&StatDelta::QueryDeparted { id });
                tr.end(tok);
            }
        }
        drop(router);
        let r0 = Instant::now();
        let tok = tr.begin(Layer::Round, op_id);
        let deltas = drift(&mut s.world, &mut s.live, &mut rng);
        tot.migrations.push(round(tr, &mut s, &deltas) as f64);
        tr.end(tok);
        tot.round_ms.push(r0.elapsed().as_secs_f64() * 1e3);
        let wall = t0.elapsed();
        tot.epochs.push((OPS_PER_ROUND as f64, wall));
        if traced {
            tot.traced += wall;
        }
        tot.load_stddev.push(load_stddev(&s.world, &s.live.specs, &s.live.assignment));
        let why = check_round(&s);
        tot.checked += 1;
        if !why.is_empty() {
            tot.failed += 1;
            failures.extend(why.into_iter().take(3));
        }
    }
    s.plane.flush();
    let c = s.plane.counters;
    tot.counters.records += c.records;
    tot.counters.deliveries += c.deliveries;
    tot.counters.results += c.results;
    tot.counters.link_msgs += c.link_msgs;
    tot.counters.link_cost += c.link_cost;
    let cache = s.opt.cache_stats();
    tot.hits += cache.hier_hits - cache0.hier_hits + cache.place_hits - cache0.place_hits;
    tot.misses += cache.hier_misses - cache0.hier_misses + cache.place_misses - cache0.place_misses;

    s.plane.close_all();
    records.truncate(s.plane.published());
    let segments = std::mem::take(&mut s.plane.segments);
    let cql = std::mem::take(&mut s.world.cql);
    (failures, Unchecked { segments, cql, published: records })
}

/// Runs `query-churn`.
pub fn run(cfg: &RunConfig) -> Report {
    let mut rep = Report::default();
    let epochs = (cfg.seconds as usize * EPOCHS_PER_S).div_ceil(WORLDS).max(2);
    let mut t = Tracer::new(cfg.trace);
    let mut tot = Totals::default();
    let mut unchecked = Vec::with_capacity(WORLDS);
    for w in 0..WORLDS {
        let seed = derive_seed_indexed(cfg.seed, "churn-world", w as u64);
        let (why, u) = run_world(cfg, seed, epochs, &mut t, &mut tot);
        rep.failures.extend(why);
        unchecked.push(u);
    }
    rep.set("peak_rss_mb", peak_rss_mb());
    // Oracle: every hosting segment delivered what its query alone makes.
    for u in &unchecked {
        let (checked, failed, why) = u.check();
        tot.checked += checked;
        tot.failed += failed;
        rep.failures.extend(why);
    }
    rep.input_digest = tot.digest;
    rep.attempted = tot.checked;
    rep.failed = tot.failed;

    let c = tot.counters;
    let n = c.records as f64;
    rep.set("setup_s", median(&tot.setups));
    rep.set("core.distribute_ms", median(&tot.distribute));
    rep.rates("queries_per_s", &tot.epochs, cfg.trace);
    rep.latency(&tot.admit, ("admit", "us", 1e3));
    rep.set("link_cost_per_record", c.link_cost / n);
    // The load spread after each round: churn moves it between rounds.
    rep.set("load_stddev", median(&tot.load_stddev));
    rep.set("workload.adapt_round_ms", median(&tot.round_ms));
    rep.meta(format!(
        "adapt_round_ms = {:.3} (median of {} rounds)",
        median(&tot.round_ms),
        tot.round_ms.len()
    ));
    rep.mean("core.online_insert_us", &t, Layer::OnlineInsert, 1e3);
    rep.mean("core.online_seed_ms", &t, Layer::OnlineSeed, 1e6);
    rep.mean("core.round_ms", &t, Layer::CoreRound, 1e6);
    rep.mean("query.parse_us", &t, Layer::Parse, 1e3);
    rep.mean("pubsub.subscribe_us", &t, Layer::Subscribe, 1e3);
    rep.mean("pubsub.unsubscribe_us", &t, Layer::Unsubscribe, 1e3);
    rep.mean("pubsub.publish_us", &t, Layer::Publish, 1e3);
    rep.mean("engine.push_us", &t, Layer::Push, 1e3);
    rep.mean("engine.host_move_us", &t, Layer::HostMove, 1e3);
    let migrations = tot.migrations.iter().sum::<f64>() / tot.migrations.len() as f64;
    rep.set("core.migrations_per_round", migrations);
    rep.set("core.memo_hit_ratio", tot.hits as f64 / (tot.hits + tot.misses).max(1) as f64);
    rep.set("pubsub.deliveries_per_record", c.deliveries as f64 / n);
    rep.set("pubsub.link_msgs_per_record", c.link_msgs as f64 / n);
    rep.set("pubsub.results_per_record", c.results as f64 / n);
    rep.self_times(&t, tot.traced);
    rep.meta(format!(
        "{WORLDS} worlds of {} standing queries, each {epochs} epochs of {OPS_PER_ROUND} \
         operations (half arrivals, half departures) and one round; {RECORDS_PER_OP} records \
         before each operation",
        cfg.scale.queries
    ));
    rep.meta(format!("setup_s samples (one per world): {:?}", tot.setups));
    cfg.write_spans(&t);
    rep
}
