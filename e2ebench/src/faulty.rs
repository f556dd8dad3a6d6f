//! `faulty-stream`: reliable delivery, checkpointing and replay do the
//! work.
//!
//! The `sensor-stream` world, placed the same way, hosted through
//! `RecoverySim` over a `LossyNetwork` with the program's own defaults:
//! `FaultParams::lossy` (5% drop, 3% duplicate, 5% reorder) and
//! `RecoveryParams::moderate` (a checkpoint every 5000 simulated ticks,
//! plus its crash and restore weights). Each step uploads
//! [`TICKS_PER_STEP`] ticks of every sensor's readings, then runs one
//! `fault_step` and one `settle`. Host subscriptions pass everything, so
//! selection runs inside the engines.

use crate::oracle::fault_free_log;
use crate::report::{closed_loop, peak_rss_mb, repeat_setup, wait_until, Report, CHUNKS};
use crate::stats::median;
use crate::trace::{Layer, Tracer};
use crate::world::{distribute, input_digest, load_stddev, World, WARMUP_TICKS};
use crate::RunConfig;
use cosmos_core::spec::{Assignment, QuerySpec};
use cosmos_engine::tuple::Tuple;
use cosmos_net::NodeId;
use cosmos_pubsub::{BrokerNetwork, LossyNetwork};
use cosmos_query::{Query, QueryId};
use cosmos_util::rng::rng_for;
use cosmos_workload::params::FaultParams;
use cosmos_workload::{FaultOp, RecoveryParams, RecoverySim};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Sensor ticks uploaded per step: SensorScope stations buffer readings
/// and upload them in batches. One settle per five ticks keeps a step's
/// cost steady (one settle's simulated-clock advance, and so its
/// checkpoint count, varies up to fivefold from one single-tick settle to
/// the next) and runs at about 1.0k records/s.
pub const TICKS_PER_STEP: usize = 5;
/// Closed-loop steps per `--seconds` of run length (rounded up to whole
/// chunks).
pub const CLOSED_STEPS_PER_S: usize = 1;
/// Open-loop steps per `--seconds` of run length.
pub const OPEN_STEPS_PER_S: usize = 3;
/// Offered rate of the open loop, records per second: about half the
/// closed-loop rate on a 2-core host.
pub const OFFERED_RECORDS_PER_S: f64 = 520.0;

/// Counters harvested from the reliable plane, which forgets them on
/// every accounting reset.
#[derive(Debug, Default, Clone, Copy)]
struct Harvest {
    goodput_cost: f64,
    goodput_msgs: u64,
    physical_msgs: u64,
    retransmissions: u64,
}

struct State {
    world: World,
    specs: Vec<QuerySpec>,
    assignment: Assignment,
    sim: RecoverySim,
    hosted: BTreeMap<NodeId, Vec<(QueryId, Query)>>,
    published: usize,
    harvest: Harvest,
    distribute: Duration,
}

impl State {
    /// Builds and places the world and hosts one engine per processor
    /// through the recovery simulator.
    fn build(cfg: &RunConfig) -> Self {
        let world = World::build(cfg.scale, cfg.scale.queries, cfg.seed);
        let specs: Vec<QuerySpec> = (0..cfg.scale.queries).map(|i| world.spec(i)).collect();
        let (assignment, distribute) = distribute(&world, &specs, cfg.seed);
        let mut net = BrokerNetwork::new(world.scen.dep.topology().clone());
        for s in &world.scen.streams {
            net.advertise(s.as_str(), world.scen.stream_source[s]);
        }
        let lossy = LossyNetwork::new(net, FaultParams::lossy(cfg.seed).plan());
        let mut sim =
            RecoverySim::new(lossy, RecoveryParams::moderate()).expect("default knobs are valid");
        let mut hosted: BTreeMap<NodeId, Vec<(QueryId, Query)>> = BTreeMap::new();
        for (id, q, _) in &world.cql {
            let at = assignment.processor_of(*id).expect("every query is placed");
            hosted.entry(at).or_default().push((*id, q.clone()));
        }
        for (&node, qs) in &hosted {
            sim.host_engine(node, qs.clone());
        }
        Self {
            world,
            specs,
            assignment,
            sim,
            hosted,
            published: 0,
            harvest: Harvest::default(),
            distribute,
        }
    }

    /// One step: publish `records`, roll one fault step, settle. Returns
    /// the fault step's outcome and its duration.
    fn step(&mut self, t: &mut Tracer, records: &[Tuple], rng: &mut StdRng) -> (FaultOp, Duration) {
        let sim = &mut self.sim;
        for r in records {
            t.span(Layer::LossyPublish, || sim.publish(r.clone()));
        }
        self.published += records.len();
        let (roll, pick) = (rng.gen_range(0..100u32), rng.gen_range(0..usize::MAX));
        let f0 = Instant::now();
        let op = t.span(Layer::FaultStep, || sim.fault_step(roll, pick));
        let fault = f0.elapsed();
        t.span(Layer::Settle, || sim.settle());
        (op, fault)
    }

    /// Harvests the reliable plane's counters and resets its accounting,
    /// whose delivery log otherwise grows with the run.
    fn harvest(&mut self) {
        let lossy = self.sim.recovery().lossy();
        let topo = lossy.network().topology();
        for ((a, b), s) in lossy.goodput_stats() {
            self.harvest.goodput_cost += s.bytes as f64 * topo.edge_latency(a, b).unwrap_or(0.0);
            self.harvest.goodput_msgs += s.messages;
        }
        self.harvest.physical_msgs +=
            lossy.physical_stats().iter().map(|(_, s)| s.messages).sum::<u64>();
        self.harvest.retransmissions += lossy.retransmissions();
        self.sim.recovery_mut().reset_stats();
    }

    fn retained_peak(&self) -> usize {
        let r = self.sim.recovery();
        r.host_nodes().map(|n| r.retained(n)).max().unwrap_or(0)
    }
}

/// Runs `faulty-stream`.
pub fn run(cfg: &RunConfig) -> Report {
    let mut rep = Report::default();
    let step_len = cfg.scale.sensors * TICKS_PER_STEP;
    let warm = WARMUP_TICKS / TICKS_PER_STEP;
    let closed = (cfg.seconds as usize * CLOSED_STEPS_PER_S).div_ceil(CHUNKS) * CHUNKS;
    let open = cfg.seconds as usize * OPEN_STEPS_PER_S;
    let ticks = (warm + closed + open) * TICKS_PER_STEP;
    let records = World::build(cfg.scale, 0, cfg.seed).readings(0, ticks);
    rep.input_digest = input_digest(&records);
    let step_records = |j: usize| &records[j * step_len..(j + 1) * step_len];

    let mut distribute = Vec::new();
    let (mut s, setups) = repeat_setup(|| {
        let mut s = State::build(cfg);
        distribute.push(s.distribute.as_secs_f64() * 1e3);
        for j in 0..warm {
            for r in step_records(j) {
                s.sim.publish(r.clone());
            }
            s.published += step_len;
            s.sim.settle();
        }
        s.harvest();
        s.harvest = Harvest::default();
        s
    });
    rep.set("setup_s", median(&setups));
    rep.set("core.distribute_ms", median(&distribute));

    let mut t = Tracer::new(cfg.trace);
    let mut rng = rng_for(cfg.seed, "faults");
    let mut fault_ms = Vec::new();
    let mut settle_ticks = Vec::new();
    let mut retained_peak = 0;
    let mut step = |s: &mut State, tr: &mut Tracer, j: usize| {
        let now0 = s.sim.recovery().lossy().now();
        let tok = tr.begin(Layer::Step, j as u64);
        let (op, d) = s.step(tr, step_records(j), &mut rng);
        tr.end(tok);
        if op != FaultOp::Idle {
            fault_ms.push(d.as_secs_f64() * 1e3);
        }
        settle_ticks.push((s.sim.recovery().lossy().now() - now0) as f64);
        retained_peak = retained_peak.max(s.retained_peak());
        s.harvest();
    };
    let (chunks, mut traced) = closed_loop(&mut t, closed, |tr, j| step(&mut s, tr, warm + j));
    let chunks: Vec<_> = chunks.iter().map(|&(n, d)| (n * step_len as f64, d)).collect();

    // Open loop: a step's records are all due when it is uploaded and are
    // done when the settle that carries them into the output logs returns,
    // so a step is one latency sample.
    let period = Duration::from_secs_f64(step_len as f64 / OFFERED_RECORDS_PER_S);
    let mut lat = Vec::with_capacity(open);
    let mut waits = Vec::with_capacity(open);
    let start = Instant::now() + Duration::from_millis(5);
    let mut late = Duration::ZERO;
    for k in 0..open {
        let due = start + period * k as u32;
        late = late.max(wait_until(due));
        let t0 = Instant::now();
        waits.push(due.elapsed().as_secs_f64() * 1e3);
        step(&mut s, &mut t, warm + closed + k);
        lat.push(due.elapsed().as_secs_f64() * 1e3);
        traced += t0.elapsed();
    }
    let timed_records = ((closed + open) * step_len) as f64;
    let h = s.harvest;
    rep.rates("records_per_s", &chunks, cfg.trace);
    rep.latency(&lat, ("latency", "ms", 1.0));
    rep.waits(&waits);
    rep.set("link_cost_per_record", h.goodput_cost / timed_records);
    rep.set("load_stddev", load_stddev(&s.world, &s.specs, &s.assignment));
    rep.set("peak_rss_mb", peak_rss_mb());

    // Oracle: once every crashed host is restored, each host's output log
    // equals that of an engine that never crashed and saw no faults.
    while let Some(&n) = s.sim.crashed().last() {
        s.sim.restore_host(n);
    }
    s.sim.settle();
    let published = &records[..s.published];
    let (mut ingested, mut filtered) = (0u64, 0u64);
    for (node, qs) in &s.hosted {
        let want = fault_free_log(qs, published);
        let got = s.sim.recovery().output_log(*node);
        if want != got {
            rep.failed += 1;
            rep.failures.push(format!(
                "host {node}: output log of {} results, a fault-free engine makes {}",
                got.len(),
                want.len()
            ));
        }
        let e = s.sim.recovery().engine_stats(*node);
        ingested += e.ingested;
        filtered += e.filtered;
    }
    rep.attempted = s.hosted.len() as u64;

    rep.mean("pubsub.settle_ms", &t, Layer::Settle, 1e6);
    rep.mean("pubsub.lossy_publish_us", &t, Layer::LossyPublish, 1e3);
    rep.set("pubsub.crash_restore_ms", if fault_ms.is_empty() { 0.0 } else { median(&fault_ms) });
    rep.set("pubsub.retransmits_per_record", h.retransmissions as f64 / timed_records);
    rep.set("pubsub.physical_per_goodput", h.physical_msgs as f64 / h.goodput_msgs.max(1) as f64);
    rep.set("pubsub.goodput_msgs_per_record", h.goodput_msgs as f64 / timed_records);
    rep.set("pubsub.retained_peak", retained_peak as f64);
    rep.set("pubsub.sim_ticks_per_settle", median(&settle_ticks));
    rep.set("engine.ingest_ratio", ingested as f64 / (ingested + filtered).max(1) as f64);
    rep.self_times(&t, traced);
    rep.meta(format!(
        "steps of {step_len} records: {warm} warm-up, {closed} closed loop, {open} open loop \
         offered at {OFFERED_RECORDS_PER_S} records/s (generator at most {:.3} ms late), one \
         latency sample per open-loop step; {} fault steps crashed or restored a host",
        late.as_secs_f64() * 1e3,
        fault_ms.len()
    ));
    rep.meta(format!("setup_s samples: {setups:?}"));
    cfg.write_spans(&t);
    rep
}
