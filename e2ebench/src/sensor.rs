//! `sensor-stream`: the data plane does the work.
//!
//! About 1000 two-way window joins placed by `Distributor::distribute` on
//! 30 processors; 100 sensors publish one reading per simulated second in
//! timestamp order. A closed loop measures sustained throughput (each
//! record is published, routed, evaluated, and its results delivered to
//! the proxies before the next starts); an open loop at a fixed offered
//! rate measures delivery latency. The optimizer runs only in set-up.

use crate::oracle::{check_segments, StreamIndex};
use crate::report::{closed_loop, peak_rss_mb, repeat_setup, wait_until, Report};
use crate::stats::median;
use crate::trace::{Layer, Tracer};
use crate::world::{input_digest, load_stddev, place, World, WARMUP_TICKS};
use crate::RunConfig;
use std::time::{Duration, Instant};

/// Closed-loop sensor ticks per `--seconds` of run length.
pub const CLOSED_TICKS_PER_S: usize = 40;
/// Open-loop sensor ticks per `--seconds` of run length.
pub const OPEN_TICKS_PER_S: usize = 15;
/// Offered rate of the open loop, records per second: under a third of
/// the closed-loop rate on a 2-core host, so that a tick stalled by another
/// tenant of a shared host rarely delays the next one.
pub const OFFERED_RECORDS_PER_S: f64 = 2500.0;

/// Runs `sensor-stream`.
pub fn run(cfg: &RunConfig) -> Report {
    let mut rep = Report::default();
    let sensors = cfg.scale.sensors;
    let warm = WARMUP_TICKS * sensors;
    let closed = cfg.seconds as usize * CLOSED_TICKS_PER_S * sensors;
    let open = cfg.seconds as usize * OPEN_TICKS_PER_S;
    let ticks = WARMUP_TICKS + closed / sensors + open;
    let records = World::build(cfg.scale, 0, cfg.seed).readings(0, ticks);
    rep.input_digest = input_digest(&records);

    let mut t = Tracer::new(false);
    let mut distribute = Vec::new();
    let (mut p, setups) = repeat_setup(|| {
        let mut p = place(cfg.scale, cfg.scale.queries, cfg.seed, &mut t);
        for r in &records[..warm] {
            p.plane.process(&mut t, r);
        }
        p.plane.flush();
        distribute.push(p.distribute.as_secs_f64() * 1e3);
        p
    });
    rep.set("setup_s", median(&setups));
    rep.set("core.distribute_ms", median(&distribute));

    let mut t = Tracer::new(cfg.trace);
    p.plane.counters = Default::default();
    let engine0 = p.plane.engine_stats();
    let plane = &mut p.plane;
    let (chunks, mut traced) = closed_loop(&mut t, closed, |tr, i| {
        let i = warm + i;
        let tok = tr.begin(Layer::Record, i as u64);
        plane.process(tr, &records[i]);
        tr.end(tok);
    });
    p.plane.flush();

    // Open loop: every sensor samples on the tick, so a tick's records are
    // all due at once; each is timed from that due time to the end of its
    // processing (its last result delivered).
    let period = Duration::from_secs_f64(sensors as f64 / OFFERED_RECORDS_PER_S);
    let mut lat = Vec::with_capacity(open * sensors);
    let mut waits = Vec::with_capacity(open * sensors);
    let start = Instant::now() + Duration::from_millis(5);
    let mut late = Duration::ZERO;
    for k in 0..open {
        let due = start + period * k as u32;
        late = late.max(wait_until(due));
        let t0 = Instant::now();
        for s in 0..sensors {
            let i = warm + closed + k * sensors + s;
            waits.push(due.elapsed().as_secs_f64() * 1e3);
            let tok = t.begin(Layer::Record, i as u64);
            p.plane.process(&mut t, &records[i]);
            t.end(tok);
            lat.push(due.elapsed().as_secs_f64() * 1e3);
        }
        traced += t0.elapsed();
    }
    p.plane.flush();

    let c = p.plane.counters;
    let n = c.records as f64;
    rep.rates("records_per_s", &chunks, cfg.trace);
    rep.latency(&lat, ("latency", "ms", 1.0));
    rep.waits(&waits);
    rep.set("link_cost_per_record", c.link_cost / n);
    rep.set("load_stddev", load_stddev(&p.world, &p.specs, &p.assignment));
    rep.set("peak_rss_mb", peak_rss_mb());

    // Oracle: what reached each proxy equals the query run alone.
    p.plane.close_all();
    let published = &records[..p.plane.published()];
    let index = StreamIndex::new(published);
    let cql = &p.world.cql;
    let (checked, failed, why) = check_segments(&p.plane.segments, cql, published, &index);
    rep.attempted = checked;
    rep.failed = failed;
    rep.failures.extend(why);

    let e = p.plane.engine_stats();
    let pushes = c.pushes as f64;
    let ingested = (e.ingested - engine0.ingested) as f64;
    let filtered = (e.filtered - engine0.filtered) as f64;
    rep.mean("pubsub.publish_us", &t, Layer::Publish, 1e3);
    rep.mean("pubsub.result_publish_us", &t, Layer::ResultPublish, 1e3);
    rep.mean("engine.push_us", &t, Layer::Push, 1e3);
    rep.mean("engine.project_us", &t, Layer::Project, 1e3);
    rep.set("pubsub.deliveries_per_record", c.deliveries as f64 / n);
    rep.set("pubsub.link_msgs_per_record", c.link_msgs as f64 / n);
    rep.set("pubsub.results_per_record", c.results as f64 / n);
    rep.set("engine.probes_per_push", (e.probes - engine0.probes) as f64 / pushes);
    rep.set("engine.pushes_per_record", pushes / n);
    rep.set("engine.ingest_ratio", ingested / (ingested + filtered).max(1.0));
    rep.self_times(&t, traced);
    rep.meta(format!(
        "records: {warm} warm-up, {closed} closed loop, {} open loop offered at \
         {OFFERED_RECORDS_PER_S} records/s (generator at most {:.3} ms late)",
        open * sensors,
        late.as_secs_f64() * 1e3
    ));
    rep.meta(format!("setup_s samples: {setups:?}"));
    cfg.write_spans(&t);
    rep
}
