//! What one workload run reports, and the measuring helpers every workload
//! shares.

use crate::stats::{blocked, percentile};
use crate::trace::{Layer, Tracer};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The end-to-end metrics every workload reports (untraced runs), with
/// units. `ops_per_s` is records/s for the stream workloads and query
/// operations/s for `query-churn`; the latency is record delivery for the
/// stream workloads and query admission for `query-churn`. Its 99th
/// percentile is the per-layer `workload.latency_p99_ms`: on a shared host
/// it follows other tenants' stalls, and its spread over ten seeds reached
/// 31%, more than any bound a regression check may use.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("link_cost_per_record", "byte.lat/record"),
    ("load_stddev", "load"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics of the traced run, with units. A workload that
/// never calls a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("core.distribute_ms", "ms"),
    ("core.online_insert_us", "us"),
    ("core.online_seed_ms", "ms"),
    ("core.round_ms", "ms"),
    ("core.migrations_per_round", "count"),
    ("core.memo_hit_ratio", "ratio"),
    ("query.parse_us", "us"),
    ("pubsub.subscribe_us", "us"),
    ("pubsub.unsubscribe_us", "us"),
    ("pubsub.publish_us", "us"),
    ("pubsub.result_publish_us", "us"),
    ("pubsub.deliveries_per_record", "count"),
    ("pubsub.link_msgs_per_record", "count"),
    ("pubsub.results_per_record", "count"),
    ("pubsub.lossy_publish_us", "us"),
    ("pubsub.settle_ms", "ms"),
    ("pubsub.crash_restore_ms", "ms"),
    ("pubsub.retransmits_per_record", "count"),
    ("pubsub.physical_per_goodput", "ratio"),
    ("pubsub.goodput_msgs_per_record", "count"),
    ("pubsub.retained_peak", "records"),
    ("pubsub.sim_ticks_per_settle", "ticks"),
    ("engine.push_us", "us"),
    ("engine.probes_per_push", "count"),
    ("engine.pushes_per_record", "count"),
    ("engine.ingest_ratio", "ratio"),
    ("engine.project_us", "us"),
    ("engine.host_move_us", "us"),
    ("workload.adapt_round_ms", "ms"),
    ("workload.latency_p99_ms", "ms"),
    ("workload.wait_p50_ms", "ms"),
    ("workload.wait_p99_ms", "ms"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.traced_ops_per_s", "1/s"),
    ("trace.overhead_ratio", "ratio"),
    ("self_s.workload.record", "s"),
    ("self_s.workload.arrive", "s"),
    ("self_s.workload.depart", "s"),
    ("self_s.workload.round", "s"),
    ("self_s.workload.step", "s"),
    ("self_s.core.online_insert", "s"),
    ("self_s.core.online_seed", "s"),
    ("self_s.core.round", "s"),
    ("self_s.query.parse", "s"),
    ("self_s.pubsub.subscribe", "s"),
    ("self_s.pubsub.unsubscribe", "s"),
    ("self_s.pubsub.publish", "s"),
    ("self_s.pubsub.result_publish", "s"),
    ("self_s.pubsub.lossy_publish", "s"),
    ("self_s.pubsub.settle", "s"),
    ("self_s.pubsub.fault_step", "s"),
    ("self_s.engine.push", "s"),
    ("self_s.engine.project", "s"),
    ("self_s.engine.host_move", "s"),
    ("self_s.uncovered", "s"),
];

/// Closed-loop chunks: the tracing overhead compares even and odd ones.
pub const CHUNKS: usize = 16;

/// Set-ups per run of a stream workload; `setup_s` is their median.
/// `query-churn` sets up each of its worlds once instead.
pub const SETUPS: usize = 3;

/// Samples per latency block: the fewest that leave ten beyond the 99th
/// percentile. Each latency percentile is the median of the blocks'
/// percentiles, so a stall from outside the program (another tenant of
/// the host) moves one block, not the figure.
pub const BLOCK_SAMPLES: usize = 1000;

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    /// Metric values by name (end-to-end and per-layer).
    pub values: BTreeMap<&'static str, f64>,
    /// Run metadata and the workload's own metric names, one line each.
    pub meta: Vec<String>,
    /// Oracle checks made.
    pub attempted: u64,
    /// Oracle checks failed.
    pub failed: u64,
    /// A few failure descriptions.
    pub failures: Vec<String>,
    /// Digest of the generated inputs.
    pub input_digest: u64,
}

impl Report {
    /// Sets a metric declared in [`END_TO_END`] or [`PER_LAYER`].
    ///
    /// # Panics
    ///
    /// Panics on an undeclared name (a benchmark bug).
    pub fn set(&mut self, name: &str, value: f64) {
        let key = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .find(|n| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.values.insert(key, value);
    }

    /// Adds a metadata line.
    pub fn meta(&mut self, line: impl Into<String>) {
        self.meta.push(line.into());
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The metrics of one list in its order: `(name, value, unit)`, with
    /// 0 for a per-layer metric the workload never measured.
    ///
    /// # Errors
    ///
    /// Names an end-to-end metric the workload failed to set.
    pub fn list(&self, per_layer: bool) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        let list: &[(&'static str, &'static str)] =
            if per_layer { &PER_LAYER } else { &END_TO_END };
        list.iter()
            .map(|&(name, unit)| match (self.get(name), per_layer) {
                (Some(v), _) => Ok((name, v, unit)),
                (None, true) => Ok((name, 0.0, unit)),
                (None, false) => Err(format!("end-to-end metric {name} was not measured")),
            })
            .collect()
    }

    /// Adds the tracer's per-layer breakdown: self time of every layer
    /// over the traced part of the timed phase (`traced` long), and the
    /// time no span covers.
    pub fn self_times(&mut self, t: &Tracer, traced: Duration) {
        for l in Layer::ALL {
            self.set(&format!("self_s.{}", l.name()), t.total(l).self_ns as f64 * 1e-9);
        }
        let uncovered = traced.as_nanos() as f64 - t.root_ns() as f64;
        self.set("self_s.uncovered", uncovered.max(0.0) * 1e-9);
        let (kept, dropped) = t.kept();
        self.meta(format!("trace: {kept} spans kept for write-out, {dropped} past the cap"));
    }

    /// Sets `name` to the mean duration of `layer`'s spans, in units of
    /// `unit_ns` nanoseconds (0 if the layer never ran).
    pub fn mean(&mut self, name: &str, t: &Tracer, layer: Layer, unit_ns: f64) {
        let tot = t.total(layer);
        let v = if tot.count == 0 { 0.0 } else { tot.total_ns as f64 / tot.count as f64 / unit_ns };
        self.set(name, v);
    }

    /// Adds the closed loop's throughput from its chunks' `(units, wall)`:
    /// units over wall time, pooled, so a chunk that hit an expensive event
    /// (a broad subscription torn down, a crash replayed) weighs by its
    /// time. Also adds the tracing overhead: the even chunks, never traced,
    /// against the odd ones, which a traced run traces. `alias` is the
    /// workload's own name for the figure.
    pub fn rates(&mut self, alias: &str, chunks: &[(f64, Duration)], traced: bool) {
        let pooled = |parity: Option<usize>| {
            let picked =
                chunks.iter().enumerate().filter(|(i, _)| parity.is_none_or(|p| i % 2 == p));
            let (units, secs) =
                picked.fold((0.0, 0.0), |(u, s), (_, (n, d))| (u + n, s + d.as_secs_f64()));
            units / secs
        };
        let (all, untraced, other) = (pooled(None), pooled(Some(0)), pooled(Some(1)));
        self.set("ops_per_s", all);
        self.set("trace.untraced_ops_per_s", untraced);
        self.set("trace.traced_ops_per_s", other);
        self.set("trace.overhead_ratio", untraced / other);
        self.meta(format!(
            "{alias} = {all:.2} over {} chunks (even chunks {untraced:.2}, {} odd chunks {other:.2})",
            chunks.len(),
            if traced { "traced" } else { "untraced" },
        ));
    }

    /// Adds latency percentiles from samples in milliseconds, with their
    /// sample counts. From at least one block of [`BLOCK_SAMPLES`], each
    /// percentile is the median of the blocks' percentiles; a smaller
    /// sample gives its median only, since fewer than ten of its samples lie
    /// beyond the 99th percentile. `alias` names the figures in the
    /// workload's own terms and `scale` converts milliseconds into its unit.
    pub fn latency(&mut self, samples: &[f64], (alias, unit, scale): (&str, &str, f64)) {
        if samples.len() < BLOCK_SAMPLES {
            let n = samples.len();
            match whole_median(samples) {
                Some(p50) => {
                    self.set("latency_p50_ms", p50);
                    self.meta(format!(
                        "{alias}_p50_{unit} = {:.3} over {n} samples; {alias}_p99_{unit} not \
                         reported: {n} samples leave fewer than ten beyond it",
                        p50 * scale
                    ));
                }
                None => self.meta(format!("{alias} latency not reported: {n} samples")),
            }
            return;
        }
        match blocked(samples, samples.len() / BLOCK_SAMPLES, 0.99) {
            Ok(d) => {
                self.set("latency_p50_ms", d.p50);
                self.set("workload.latency_p99_ms", d.high);
                self.meta(format!(
                    "{alias}_p50_{unit} = {:.3}, {alias}_p99_{unit} = {:.3}: {} samples in {} \
                     blocks of {} (percentiles per block, median across blocks)",
                    d.p50 * scale,
                    d.high * scale,
                    samples.len(),
                    samples.len() / d.samples,
                    d.samples,
                ));
            }
            Err(why) => self.meta(format!("{alias} latency not reported: {why}")),
        }
    }

    /// Adds how long paced records waited past their due time, summarized
    /// as [`Report::latency`] summarizes latencies.
    pub fn waits(&mut self, waits: &[f64]) {
        if waits.len() < BLOCK_SAMPLES {
            if let Some(p50) = whole_median(waits) {
                self.set("workload.wait_p50_ms", p50);
            }
        } else if let Ok(w) = blocked(waits, waits.len() / BLOCK_SAMPLES, 0.99) {
            self.set("workload.wait_p50_ms", w.p50);
            self.set("workload.wait_p99_ms", w.high);
        }
    }
}

/// The nearest-rank median of a whole sample, if ten samples lie beyond it.
fn whole_median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

/// Peak resident set size (`VmHWM`) in MiB, or 0 where `/proc` lacks it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `setup` [`SETUPS`] times, keeping the last state and every
/// duration: set-up time is reported as the median of several set-ups.
pub fn repeat_setup<S>(mut setup: impl FnMut() -> S) -> (S, Vec<f64>) {
    let mut secs = Vec::with_capacity(SETUPS);
    let mut state = None;
    for _ in 0..SETUPS {
        drop(state.take());
        let t0 = Instant::now();
        let s = setup();
        secs.push(t0.elapsed().as_secs_f64());
        state = Some(s);
    }
    (state.expect("ran at least once"), secs)
}

/// Runs `units` units of closed-loop work in [`CHUNKS`] equal chunks,
/// handing `step` the recorder `t` in the odd chunks and an untraced one
/// in the even chunks. Returns every chunk's `(units, wall)` and the wall
/// time of the odd chunks.
pub fn closed_loop(
    t: &mut Tracer,
    units: usize,
    mut step: impl FnMut(&mut Tracer, usize),
) -> (Vec<(f64, Duration)>, Duration) {
    let len = units / CHUNKS;
    assert!(len > 0, "{units} units cannot fill {CHUNKS} chunks");
    let mut chunks = Vec::with_capacity(CHUNKS);
    let mut odd = Duration::ZERO;
    let mut off = Tracer::new(false);
    for c in 0..CHUNKS {
        let traced = c % 2 == 1;
        let tr = if traced { &mut *t } else { &mut off };
        let t0 = Instant::now();
        for i in c * len..(c + 1) * len {
            step(tr, i);
        }
        let wall = t0.elapsed();
        if traced {
            odd += wall;
        }
        chunks.push((len as f64, wall));
    }
    (chunks, odd)
}

/// Spins until `due`; returns how late the caller already was. The
/// generator spins rather than sleeps: a thread that sleeps through the gap
/// between two due times wakes on a cold core (on a shared host its vCPU
/// may have been descheduled), and with sleeping the median latency of one
/// seed's open loop varied by a third from run to run.
pub fn wait_until(due: Instant) -> Duration {
    let now = Instant::now();
    if now >= due {
        return now - due;
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
    Duration::ZERO
}
