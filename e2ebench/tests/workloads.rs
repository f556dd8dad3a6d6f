//! The benchmark's own tests, at a tiny scale: every workload is correct,
//! a seed fixes the inputs and every deterministic figure, and the
//! benchmark's manifest declares exactly the metrics the program prints.

use cosmos_e2ebench::report::{Report, END_TO_END, PER_LAYER};
use cosmos_e2ebench::world::Scale;
use cosmos_e2ebench::{churn, faulty, sensor, RunConfig};

const WORKLOADS: [&str; 3] = ["sensor-stream", "query-churn", "faulty-stream"];

/// Figures that depend only on the seed, never on timing.
const DETERMINISTIC: [&str; 15] = [
    "link_cost_per_record",
    "load_stddev",
    "core.migrations_per_round",
    "core.memo_hit_ratio",
    "pubsub.deliveries_per_record",
    "pubsub.link_msgs_per_record",
    "pubsub.results_per_record",
    "pubsub.retransmits_per_record",
    "pubsub.physical_per_goodput",
    "pubsub.goodput_msgs_per_record",
    "pubsub.retained_peak",
    "pubsub.sim_ticks_per_settle",
    "engine.probes_per_push",
    "engine.pushes_per_record",
    "engine.ingest_ratio",
];

fn run(workload: &str, seed: u64) -> Report {
    let cfg = RunConfig {
        workload: workload.to_string(),
        seed,
        seconds: 1,
        trace: true,
        scale: Scale::tiny(),
        span_dir: None,
    };
    match workload {
        "sensor-stream" => sensor::run(&cfg),
        "query-churn" => churn::run(&cfg),
        "faulty-stream" => faulty::run(&cfg),
        other => panic!("unknown workload {other}"),
    }
}

#[test]
fn every_workload_passes_its_oracle() {
    for w in WORKLOADS {
        let r = run(w, 3);
        assert!(r.attempted > 0, "{w}: the oracle checked nothing");
        assert_eq!(r.failed, 0, "{w}: {:?}", r.failures);
        assert!(r.failures.is_empty(), "{w}: {:?}", r.failures);
    }
}

#[test]
fn a_seed_fixes_inputs_and_deterministic_figures() {
    for w in WORKLOADS {
        let (a, b) = (run(w, 5), run(w, 5));
        assert_eq!(a.input_digest, b.input_digest, "{w}: inputs differ for one seed");
        assert_eq!(a.attempted, b.attempted, "{w}");
        for m in DETERMINISTIC {
            assert_eq!(a.get(m), b.get(m), "{w}: {m} differs for one seed");
        }
        assert_ne!(a.input_digest, run(w, 6).input_digest, "{w}: the seed must matter");
    }
}

/// The `name` values of one top-level list in `BENCHMARK.json`, in order.
fn declared(json: &str, list: &str) -> Vec<(String, Option<String>)> {
    let start = json.find(&format!("\"{list}\"")).expect("list present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.split('{')
        .skip(1)
        .map(|entry| {
            let field = |key: &str| {
                entry
                    .split(&format!("\"{key}\": \""))
                    .nth(1)
                    .map(|rest| rest[..rest.find('"').expect("string closes")].to_string())
            };
            (field("name").expect("every entry is named"), field("unit"))
        })
        .collect()
}

#[test]
fn manifest_declares_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let as_pairs = |list: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
        list.iter().map(|(n, u)| (n.to_string(), Some(u.to_string()))).collect()
    };
    assert_eq!(declared(&json, "end_to_end"), as_pairs(&END_TO_END));
    assert_eq!(declared(&json, "per_layer"), as_pairs(&PER_LAYER));
    let workloads: Vec<String> = declared(&json, "workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS);
}
