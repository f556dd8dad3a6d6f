//! The micro-benchmark harness: one registry of named groups timing the
//! hot paths of every layer — interest-vector math, coarsening,
//! distribution, online routing and load diffusion in the optimizer;
//! broker publish, churn, faults and recovery in the pub/sub overlay;
//! engine push, join flatten/projection and predicate evaluation in the
//! tuple data plane; query containment.
//!
//! Each group is sampled [`SAMPLES`] times and written to
//! `BENCH_micro.json` at the workspace root as one record with the p10,
//! median and p90 ns per operation; `meta` names the host (core count
//! and CPU model) the numbers were taken on. CI regenerates the file and
//! guards it with `bench_check`, which gates on the median.
//!
//! ```text
//! cargo run --release -p cosmos-bench --bin bench_json [name-filter]
//! ```
//!
//! With a filter argument only the groups whose name contains it run,
//! and the snapshot file is left untouched — a partial run must never
//! masquerade as a full baseline.

use cosmos_bench::fixtures::{
    adapt_world, arrival_sub, batch_round, broad_message, broker_with_broad_subs,
    broker_with_distinct_subs, broker_with_distinct_subs_bulk, broker_with_subs,
    checkpointed_engine, churn_link, churn_node, lossy_broker, recovery_host, scaling_message,
    scaling_sub, shared_split_queries, toggle_dirty, ADAPT_SEED, SCALING_A,
};
use cosmos_core::adaptive::{adapt_wholesale, AdaptConfig};
use cosmos_core::coarsen::coarsen_wholesale;
use cosmos_core::distribute::Distributor;
use cosmos_core::graph::{edge_weight, QgVertex, QueryGraph};
use cosmos_core::hierarchy::CoordinatorTree;
use cosmos_core::online::OnlineRouter;
use cosmos_core::spec::QuerySpec;
use cosmos_core::IncrementalOptimizer;
use cosmos_engine::exec::{CompiledProjection, StreamEngine};
use cosmos_engine::tuple::{FlattenCache, JoinedTuple, Tuple};
use cosmos_engine::{ProjPlanCache, SharedEngine};
use cosmos_net::Deployment;
use cosmos_pubsub::subscription::SubId;
use cosmos_pubsub::SubstreamTable;
use cosmos_query::{merge_queries, parse_query, QueryId, Scalar};
use cosmos_util::rng::rng_for;
use cosmos_util::solver::diffusion_solution;
use cosmos_util::InterestSet;
use cosmos_workload::generator::QueryGenerator;
use cosmos_workload::{PaperParams, WorkloadConfig};
use rand::Rng;
use std::hint::black_box;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

const SAMPLES: usize = 21;
const TARGET_SAMPLE_NS: u128 = 8_000_000;

/// The p10, median and p90 of a group's per-operation samples, in ns.
#[derive(Clone, Copy)]
struct Quantiles {
    p10: f64,
    median: f64,
    p90: f64,
}

impl Quantiles {
    /// The same quantiles per each of `ops` operations one call performs.
    fn per(self, ops: usize) -> Self {
        let n = ops as f64;
        Self { p10: self.p10 / n, median: self.median / n, p90: self.p90 / n }
    }
}

/// Samples ns per call of `routine` over `state`, each sample batched so
/// timer noise amortizes. `reset` runs untimed before every sample, for
/// routines that accumulate state (e.g. a broker's delivery log): memory
/// stays bounded without charging cleanup to the measurement. Routines
/// that accumulate nothing pass [`no_reset`].
fn measure<T, O>(
    state: &mut T,
    mut routine: impl FnMut(&mut T) -> O,
    mut reset: impl FnMut(&mut T),
) -> Quantiles {
    let t0 = Instant::now();
    black_box(routine(state));
    let once = t0.elapsed().as_nanos().max(1);
    let batch = (TARGET_SAMPLE_NS / once).clamp(1, 2_000_000) as usize;
    let mut samples = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        reset(state);
        let start = Instant::now();
        for _ in 0..batch {
            black_box(routine(state));
        }
        samples.push(start.elapsed().as_nanos() as f64 / batch as f64);
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    let at = |q: usize| samples[(SAMPLES - 1) * q / 10];
    Quantiles { p10: at(1), median: at(5), p90: at(9) }
}

fn no_reset<T>(_: &mut T) {}

/// Two 150-element interest sets over a `universe`-substream universe and
/// per-substream rates: the §3.2 interest-vector math behind every
/// query-graph edge weight.
fn interest_fixture(universe: usize) -> (InterestSet, InterestSet, Vec<f64>) {
    let mut rng = rng_for(1, "bench-bitset");
    let a = InterestSet::from_indices(universe, (0..150).map(|_| rng.gen_range(0..universe)));
    let b = InterestSet::from_indices(universe, (0..150).map(|_| rng.gen_range(0..universe)));
    let rates: Vec<f64> = (0..universe).map(|i| 1.0 + (i % 10) as f64).collect();
    (a, b, rates)
}

fn bench_interest_weighted_overlap(universe: usize) -> Quantiles {
    measure(&mut interest_fixture(universe), |(a, b, rates)| a.weighted_overlap(b, rates), no_reset)
}

fn bench_interest_overlaps(universe: usize) -> Quantiles {
    measure(&mut interest_fixture(universe), |(a, b, _)| a.overlaps(b), no_reset)
}

/// A 5%-scale paper deployment with 500 generated queries: the input of
/// the coarsening, distribution and online-routing groups.
fn workload_fixture() -> (Deployment, SubstreamTable, Vec<QuerySpec>) {
    let params = PaperParams::scaled(0.05);
    let topo = params.topology.generate(7);
    let dep = Deployment::assign(topo, params.n_sources, params.n_processors, 7);
    let table = SubstreamTable::random(
        params.n_substreams,
        params.n_sources,
        params.rate_min,
        params.rate_max,
        7,
    );
    let mut generator = QueryGenerator::new(WorkloadConfig::from_params(&params), 7);
    let specs = generator.generate(500, &dep, &table, 8);
    (dep, table, specs)
}

/// Algorithm 1 on a 500-query graph (edges to the next 39 queries each)
/// down to 64 vertices.
fn bench_coarsen() -> Quantiles {
    let (_, table, specs) = workload_fixture();
    let rates = table.rates();
    let vertices: Vec<QgVertex> = specs
        .iter()
        .map(|s| QgVertex::for_query(s.id, s.interest.clone(), s.load, s.proxy, s.result_rate, 1.0))
        .collect();
    let mut graph = QueryGraph::new(vertices);
    for i in 0..graph.len() {
        for j in (i + 1)..graph.len().min(i + 40) {
            let w = edge_weight(&graph.vertices[i], &graph.vertices[j], rates);
            if w > 0.0 {
                graph.set_edge(i, j, w);
            }
        }
    }
    measure(&mut graph, |graph| coarsen_wholesale(graph, 64, rates, &|_| None, 3), no_reset)
}

/// One full placement of the 500-query workload, through the coordinator
/// hierarchy or (`centralized`) at a single coordinator.
fn bench_distribute(centralized: bool) -> Quantiles {
    let (dep, table, specs) = workload_fixture();
    let tree = CoordinatorTree::build(&dep, 4);
    let mut d = Distributor::new(&dep, &tree, &table);
    measure(
        &mut d,
        |d| {
            if centralized {
                d.distribute_centralized(&specs, 5)
            } else {
                d.distribute(&specs, 5)
            }
        },
        no_reset,
    )
}

/// One §3.6 online routing decision at the root coordinator, seeded with
/// the distributed placement of the 500-query workload.
fn bench_online_route_at_root() -> Quantiles {
    let (dep, table, specs) = workload_fixture();
    let tree = CoordinatorTree::build(&dep, 4);
    let assignment = Distributor::new(&dep, &tree, &table).distribute(&specs, 5).assignment;
    let mut router = OnlineRouter::new(&dep, &tree, &table, 0.1);
    router.seed_from(&specs, &assignment);
    measure(&mut router, |router| router.route_at(tree.root(), &specs[0]), no_reset)
}

/// The §3.7 load-diffusion solve over 64 fully connected children.
fn bench_diffusion() -> Quantiles {
    let loads: Vec<f64> = (0..64).map(|i| (i % 7) as f64 * 3.0).collect();
    let edges: Vec<(usize, usize)> =
        (0..64).flat_map(|i| ((i + 1)..64).map(move |j| (i, j))).collect();
    measure(&mut (loads, edges), |(loads, edges)| diffusion_solution(loads, edges), no_reset)
}

/// Merging the paper's Q3 and Q4 into one covering query.
fn bench_containment_merge() -> Quantiles {
    let q3 = parse_query(
        "SELECT S2.* FROM Station1 [Range 30 Minutes] S1, Station2 [Now] S2 \
         WHERE S1.snowHeight > S2.snowHeight AND S1.snowHeight >= 10",
    )
    .unwrap();
    let q4 = parse_query(
        "SELECT S1.snowHeight, S1.timestamp, S2.snowHeight, S2.timestamp \
         FROM Station1 [Range 1 Hour] S1, Station2 [Now] S2 \
         WHERE S1.snowHeight > S2.snowHeight",
    )
    .unwrap();
    measure(
        &mut (q3, q4),
        |(q3, q4)| merge_queries(&[(QueryId(3), &*q3), (QueryId(4), &*q4)]),
        no_reset,
    )
}

fn bench_engine_push() -> Quantiles {
    let mut engine = StreamEngine::new();
    for i in 0..20u64 {
        engine.add_query(
            QueryId(i),
            parse_query(&format!(
                "SELECT * FROM R [Range 10 Seconds], S [Now] WHERE R.k = S.k AND R.v > {}",
                i * 5
            ))
            .unwrap(),
        );
    }
    let mut ts = 0i64;
    measure(
        &mut engine,
        |engine| {
            ts += 100;
            let r =
                Tuple::new("R", ts).with("k", Scalar::Int(ts % 5)).with("v", Scalar::Int(ts % 100));
            let s =
                Tuple::new("S", ts + 50).with("k", Scalar::Int(ts % 5)).with("v", Scalar::Int(1));
            engine.push(r);
            engine.push(s).len()
        },
        no_reset,
    )
}

/// Serial publish of [`scaling_message`]`(a)` against the scaling
/// population: `a` sets the selectivity (`a / 40` of the population
/// matches), [`SCALING_A`] is the 62.5% point.
fn bench_broker_publish(n_subs: u64, a: i64) -> Quantiles {
    let mut net = broker_with_subs(n_subs);
    measure(&mut net, |net| net.publish(scaling_message(a)), |net| net.reset_stats())
}

/// The linear-scan reference on the same workload: the baseline the
/// indexed path's scaling is measured against.
fn bench_broker_publish_linear(n_subs: u64) -> Quantiles {
    let mut net = broker_with_subs(n_subs);
    measure(&mut net, |net| net.publish_linear(scaling_message(SCALING_A)), |net| net.reset_stats())
}

/// Subscription churn against a standing population: one departure plus
/// one (identical) re-arrival per op, victims cycling through the
/// most-recent fifth of the population. The incremental path tears down
/// only the victim's ledgered footprint and re-propagates only its
/// covering dependents; the `-wholesale` twin re-installs the world.
fn bench_broker_unsubscribe(n_subs: u64, wholesale: bool) -> Quantiles {
    let mut net = broker_with_subs(n_subs);
    let window = (n_subs / 5).max(1);
    let mut step = 0u64;
    measure(
        &mut net,
        |net| {
            let id = n_subs - window + (step % window);
            step += 1;
            if wholesale {
                net.unsubscribe_wholesale(SubId(id));
            } else {
                net.unsubscribe(SubId(id));
            }
            net.subscribe(scaling_sub(id));
        },
        no_reset,
    )
}

/// [`bench_broker_unsubscribe`]'s churn step followed by one publish of
/// the scaling message: serial, or through the snapshot plane
/// (`shared`). A snapshot shares each node's partitions with the writer,
/// so the first write to a node after a snapshot copies that node's
/// partitions once; the shared twin prices that copy plus the snapshot
/// refresh on top of the churn, the serial twin takes no snapshot.
fn bench_broker_publish_after_churn(n_subs: u64, shared: bool) -> Quantiles {
    let mut net = broker_with_subs(n_subs);
    let window = (n_subs / 5).max(1);
    let mut step = 0u64;
    measure(
        &mut net,
        |net| {
            let id = n_subs - window + (step % window);
            step += 1;
            net.unsubscribe(SubId(id));
            net.subscribe(scaling_sub(id));
            if shared {
                net.publish_shared(scaling_message(SCALING_A)).delivered()
            } else {
                net.publish(scaling_message(SCALING_A))
            }
        },
        |net| net.reset_stats(),
    )
}

/// Subscription *arrival* against a covering-sparse standing population:
/// one fresh distinct subscription installed and incrementally removed
/// per op. Install cost is the covering resolution at every path hop —
/// the covering buckets answer it from binary-searched threshold
/// skeletons; the `-linear` twin runs the reference scans over the
/// node's entries and the forwarded-up population, which grow with the
/// population. The departure half is identical in both twins, so the
/// gap isolates the install.
fn bench_broker_subscribe(n_subs: u64, linear: bool) -> Quantiles {
    let mut net = broker_with_distinct_subs(n_subs);
    net.set_linear_install(linear);
    measure(
        &mut net,
        |net| {
            net.subscribe(arrival_sub(n_subs));
            net.unsubscribe(SubId(n_subs));
        },
        no_reset,
    )
}

/// [`bench_broker_subscribe`] at a 100 000-subscription standing
/// population (bulk-loaded — building it one arrival at a time would
/// dominate the fixture): the tiered threshold lists bound every install
/// probe by run size plus a directory descent, so the per-arrival cost
/// stays near the 5000-pop point instead of scaling with the population.
fn bench_broker_subscribe_100k() -> Quantiles {
    let pop = 100_000u64;
    let mut net = broker_with_distinct_subs_bulk(pop);
    measure(
        &mut net,
        |net| {
            net.subscribe(arrival_sub(pop));
            net.unsubscribe(SubId(pop));
        },
        no_reset,
    )
}

/// A 64-message same-stream batch against the 5000-subscription distinct
/// population, one `publish_batch` call per op: one routing descent, one
/// counter epoch, and one match-scratch reuse for the whole batch. The
/// `-serial` twin publishes the identical 64 messages one at a time; the
/// gap is the amortization win. Reported time is per *batch*, so the
/// twins compare directly.
fn bench_broker_publish_batch(n_subs: u64, serial: bool) -> Quantiles {
    let mut net = broker_with_distinct_subs(n_subs);
    let msgs = batch_round(64, n_subs);
    measure(
        &mut net,
        |net| {
            if serial {
                msgs.iter().map(|m| net.publish(m.clone())).sum::<usize>()
            } else {
                net.publish_batch(&msgs)
            }
        },
        |net| net.reset_stats(),
    )
}

/// Link churn against a standing population: one failure plus one
/// recovery of a dissemination-tree stub link per op. The incremental
/// path recomputes one source tree and re-routes only the subtree's
/// subscribers; the `-wholesale` twin recomputes everything and
/// re-installs the world — twice per op.
fn bench_broker_fail_link(n_subs: u64, wholesale: bool) -> Quantiles {
    let mut net = broker_with_subs(n_subs);
    let (a, b, lat) = churn_link(&net);
    measure(
        &mut net,
        |net| {
            if wholesale {
                assert!(net.fail_link_wholesale(a, b));
                assert!(net.restore_link_wholesale(a, b, lat));
            } else {
                assert!(net.fail_link(a, b));
                assert!(net.restore_link(a, b, lat));
            }
        },
        no_reset,
    )
}

/// Whole-node churn against a standing population: one broker crash plus
/// one recovery per op (a non-subscriber transit node, so the population
/// stays in steady state). The incremental path tears down only the
/// ledgered footprint routed through the crashed broker and re-homes the
/// moved subtrees; the `-wholesale` twin recomputes every source tree and
/// re-installs the world — twice per op.
fn bench_broker_fail_node(n_subs: u64, wholesale: bool) -> Quantiles {
    let mut net = broker_with_subs(n_subs);
    let n = churn_node(&net);
    measure(
        &mut net,
        |net| {
            if wholesale {
                let edges = net.fail_node_wholesale(n).expect("churn node is attached");
                assert!(net.restore_node_wholesale(n, &edges));
            } else {
                let edges = net.fail_node(n).expect("churn node is attached");
                assert!(net.restore_node(n, &edges));
            }
        },
        no_reset,
    )
}

/// One publish driven through the reliable-delivery plane to quiescence.
/// At `drop = 0.05` every twentieth frame is retransmitted after an RTO;
/// the `-clean` twin runs the identical window/ack machinery with no
/// faults, so the gap prices retransmit overhead alone.
fn bench_broker_publish_lossy(n_subs: u64, drop: f64) -> Quantiles {
    let mut lossy = lossy_broker(n_subs, drop);
    measure(
        &mut lossy,
        |net| {
            assert!(net.publish_lossy(scaling_message(SCALING_A)));
            net.run_to_quiescence();
        },
        |net| net.reset_stats(),
    )
}

/// Parallel publish over a frozen routing snapshot: `threads` readers,
/// spawned once per measurement, each publish a strided share of a fixed
/// round, and the round's wall-clock divided by its message count is the
/// per-message cost. A barrier releases the readers into each round and
/// collects them after it, so no thread is spawned on the clock. The
/// `par-1` point prices the snapshot path itself against the serial
/// `publish-5000-subs` twin (same workload); higher thread counts show
/// the lock-free read-side scaling — meaningful only when the host has
/// that many cores, which is why the snapshot records `meta.cores`.
fn bench_broker_publish_par(n_subs: u64, threads: usize) -> Quantiles {
    const ROUND: usize = 64;
    // What the readers do when the barrier releases them. Draining is the
    // untimed reset: each reader drops its accumulated output itself,
    // mirroring how the serial publish benches keep log cleanup off the
    // clock.
    const PUBLISH: u8 = 0;
    const DRAIN: u8 = 1;
    const STOP: u8 = 2;
    let net = broker_with_subs(n_subs);
    let snap = net.snapshot();
    let command = AtomicU8::new(PUBLISH);
    let barrier = Barrier::new(threads + 1);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let mut reader = snap.reader();
            let (command, barrier) = (&command, &barrier);
            scope.spawn(move || loop {
                barrier.wait();
                // The barrier orders the command store before this load.
                match command.load(Ordering::Relaxed) {
                    PUBLISH => {
                        for k in (t..ROUND).step_by(threads) {
                            black_box(reader.publish_at(k as u64, scaling_message(SCALING_A)));
                        }
                    }
                    DRAIN => drop(reader.take_output()),
                    _ => return,
                }
                barrier.wait();
            });
        }
        // Releases the readers with `cmd` and returns once all are done.
        let run = |cmd: u8| {
            command.store(cmd, Ordering::Relaxed);
            barrier.wait();
            barrier.wait();
        };
        let per_round = measure(&mut (), |_| run(PUBLISH), |_| run(DRAIN));
        command.store(STOP, Ordering::Relaxed);
        barrier.wait();
        per_round.per(ROUND)
    })
}

fn bench_broker_publish_broad(n_subs: u64) -> Quantiles {
    let mut net = broker_with_broad_subs(n_subs);
    measure(&mut net, |net| net.publish(broad_message()), |net| net.reset_stats())
}

fn bench_broker_publish_broad_linear(n_subs: u64) -> Quantiles {
    let mut net = broker_with_broad_subs(n_subs);
    measure(&mut net, |net| net.publish_linear(broad_message()), |net| net.reset_stats())
}

/// Shared execution with heavily duplicated residuals: 50 members merge
/// into one covering query with only two distinct residual conjunctions,
/// so residual-group splitting evaluates 2 filter sets per shared result
/// instead of 50.
fn bench_shared_split(members: u64) -> Quantiles {
    let mut shared = SharedEngine::build(shared_split_queries(members));
    assert_eq!(shared.group_count(), 1, "bench members must merge into one group");
    assert!(shared.residual_set_count() <= 3, "residuals must deduplicate");
    let mut ts = 0i64;
    measure(
        &mut shared,
        |shared| {
            ts += 100;
            let r =
                Tuple::new("R", ts).with("k", Scalar::Int(ts % 10)).with("v", Scalar::Int(ts % 40));
            let s =
                Tuple::new("S", ts + 50).with("k", Scalar::Int(ts % 10)).with("v", Scalar::Int(1));
            shared.push(r);
            shared.push(s).len()
        },
        no_reset,
    )
}

/// One checkpoint extract + restore of an engine with `n_tuples`
/// buffered across a long-window join: the per-cycle cost an operator
/// pays for crash durability, dominated by cloning the window
/// population into (and back out of) the snapshot.
fn bench_engine_checkpoint(n_tuples: u64) -> Quantiles {
    let engine = checkpointed_engine(n_tuples);
    measure(
        &mut checkpointed_engine(0),
        |target| {
            let cp = engine.checkpoint();
            target.restore(&cp);
            cp.watermark
        },
        no_reset,
    )
}

/// One full crash/restore cycle of an engine host against a standing
/// 5000-subscription population: fail the broker node (incremental
/// teardown + subtree re-homing), restore it, re-install the engine's
/// subscription, restore the checkpoint, and replay the retained
/// 32-record suffix in verify mode. The broker-churn half is priced
/// alone by `broker/fail-node-5000-pop`; the gap is the recovery layer.
fn bench_broker_recover_engine(n_subs: u64) -> Quantiles {
    let (mut r, host) = recovery_host(n_subs, 512, 32);
    measure(
        &mut r,
        |r| {
            r.crash_host(host);
            r.restore_host(host);
            r.output_log(host).len()
        },
        no_reset,
    )
}

/// One adaptation round over a 10 000-query world whose statistics churn
/// touches 1% of the queries, all homed on one processor — one dirty
/// level-1 leaf per round. The incremental optimizer re-coarsens that
/// leaf (lazy-deletion heap patching), re-scores the root-to-leaf path,
/// and fingerprint-reuses every other subtree's coarsening and placement;
/// the `-wholesale` twin recomputes the whole pipeline with the same
/// seed, producing the identical assignment. The gap is the delta-driven
/// optimizer's claim.
fn bench_adapt_round(n_queries: u64, wholesale: bool) -> Quantiles {
    let cosmos_bench::fixtures::AdaptWorld { dep, tree, table, mut specs, current, dirty } =
        adapt_world(n_queries);
    let config = AdaptConfig::default();
    let seed = ADAPT_SEED;
    let mut opt = IncrementalOptimizer::new(seed, config).expect("default config is valid");
    let d = Distributor::new(&dep, &tree, &table);
    if !wholesale {
        // Warm the caches: the benchmark prices the steady churn state,
        // not the cold first round.
        let _ = opt.round(&d, &specs, &current);
    }
    let mut step = 0u64;
    measure(
        &mut opt,
        |opt| {
            toggle_dirty(&mut specs, &dirty, step);
            step += 1;
            let out = if wholesale {
                adapt_wholesale(&d, &specs, &current, &config, seed)
            } else {
                opt.round(&d, &specs, &current)
            };
            out.migrations
        },
        no_reset,
    )
}

/// The incremental round with *no* churn at all: every coordinator's
/// inputs fingerprint-match, so this prices the memoization layer's fixed
/// overhead (fingerprint recomputation, cache lookups, assignment splice)
/// — the floor under `core/adapt-round-10k`.
fn bench_adapt_round_quiet() -> Quantiles {
    let cosmos_bench::fixtures::AdaptWorld { dep, tree, table, specs, current, .. } =
        adapt_world(10_000);
    let config = AdaptConfig::default();
    let mut opt = IncrementalOptimizer::new(ADAPT_SEED, config).expect("default config is valid");
    let d = Distributor::new(&dep, &tree, &table);
    let _ = opt.round(&d, &specs, &current);
    measure(&mut opt, |opt| opt.round(&d, &specs, &current).migrations, no_reset)
}

fn bench_flatten_project() -> Quantiles {
    let projection = parse_query(
        "SELECT A.v, B.v FROM R [Now] A, R [Now] B, R [Now] C \
         WHERE A.k = B.k AND B.k = C.k",
    )
    .unwrap()
    .projection;
    let part = |name: &str, ts: i64| {
        (
            name.into(),
            Arc::new(
                Tuple::new("R", ts)
                    .with("k", Scalar::Int(1))
                    .with("v", Scalar::Int(ts))
                    .with("w", Scalar::Int(2 * ts)),
            ),
        )
    };
    let joined = JoinedTuple::new(vec![part("A", 1), part("B", 2), part("C", 3)]);
    let result = cosmos_engine::exec::ResultTuple { query: QueryId(1), joined };
    // The steady-state emit path: projection compiled once, flatten and
    // projection plans hung off owner-attached caches (allocation-free
    // apart from the output payloads).
    let compiled = CompiledProjection::compile(&projection);
    measure(
        &mut (FlattenCache::new(), ProjPlanCache::new()),
        |(flatten_cache, plan_cache)| {
            let flat = result.joined.flatten_cached(flatten_cache, "res");
            let projected = result.project_cached(&compiled, plan_cache, "res");
            (flat.timestamp, projected.timestamp)
        },
        no_reset,
    )
}

fn bench_predicate_eval() -> Quantiles {
    // Selection-heavy single-relation workload: predicate evaluation and
    // pushed-down filtering dominate.
    let mut engine = StreamEngine::new();
    for i in 0..50u64 {
        engine.add_query(
            QueryId(i),
            parse_query(&format!("SELECT * FROM R [Now] WHERE R.v > {} AND R.k = 1", i * 2))
                .unwrap(),
        );
    }
    let mut ts = 0i64;
    measure(
        &mut engine,
        |engine| {
            ts += 10;
            engine
                .push(
                    Tuple::new("R", ts).with("k", Scalar::Int(1)).with("v", Scalar::Int(ts % 100)),
                )
                .len()
        },
        no_reset,
    )
}

/// The host's CPU model: the first `model name` in `/proc/cpuinfo`, or
/// `"unknown"` where that cannot be read.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    type BenchFn = fn() -> Quantiles;
    let groups: Vec<(&str, BenchFn)> = vec![
        ("engine/push-20-queries", bench_engine_push),
        ("engine/flatten-project", bench_flatten_project),
        ("engine/predicate-eval-50-queries", bench_predicate_eval),
        ("broker/publish-50-subs", || bench_broker_publish(50, SCALING_A)),
        ("broker/publish-500-subs", || bench_broker_publish(500, SCALING_A)),
        ("broker/publish-5000-subs", || bench_broker_publish(5000, SCALING_A)),
        ("broker/publish-5000-subs-match-0pct", || bench_broker_publish(5000, 0)),
        ("broker/publish-5000-subs-match-2.5pct", || bench_broker_publish(5000, 1)),
        ("broker/publish-5000-subs-match-25pct", || bench_broker_publish(5000, 10)),
        ("broker/publish-5000-subs-match-100pct", || bench_broker_publish(5000, 40)),
        ("broker/publish-500-subs-linear", || bench_broker_publish_linear(500)),
        ("broker/publish-5000-subs-linear", || bench_broker_publish_linear(5000)),
        ("broker/publish-par-1-threads", || bench_broker_publish_par(5000, 1)),
        ("broker/publish-par-2-threads", || bench_broker_publish_par(5000, 2)),
        ("broker/publish-par-4-threads", || bench_broker_publish_par(5000, 4)),
        ("broker/publish-par-8-threads", || bench_broker_publish_par(5000, 8)),
        ("broker/publish-500-subs-broad", || bench_broker_publish_broad(500)),
        ("broker/publish-500-subs-broad-linear", || bench_broker_publish_broad_linear(500)),
        ("broker/subscribe-5000-pop", || bench_broker_subscribe(5000, false)),
        ("broker/subscribe-5000-pop-linear", || bench_broker_subscribe(5000, true)),
        ("broker/subscribe-100k-pop", bench_broker_subscribe_100k),
        ("broker/publish-batch-64", || bench_broker_publish_batch(5000, false)),
        ("broker/publish-batch-64-serial", || bench_broker_publish_batch(5000, true)),
        ("broker/unsubscribe-5000-pop", || bench_broker_unsubscribe(5000, false)),
        ("broker/unsubscribe-5000-pop-wholesale", || bench_broker_unsubscribe(5000, true)),
        ("broker/publish-after-churn-5000-pop", || bench_broker_publish_after_churn(5000, false)),
        ("broker/publish-shared-after-churn-5000-pop", || {
            bench_broker_publish_after_churn(5000, true)
        }),
        ("broker/fail-link-5000-pop", || bench_broker_fail_link(5000, false)),
        ("broker/fail-link-5000-pop-wholesale", || bench_broker_fail_link(5000, true)),
        ("broker/fail-node-5000-pop", || bench_broker_fail_node(5000, false)),
        ("broker/fail-node-5000-pop-wholesale", || bench_broker_fail_node(5000, true)),
        ("broker/publish-lossy-5pct", || bench_broker_publish_lossy(5000, 0.05)),
        ("broker/publish-lossy-clean", || bench_broker_publish_lossy(5000, 0.0)),
        ("core/adapt-round-10k", || bench_adapt_round(10_000, false)),
        ("core/adapt-round-10k-quiet", bench_adapt_round_quiet),
        ("core/adapt-round-10k-wholesale", || bench_adapt_round(10_000, true)),
        ("core/coarsen-500-to-64", bench_coarsen),
        ("core/distribute-500q", || bench_distribute(false)),
        ("core/distribute-centralized-500q", || bench_distribute(true)),
        ("core/online-route-at-root", bench_online_route_at_root),
        ("engine/shared-split-50-members", || bench_shared_split(50)),
        ("engine/checkpoint-5000-window", || bench_engine_checkpoint(5000)),
        ("broker/recover-engine-5000-pop", || bench_broker_recover_engine(5000)),
        ("util/interest-weighted-overlap-2000", || bench_interest_weighted_overlap(2_000)),
        ("util/interest-weighted-overlap-20000", || bench_interest_weighted_overlap(20_000)),
        ("util/interest-overlaps-2000", || bench_interest_overlaps(2_000)),
        ("util/interest-overlaps-20000", || bench_interest_overlaps(20_000)),
        ("util/diffusion-64-children", bench_diffusion),
        ("query/containment-merge-pair", bench_containment_merge),
    ];
    let filter = std::env::args().nth(1);
    let mut rows = Vec::new();
    for (name, f) in groups {
        if filter.as_deref().is_some_and(|pat| !name.contains(pat)) {
            continue;
        }
        let Quantiles { p10, median, p90 } = f();
        println!("{name:<44} median {median:>12.1} ns/op  (p10 {p10:.1}, p90 {p90:.1})");
        rows.push(serde_json::json!({
            "name": name,
            "p10_ns": p10,
            "median_ns": median,
            "p90_ns": p90
        }));
    }
    if filter.is_some() {
        println!("(filtered run; not writing the snapshot)");
        return;
    }
    // The host travels with the numbers: thread-count variants are only
    // comparable between snapshots taken on hosts with the same
    // parallelism (`bench_check` skips them otherwise), and the CPU model
    // tells a flagged row from a change of machine.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let out = serde_json::json!({
        "meta": {"cores": cores, "cpu": cpu_model()},
        "benchmarks": rows
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_micro.json");
    match serde_json::to_string_pretty(&out) {
        Ok(body) => {
            std::fs::write(path, body + "\n").expect("write BENCH_micro.json");
            println!("(wrote {path})");
        }
        Err(e) => eprintln!("could not serialize results: {e}"),
    }
}
