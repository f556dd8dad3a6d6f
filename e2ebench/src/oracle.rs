//! Correctness oracles behind `failed_frac`. They run after the timed
//! phase, outside every metric, and state the specification directly: a
//! query's results are what a standalone engine running that query alone
//! produces from every record of its input streams — no broker, no
//! pushdown, no sharing.

use crate::stats::Digest;
use crate::world::{result_stream, Segment};
use cosmos_engine::exec::{CompiledProjection, ResultTuple};
use cosmos_engine::tuple::Tuple;
use cosmos_engine::StreamEngine;
use cosmos_net::NodeId;
use cosmos_query::{Query, QueryId};
use cosmos_util::Symbol;
use std::collections::HashMap;

/// Record indices per stream, so a query's inputs are found without
/// scanning the whole run.
pub struct StreamIndex {
    by_stream: HashMap<Symbol, Vec<usize>>,
}

impl StreamIndex {
    /// Indexes `records` by stream.
    pub fn new(records: &[Tuple]) -> Self {
        let mut by_stream: HashMap<Symbol, Vec<usize>> = HashMap::new();
        for (i, r) in records.iter().enumerate() {
            by_stream.entry(r.stream).or_default().push(i);
        }
        Self { by_stream }
    }

    /// Indices in `[from, to)` of records on any of `streams`, ascending.
    pub fn inputs(&self, streams: &[Symbol], from: usize, to: usize) -> Vec<usize> {
        let mut out: Vec<usize> = streams
            .iter()
            .filter_map(|s| self.by_stream.get(s))
            .flat_map(|ix| {
                let lo = ix.partition_point(|&i| i < from);
                let hi = ix.partition_point(|&i| i < to);
                ix[lo..hi].iter().copied()
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// The digest of the results query `id` delivers when run alone over
/// `records[from..to]`, projected onto its result stream exactly as the
/// data plane projects them.
pub fn expected_results(
    id: QueryId,
    query: &Query,
    records: &[Tuple],
    index: &StreamIndex,
    from: usize,
    to: usize,
) -> Digest {
    let mut engine = StreamEngine::new();
    engine.add_query(id, query.clone());
    let proj = CompiledProjection::compile(&query.projection);
    let result = result_stream(id);
    let streams: Vec<Symbol> = query.relations.iter().map(|r| Symbol::intern(&r.stream)).collect();
    let mut d = Digest::default();
    for i in index.inputs(&streams, from, to) {
        for out in engine.push(records[i].clone()) {
            d.add(&out.project_compiled(&proj, result));
        }
    }
    d
}

/// Checks every hosting segment against a standalone run of its query
/// (`cql` is indexed by query id). Returns `(checked, failed)` and a few
/// failure messages.
pub fn check_segments(
    segments: &[Segment],
    cql: &[(QueryId, Query, NodeId)],
    records: &[Tuple],
    index: &StreamIndex,
) -> (u64, u64, Vec<String>) {
    let mut failed = 0;
    let mut why = Vec::new();
    for s in segments {
        let query = &cql[s.id.0 as usize].1;
        let want = expected_results(s.id, query, records, index, s.from, s.to);
        if want != s.got {
            failed += 1;
            if why.len() < 5 {
                why.push(format!(
                    "query {} over records [{}, {}): proxy got {} results, alone it makes {}",
                    s.id.0, s.from, s.to, s.got.count, want.count
                ));
            }
        }
    }
    (segments.len() as u64, failed, why)
}

/// What a never-crashed, fault-free engine hosting `queries` (in
/// registration order) outputs when fed every record of their input
/// streams in publish order.
pub fn fault_free_log(queries: &[(QueryId, Query)], records: &[Tuple]) -> Vec<ResultTuple> {
    let mut engine = StreamEngine::new();
    let mut streams: Vec<Symbol> = Vec::new();
    for (id, q) in queries {
        engine.add_query(*id, q.clone());
        streams.extend(q.relations.iter().map(|r| Symbol::intern(&r.stream)));
    }
    let mut out = Vec::new();
    for r in records.iter().filter(|r| streams.contains(&r.stream)) {
        out.extend(engine.push(r.clone()));
    }
    out
}
