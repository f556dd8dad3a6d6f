//! Immutable routing snapshots: the read side of the broker's
//! read-copy-update split, enabling parallel publish.
//!
//! # Lifecycle
//!
//! [`crate::broker::BrokerNetwork`] owns the routing state and remains
//! the single writer: subscribe/unsubscribe/link churn mutate the
//! per-node [`crate::index::RoutingTable`]s and bump a version counter.
//! Each table keeps its stream partitions behind one `Arc`, so
//! [`BrokerNetwork::snapshot`](crate::broker::BrokerNetwork::snapshot)
//! is the per-node `Arc` clones plus the stream→source map, published
//! as a [`RoutingSnapshot`] through a [`cosmos_util::sync::SnapshotCell`].
//! A table writes through `Arc::make_mut`: the first write to a node
//! after a snapshot copies that node's partitions once, and the
//! snapshot keeps the old ones. Nodes nobody wrote stay shared by every
//! snapshot since.
//!
//! # Read side
//!
//! A [`SnapshotReader`] wraps an `Arc<RoutingSnapshot>` plus its own
//! match scratch per partition it visits (epoch-versioned counters,
//! candidate buffers, projection plan caches). Partitions are matched
//! through `&self` by the same kernel the serial broker runs, so N
//! readers on N threads match and forward concurrently with **zero**
//! shared mutable state and zero locks on the publish path — each
//! reader owns its snapshot handle outright and can keep publishing
//! while the writer churns and commits new snapshots.
//!
//! Every message a reader publishes observes exactly one snapshot: a
//! reader switches snapshots only between messages
//! ([`SnapshotReader::retarget`]), never mid-forward.
//!
//! # Deterministic merge
//!
//! Deliveries and link traffic accumulate per reader in a
//! [`ReaderOutput`], each delivery tagged with its message's caller-chosen
//! publish order ([`SnapshotReader::publish_at`]). Merging outputs and
//! stable-sorting by that order reproduces the serial `publish` log
//! *bit-identically* — same `Delivery` records in the same order, same
//! per-link counters — which is what the parallel-vs-serial differential
//! suite asserts.

use crate::broker::{Delivery, LinkStats, Plane, Walk};
use crate::index::{MatchScratch, Partition, Partitions};
use crate::subscription::Message;
use cosmos_net::NodeId;
use cosmos_util::Symbol;
use std::collections::HashMap;
use std::sync::Arc;

/// An immutable, `Sync` image of the whole network's dissemination
/// state: per-node stream partitions (shared with the broker's tables
/// until they are next written) plus the stream→source map. Published
/// by the broker behind a [`cosmos_util::sync::SnapshotCell`]; any
/// number of [`SnapshotReader`]s match against it concurrently.
#[derive(Debug)]
pub struct RoutingSnapshot {
    /// The broker's routing-state version this snapshot was built from
    /// (`u64::MAX` = the placeholder before the first commit).
    pub(crate) version: u64,
    pub(crate) stream_source: HashMap<Symbol, NodeId>,
    pub(crate) tables: Vec<Arc<Partitions>>,
}

impl RoutingSnapshot {
    /// The broker routing-state version this snapshot reflects.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// A new reader (fresh scratch, empty output) over this snapshot.
    pub fn reader(self: &Arc<Self>) -> SnapshotReader {
        SnapshotReader::new(Arc::clone(self))
    }
}

/// The deliveries and link traffic one reader (or a merge of readers)
/// accumulated. Deliveries are tagged with their message's publish
/// order; [`ReaderOutput::sort_by_order`] (or
/// [`BrokerNetwork::absorb`](crate::broker::BrokerNetwork::absorb))
/// restores the global serial log order.
#[derive(Debug, Default)]
pub struct ReaderOutput {
    pub(crate) deliveries: Vec<(u64, Delivery)>,
    pub(crate) links: HashMap<(NodeId, NodeId), LinkStats>,
}

impl ReaderOutput {
    /// Total number of deliveries.
    pub fn delivered(&self) -> usize {
        self.deliveries.len()
    }

    /// `true` when nothing was delivered and no link was crossed.
    pub fn is_empty(&self) -> bool {
        self.deliveries.is_empty() && self.links.is_empty()
    }

    /// Deliveries in their current order (call
    /// [`ReaderOutput::sort_by_order`] after merging to restore global
    /// publish order).
    pub fn deliveries(&self) -> impl Iterator<Item = &Delivery> {
        self.deliveries.iter().map(|(_, d)| d)
    }

    /// Folds another output into this one (concatenates deliveries, sums
    /// link counters).
    pub fn merge(&mut self, other: ReaderOutput) {
        self.deliveries.extend(other.deliveries);
        for (k, s) in other.links {
            let e = self.links.entry(k).or_default();
            e.messages += s.messages;
            e.bytes += s.bytes;
        }
    }

    /// Stable-sorts deliveries by publish order. Within one message the
    /// reader already emitted deliveries in installation-sequence order,
    /// so after this sort the whole vector equals the serial log.
    pub fn sort_by_order(&mut self) {
        self.deliveries.sort_by_key(|(o, _)| *o);
    }

    /// All per-link traffic counters, sorted by link — same shape and
    /// filter as
    /// [`BrokerNetwork::all_link_stats`](crate::broker::BrokerNetwork::all_link_stats),
    /// for direct differential comparison.
    pub fn all_link_stats(&self) -> Vec<((NodeId, NodeId), LinkStats)> {
        let mut all: Vec<_> = self
            .links
            .iter()
            .filter(|(_, s)| s.messages > 0 || s.bytes > 0)
            .map(|(&k, &s)| (k, s))
            .collect();
        all.sort_by_key(|(k, _)| *k);
        all
    }
}

/// A snapshot's partitions, matched with one reader's scratch.
struct SnapshotPlane<'a> {
    snap: &'a RoutingSnapshot,
    scratch: &'a mut HashMap<(NodeId, Symbol), MatchScratch>,
}

impl Plane for SnapshotPlane<'_> {
    fn partition(
        &mut self,
        node: NodeId,
        stream: Symbol,
    ) -> Option<(&Partition, &mut MatchScratch)> {
        let part = self.snap.tables[node.index()].get(&stream)?;
        Some((part, self.scratch.entry((node, stream)).or_default()))
    }
}

/// A read handle over one [`RoutingSnapshot`]: owns the snapshot `Arc`,
/// all match scratch, and its own output accumulator — `Send`, fully
/// independent of the broker and of every other reader, so N readers
/// publish concurrently without any synchronization.
#[derive(Debug)]
pub struct SnapshotReader {
    snap: Arc<RoutingSnapshot>,
    scratch: HashMap<(NodeId, Symbol), MatchScratch>,
    walk: Walk,
    out: ReaderOutput,
    next_order: u64,
}

impl SnapshotReader {
    /// Wraps a snapshot handle.
    pub fn new(snap: Arc<RoutingSnapshot>) -> Self {
        Self {
            snap,
            scratch: HashMap::new(),
            walk: Walk::default(),
            out: ReaderOutput::default(),
            next_order: 0,
        }
    }

    /// The snapshot this reader currently matches against.
    pub fn snapshot(&self) -> &Arc<RoutingSnapshot> {
        &self.snap
    }

    /// Switches to a newer snapshot *between* messages, keeping the
    /// accumulated output (partition scratch is rebuilt lazily — it fits
    /// the partitions of one snapshot). In-flight messages are unaffected
    /// by construction: a message is matched start-to-finish against the
    /// snapshot its reader held when `publish` began.
    pub fn retarget(&mut self, snap: &Arc<RoutingSnapshot>) {
        if Arc::ptr_eq(&self.snap, snap) {
            return;
        }
        self.snap = Arc::clone(snap);
        self.scratch.clear();
    }

    /// Publishes a message, tagging its deliveries with the next
    /// sequential order. Returns the number of local deliveries.
    pub fn publish(&mut self, msg: Message) -> usize {
        self.publish_at(self.next_order, msg)
    }

    /// Publishes a message under an explicit global order tag — how a
    /// thread pool partitioning one message stream keeps the merged
    /// output equal to the serial log. Returns the delivery count.
    pub fn publish_at(&mut self, order: u64, msg: Message) -> usize {
        self.publish_batch_at(order, std::slice::from_ref(&msg))
    }

    /// Publishes a slice of messages under consecutive order tags
    /// starting at `start_order` — message `k` is tagged exactly as
    /// `publish_at(start_order + k, ...)` would tag it, so a thread pool
    /// handing out disjoint order ranges can mix batched and serial
    /// publishing freely and the merged, order-sorted output stays equal
    /// to the serial log. Maximal same-stream runs share one forwarding
    /// walk (one partition-scratch resolution and one epoch range per
    /// node, per run). Returns the total number of local deliveries.
    pub fn publish_batch_at(&mut self, start_order: u64, msgs: &[Message]) -> usize {
        self.next_order = start_order + msgs.len() as u64;
        let before = self.out.deliveries.len();
        let mut tag0 = start_order;
        for run in msgs.chunk_by(|a, b| a.stream == b.stream) {
            if let Some(&src) = self.snap.stream_source.get(&run[0].stream) {
                let mut plane = SnapshotPlane { snap: &self.snap, scratch: &mut self.scratch };
                let ReaderOutput { deliveries, links } = &mut self.out;
                let mut deliver = |k, d| deliveries.push((tag0 + k, d));
                self.walk.run(&mut plane, src, run, None, &mut deliver, links);
            }
            tag0 += run.len() as u64;
        }
        self.out.deliveries.len() - before
    }

    /// Takes the accumulated output, leaving the reader empty (scratch
    /// and snapshot handle kept).
    pub fn take_output(&mut self) -> ReaderOutput {
        std::mem::take(&mut self.out)
    }

    /// The output accumulated so far.
    pub fn output(&self) -> &ReaderOutput {
        &self.out
    }
}

/// Merges many reader outputs into one, restoring global publish order.
pub fn merge_outputs(outputs: impl IntoIterator<Item = ReaderOutput>) -> ReaderOutput {
    let mut merged = ReaderOutput::default();
    for out in outputs {
        merged.merge(out);
    }
    merged.sort_by_order();
    merged
}

// Compile-time guarantees the parallel plane rests on: snapshots are
// shareable across threads, readers are movable into worker threads.
const _: () = {
    const fn assert_sync<T: Sync + Send>() {}
    const fn assert_send<T: Send>() {}
    assert_sync::<RoutingSnapshot>();
    assert_send::<SnapshotReader>();
    assert_sync::<crate::broker::BrokerNetwork>();
};

#[cfg(test)]
mod tests {
    use crate::broker::BrokerNetwork;
    use crate::subscription::{Message, StreamProjection, SubId, Subscription};
    use cosmos_net::{NodeId, Topology};
    use cosmos_query::Scalar;
    use std::sync::Arc;

    fn star_net() -> BrokerNetwork {
        // 0 - 1 - 2 and 1 - 3: churn at 3's branch must not copy 2.
        let mut topo = Topology::new(4);
        topo.add_edge(NodeId(0), NodeId(1), 1.0);
        topo.add_edge(NodeId(1), NodeId(2), 1.0);
        topo.add_edge(NodeId(1), NodeId(3), 1.0);
        let mut net = BrokerNetwork::new(topo);
        net.advertise("R", NodeId(0));
        net
    }

    fn all_sub(id: u64, at: NodeId) -> Subscription {
        Subscription::builder(at).id(SubId(id)).stream("R", StreamProjection::All, vec![]).build()
    }

    #[test]
    fn incremental_build_reuses_clean_nodes_frozen_tables() {
        let mut net = star_net();
        net.subscribe(all_sub(1, NodeId(2)));
        let s1 = net.snapshot();
        // A version bump without table churn: a new snapshot, every table
        // shared with the last one and with the writer.
        net.advertise("S", NodeId(0));
        let s2 = net.snapshot();
        assert!(!Arc::ptr_eq(&s1, &s2), "a version bump must commit a new snapshot");
        for n in 0..4 {
            assert!(Arc::ptr_eq(&s1.tables[n], &s2.tables[n]), "node {n} must stay shared");
            assert!(Arc::ptr_eq(&s2.tables[n], net.tables[n].partitions()), "node {n} writer");
        }
        net.subscribe(all_sub(2, NodeId(3)));
        let s3 = net.snapshot();
        // Node 2's table did not change: its partitions are shared.
        assert!(Arc::ptr_eq(&s2.tables[2], &s3.tables[2]), "clean node must reuse its table");
        // Node 3 gained a local entry: the write copied its partitions.
        assert!(!Arc::ptr_eq(&s2.tables[3], &s3.tables[3]), "written node must be copied");
        // Churn confined to node 3: a narrower local subscription that
        // sub 2 covers, so its propagation is pruned at node 3 itself.
        let narrow = Subscription::builder(NodeId(3))
            .id(SubId(3))
            .stream("R", StreamProjection::attrs(["a"]), vec![])
            .build();
        net.subscribe(narrow);
        let s4 = net.snapshot();
        for n in 0..3 {
            assert!(Arc::ptr_eq(&s3.tables[n], &s4.tables[n]), "node {n} must not be copied");
            assert!(Arc::ptr_eq(&s3.tables[n], net.tables[n].partitions()), "node {n} writer");
        }
        assert!(!Arc::ptr_eq(&s3.tables[3], &s4.tables[3]), "node 3 must be copied");
        assert!(!Arc::ptr_eq(&s3.tables[3], net.tables[3].partitions()), "node 3 writer");
        assert!(Arc::ptr_eq(&s4.tables[3], net.tables[3].partitions()), "one copy per snapshot");
    }

    #[test]
    fn frozen_matching_equals_serial_on_fixture() {
        let mut net = star_net();
        net.subscribe(all_sub(1, NodeId(2)));
        net.subscribe(all_sub(2, NodeId(3)));
        let msgs: Vec<Message> =
            (0..5).map(|i| Message::new("R", i).with("a", Scalar::Int(i))).collect();
        for msg in &msgs {
            net.publish(msg.clone());
        }
        let expected = net.log().deliveries().to_vec();
        let expected_links = net.all_link_stats();
        let mut reader = net.reader();
        for msg in &msgs {
            reader.publish(msg.clone());
        }
        let mut out = reader.take_output();
        out.sort_by_order();
        assert_eq!(out.deliveries().cloned().collect::<Vec<_>>(), expected);
        assert_eq!(out.all_link_stats(), expected_links);
    }
}
