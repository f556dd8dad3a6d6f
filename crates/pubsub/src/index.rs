//! Per-node routing index: stream partitioning plus a counting-based
//! predicate index, making broker matching sublinear in table size.
//!
//! # Why
//!
//! The paper's Pub/Sub substrate assumes brokers match each published
//! message against *massive* subscription populations. A flat routing
//! table walks every entry per message and re-evaluates its compiled
//! filters — linear in table size with a large constant. This module
//! replaces the flat table with a [`RoutingTable`] that matches in time
//! proportional to the number of *satisfied predicates* plus the number of
//! unconstrained entries, in the spirit of Siena's counting algorithm.
//!
//! # Structure
//!
//! Three layers, built incrementally as entries are installed:
//!
//! 1. **Stream partition.** Entries are grouped by the stream symbols
//!    their subscriptions request, so a published message only ever sees
//!    the partition for its own stream — entries for other streams cost
//!    nothing.
//! 2. **Counting predicate index.** Within a partition, every compiled
//!    filter that is an indexable constant comparison (`attr op constant`
//!    with a numeric constant and an order/equality operator — see
//!    [`CompiledPredicate::indexable_for`]) contributes its threshold to a
//!    tiered threshold list keyed by `(attribute, operator)`. Matching a
//!    message
//!    resolves each message attribute **once**, binary-searches each
//!    relevant list, and walks only the satisfied range, incrementing a
//!    per-entry counter (epoch-versioned, so no per-message reset). An
//!    entry whose counter reaches its indexable-predicate count has its
//!    whole indexable prefix satisfied.
//! 3. **Residual fallback.** Non-indexable predicates (join comparisons,
//!    time deltas, string equality, `!=`, foreign-relation references) are
//!    kept on the entry and evaluated **only** for entries whose indexable
//!    prefix passed; entries with no indexable predicates are tracked in a
//!    small always-candidate list. Entries whose indexable prefix fails
//!    are never touched individually.
//!
//! # Delivery fan-out: projection classes
//!
//! Matching is sublinear, but a high-match-rate message still pays a
//! *linear-in-matches* delivery term. The index bounds its constant with
//! **projection classes**: local-delivery members of a partition are
//! grouped at install time by their exact retained-attribute set, each
//! distinct projection is computed **once per message**, and every
//! matched member of the class receives the same `Arc`-shared
//! [`Message`] — per delivery, a refcount bump and a log push, no scalar
//! copies. A population of thousands of subscribers
//! usually requests a handful of distinct projections, so the projection
//! work per message is O(classes), not O(matches).
//!
//! # Forwarding projections
//!
//! The flat implementation unioned per-entry "needs" projections into a
//! `HashMap<NodeId, StreamProjection>` per message. The index instead
//! precomputes, per `(next hop, stream)` group, the union of member needs
//! at install time ([`HopGroup`]): per message it only marks matched
//! groups and applies the cached union plan (a [`CachedProjection`], so
//! repeat message shapes copy scalars by precomputed column index). The
//! forwarded attribute set is therefore the union over **all** entries of
//! the group rather than only the matching ones — a superset, so delivery
//! content is unchanged (final projection happens per subscription at the
//! delivery node); only intermediate link bytes can be marginally higher
//! when entries of the same hop match selectively.
//!
//! # Maintenance
//!
//! The table is maintained **incrementally in both directions**:
//!
//! - **Threshold-list lifecycle**: each `(attribute, operator)` list is a
//!   [`TieredList`] — bounded sorted *runs* (≤ `RUN_MAX` entries) under a
//!   flat *run-min directory*. An insert binary-searches the directory,
//!   then the owning run, and memmoves at most one run; a run that
//!   overflows splits in half (two directory entries replace one). Probes
//!   descend directory-then-run, so a match visits only the runs its
//!   satisfied range touches. Removal never edits runs on the match path:
//!   a dead member's unreachable target neutralizes stale references,
//!   and [`TieredList::retain_vals`] sweeps them run-at-a-time when the
//!   table compacts, merging underfull survivors — but never past the
//!   split steady state, so a sweep cannot force the next insert to
//!   immediately re-split. Bulk installs (the broker's batch subscribe
//!   path) build their runs from a single sort
//!   ([`TieredList::from_unsorted`]) instead of N point inserts. The
//!   dense-list semantics are preserved
//!   exactly — same counting results, same candidate order — which the
//!   tiered-vs-dense differential suite pins down.
//! - **Install**: `subscribe`/`add_forwarding_entry` extend every affected
//!   stream partition in place (run-local sorted-insert into threshold
//!   lists, hop groups union-extended, projection classes joined or
//!   opened). Each
//!   entry carries the owning subscription's installation sequence number,
//!   so delivery order stays the population's subscribe order no matter
//!   how entries are later removed and re-added.
//! - **Remove**: [`RoutingTable::remove_entry`] is first-class removal by
//!   `(subscription id, direction)` — the primitive the broker's
//!   per-subscription [`crate::broker::BrokerNetwork`] ledger drives on
//!   unsubscribe and link failure/recovery. Removal tombstones the entry:
//!   threshold lists keep stale references that the dead member's
//!   unreachable target neutralizes, the affected hop group's
//!   needs-union is recomputed from its surviving members **only** (no
//!   other group is touched), and emptied projection classes simply stop
//!   being filled. Once tombstones
//!   dominate ([`tombstones_dominate`]: dead at least matches live, past
//!   a small absolute floor so tiny tables never thrash) the table
//!   compacts — threshold lists are swept run-at-a-time
//!   ([`TieredList::retain_vals`]), dead hop groups and emptied
//!   projection classes are dropped, and surviving entries re-group —
//!   preserving each entry's sequence number so observable order never
//!   changes.
//!
//! - **Covering buckets**: installs themselves are sublinear. Every
//!   forwarding entry joins a per-`(stream, next hop)` [`CoverBucket`]
//!   keyed by the same indexable `(attribute, operator, threshold)`
//!   skeleton the counting index extracts. An entry can only cover a
//!   narrower one when its thresholds are weaker, so both covering
//!   queries an arrival asks — *"does a same-direction entry cover this
//!   subscription?"* ([`RoutingTable::insert_covering`]'s skip check) and
//!   *"which entries does it cover?"* (the merge drop) — binary-search
//!   sorted threshold lists for a small candidate set (bounded by
//!   [`coverer_bounds`]' sound over-approximation) and confirm the
//!   survivors exactly, instead of scanning the table. The buckets share
//!   the entry tombstone/compaction lifecycle: removal leaves stale slot
//!   references that the dead flag neutralizes during candidate
//!   filtering, and compaction rebuilds the buckets dense alongside the
//!   threshold lists. [`ForwardedSet`] applies the same structure to the
//!   broker's forwarded-up prune state, and both keep their reference
//!   linear scans as oracle twins (the broker's `new_linear` mode) —
//!   answers are bit-identical, candidates are merely fewer.
//!
//! Wholesale rebuilds still exist, but only as the *differential oracle*:
//! the broker's `*_wholesale` maintenance hooks clear and re-install
//! through this same incremental path, and the churn equivalence suite
//! asserts the incremental ledger ends in an observationally identical
//! state.
//!
//! - **Crash recovery**: whole-node failure
//!   ([`crate::broker::BrokerNetwork::fail_node`]) is not a new table
//!   primitive — it is the two existing ones driven in bulk. The crashed
//!   broker's own table is dropped with the node; every *surviving* node
//!   sheds, via the same ledgered [`RoutingTable::remove_entry`] calls an
//!   unsubscribe issues, exactly the entries whose reverse paths routed
//!   through the crashed broker, and the repair wave re-installs the
//!   moved subscriptions through the normal install path (sequence
//!   numbers preserved, so delivery order is unchanged). The crashed
//!   broker's local subscriptions are fully unsubscribed from the ledger,
//!   never orphaned. The reliable-delivery plane
//!   ([`crate::reliable`]) sits entirely *below* this table: frames,
//!   acks, and retransmissions are per-link transport concerns the index
//!   never sees — by the time a message is matched here it is already
//!   exactly-once.
//!
//! # Concurrency: shared partitions
//!
//! Each stream's match state is an immutable [`Partition`]; everything a
//! match writes (epoch-versioned counters, candidate buffers, projection
//! plan caches) lives in a separate [`MatchScratch`] owned by whoever
//! matches. [`Partition::match_batch`] is the one matching kernel: the
//! table's serial and batched publish, the lossy plane's one-hop match
//! and every [`crate::snapshot::SnapshotReader`] run it, a single
//! message being a batch of one. A table keeps its partitions behind one
//! `Arc` and writes through [`Arc::make_mut`], so a snapshot is the
//! per-node `Arc` clones and the first write to a node after a snapshot
//! copies that node's partitions once. Tombstoned members stay in place
//! (their target becomes unreachable), so candidate `(seq, slot)` order —
//! and with it delivery order — is the same for every matcher.
//! Install-time helpers take a precomputed [`SubSkeleton`] (the
//! per-stream indexable/residual split) so one source walk derives each
//! stream's skeleton once instead of re-splitting at every hop for the
//! skip probe, the victim probes and the insert.

use crate::subscription::{CachedProjection, Message, StreamProjection, SubId, Subscription};
use crate::tiered::{tombstones_dominate, TieredList};
use cosmos_net::NodeId;
use cosmos_query::compiled::{eval_compiled, CompiledPredicate, IndexOperand, IndexableCmp};
use cosmos_query::containment::coverer_bounds;
use cosmos_query::CmpOp;
use cosmos_util::Symbol;
use std::collections::HashMap;
use std::sync::Arc;

/// One installed routing entry: a subscription plus its forwarding
/// direction (`None` = deliver locally at this node).
#[derive(Debug, Clone)]
struct Entry {
    sub: Subscription,
    to: Option<NodeId>,
    /// The owning subscription's installation sequence number. Local
    /// deliveries are emitted in ascending `seq`, so re-installing an
    /// entry (incremental repair appends it at the end of the partition)
    /// cannot reorder the delivery log relative to a fresh build.
    seq: u64,
    dead: bool,
}

/// A per-`(next hop)` group within one stream partition: the union of
/// member needs-projections, applied once per message when any member
/// matches (through a plan cache in the matcher's [`MatchScratch`]).
#[derive(Debug, Clone)]
struct HopGroup {
    to: NodeId,
    /// Union of `Subscription::needs` over live members.
    union: StreamProjection,
}

/// What a matched member does: local delivery (share its projection
/// class's record) or marking its hop group.
#[derive(Debug, Clone, Copy)]
enum MemberAction {
    Local { sub: SubId, class: u32 },
    Hop(u32),
}

/// The `target` of a tombstoned member. A member's counter never exceeds
/// its threshold-list references, which never exceed its live target, so
/// no message can bring a dead member to `u32::MAX`: the kernel excludes
/// it without a flag check.
const DEAD: u32 = u32::MAX;

/// One `(entry, stream)` pair in a stream partition.
#[derive(Debug, Clone)]
struct Member {
    /// Slot of the owning entry in `RoutingTable::entries`.
    entry: u32,
    /// The owning entry's installation sequence number, cached here so
    /// ordering candidates never chases the entry indirection on the
    /// match hot path.
    seq: u64,
    /// Number of indexable predicates that must be satisfied ([`DEAD`]
    /// once tombstoned).
    target: u32,
    /// Predicates evaluated only when the indexable prefix passed.
    residual: Vec<CompiledPredicate>,
    action: MemberAction,
}

/// A member's satisfied-predicate counter, valid only in `epoch`.
#[derive(Debug, Clone, Copy, Default)]
struct Counter {
    epoch: u64,
    count: u32,
}

/// Sorted `(threshold, member)` lists for one attribute, one per operator
/// class. Ascending by threshold; never contains NaN (a NaN threshold is
/// unsatisfiable, so it only counts toward the member's target). Each
/// list is a [`TieredList`] — bounded runs under a run-min directory — so
/// an install memmoves at most one run no matter how large the partition
/// grows, while the satisfied-range walks below iterate runs in key
/// order and stay bit-identical to the dense layout they replaced.
#[derive(Debug, Clone, Default)]
struct OpLists {
    lt: TieredList,
    le: TieredList,
    gt: TieredList,
    ge: TieredList,
    eq: TieredList,
}

impl OpLists {
    fn list_mut(&mut self, op: CmpOp) -> &mut TieredList {
        match op {
            CmpOp::Lt => &mut self.lt,
            CmpOp::Le => &mut self.le,
            CmpOp::Gt => &mut self.gt,
            CmpOp::Ge => &mut self.ge,
            CmpOp::Eq => &mut self.eq,
            CmpOp::Ne => unreachable!("Ne is never indexable"),
        }
    }

    fn insert(&mut self, op: CmpOp, threshold: f64, member: u32) {
        self.list_mut(op).insert(threshold, member);
    }

    fn is_empty(&self) -> bool {
        self.lt.is_empty()
            && self.le.is_empty()
            && self.gt.is_empty()
            && self.ge.is_empty()
            && self.eq.is_empty()
    }

    /// Per-run tombstone sweep: drops every reference to a dead member
    /// from all five lists (retain-in-place per run, underfull runs
    /// merged), so partitions under heavy churn shed stale references
    /// without waiting for the whole-table rebuild.
    fn sweep_dead(&mut self, members: &[Member]) {
        for list in [&mut self.lt, &mut self.le, &mut self.gt, &mut self.ge, &mut self.eq] {
            list.retain_vals(|m| members[m as usize].target != DEAD);
        }
    }

    /// Bumps the counter of every member whose predicate is satisfied by
    /// attribute value `v` (non-NaN): descend the run directory to the
    /// satisfied range, then walk only that range's runs in key order.
    /// With an `eq_cursor`, the equality list is located by a
    /// caller-held directory cursor instead (see
    /// [`TieredList::for_eq_hinted`]): a batch probed in value order
    /// turns each eq descent into an amortized linear advance. The
    /// inequality lists walk whole satisfied ranges anyway — their
    /// boundary descents are a negligible share of the visit — so only
    /// `eq` is hinted.
    fn bump_satisfied(
        &self,
        v: f64,
        counters: &mut [Counter],
        touched: &mut Vec<u32>,
        epoch: u64,
        eq_cursor: Option<&mut usize>,
    ) {
        // `attr > t` holds for thresholds t < v: an ascending prefix.
        self.gt.for_prefix(|t| t < v, |run| bump(run, counters, touched, epoch));
        // `attr >= t` holds for t <= v.
        self.ge.for_prefix(|t| t <= v, |run| bump(run, counters, touched, epoch));
        // `attr < t` holds for t > v: an ascending suffix.
        self.lt.for_suffix(|t| t > v, |run| bump(run, counters, touched, epoch));
        // `attr <= t` holds for t >= v.
        self.le.for_suffix(|t| t >= v, |run| bump(run, counters, touched, epoch));
        // `attr = t` holds for the equal range.
        let (lt, le) = (|t: f64| t < v, |t: f64| t <= v);
        match eq_cursor {
            Some(c) => self.eq.for_eq_hinted(c, lt, le, |run| bump(run, counters, touched, epoch)),
            None => self.eq.for_eq(lt, le, |run| bump(run, counters, touched, epoch)),
        }
    }
}

/// Increments the epoch-versioned counters of `satisfied` members.
fn bump(satisfied: &[(f64, u32)], counters: &mut [Counter], touched: &mut Vec<u32>, epoch: u64) {
    for &(_, m) in satisfied {
        let c = &mut counters[m as usize];
        if c.epoch == epoch {
            c.count += 1;
        } else {
            *c = Counter { epoch, count: 1 };
            touched.push(m);
        }
    }
}

/// Below this many members a covering bucket (or forwarded set) is
/// scanned whole instead of range-probed: the skeleton split and bound
/// computation cost more than confirming a handful of candidates, and
/// covering-dense populations — where merges keep every bucket tiny —
/// would otherwise pay that overhead on every install hop. Both paths
/// produce a candidate superset confirmed by the same exact check, so
/// the answer is identical either way.
const COVER_SCAN_SMALL: usize = 32;

/// Normalizes a threshold for `total_cmp`-ordered storage: `-0.0` and
/// `0.0` compare equal numerically but not under `total_cmp`, so both are
/// stored (and probed) as `+0.0`. NaN never enters a covering list.
fn norm(t: f64) -> f64 {
    if t == 0.0 {
        0.0
    } else {
        t
    }
}

/// A subscription's per-stream indexable/residual split, computed once
/// and threaded through an install walk. `insert`, `insert_covering` and
/// the forwarded-set covering queries all consume the same split
/// ([`crate::subscription::StreamRequest::split_for_index`]); without
/// this, a multi-hop installation re-derived it up to three times per
/// hop (skip probe, victim probes, insert).
#[derive(Debug, Clone)]
pub struct SubSkeleton {
    /// `(stream, indexable comparisons, residual predicates)` in the
    /// subscription's stream order.
    streams: Vec<(Symbol, Vec<IndexableCmp>, Vec<CompiledPredicate>)>,
}

impl SubSkeleton {
    /// Splits every stream of `sub` once.
    pub fn of(sub: &Subscription) -> Self {
        Self {
            streams: sub
                .streams
                .iter()
                .map(|(&s, req)| {
                    let (indexable, residual) = req.split_for_index(s);
                    (s, indexable, residual)
                })
                .collect(),
        }
    }

    /// The precomputed split for one stream. Subscriptions request a
    /// handful of streams, so a linear find beats a map here.
    fn get(&self, stream: Symbol) -> Option<(&[IndexableCmp], &[CompiledPredicate])> {
        self.streams
            .iter()
            .find(|(s, _, _)| *s == stream)
            .map(|(_, i, r)| (i.as_slice(), r.as_slice()))
    }
}

/// Covering-candidate index over the subscriptions of one
/// `(stream, direction)` bucket, keyed by the indexable
/// `(attribute, operator, threshold)` skeleton
/// ([`CompiledPredicate::indexable_for`] via
/// [`crate::subscription::StreamRequest::split_for_index`]).
///
/// An entry can only cover a narrower one when its thresholds are weaker,
/// so both covering queries reduce to binary-searched ranges over sorted
/// threshold lists — a *candidate* set that the exact covering check then
/// confirms (the range bounds are [`coverer_bounds`]' sound
/// over-approximation):
///
/// - **"Who covers this subscription?"** — the loose members (no usable
///   comparison: nothing constrains them away) plus, per probe attribute,
///   the prefix of weaker lower bounds, the suffix of weaker upper
///   bounds, and the equal range of matching point constraints.
/// - **"Whom does this subscription cover?"** — anchored on the probe's
///   first comparison: a covered member must carry a comparison on the
///   same attribute at least as strong, so the complementary range of the
///   same lists applies.
///
/// Slots are caller-defined (routing-table entry ids, forwarded-set
/// record indices). The bucket never removes: dead slots are filtered by
/// the caller's liveness check and disappear when the owner compacts —
/// the same tombstone/compaction lifecycle as the counting match index.
#[derive(Debug, Default)]
struct CoverBucket {
    /// Sorted `(threshold, slot)` lists per indexable `(operand, op)`
    /// pair: every usable comparison of every member (NaN thresholds are
    /// unsatisfiable and imply nothing, so they never enter a list).
    /// Tiered like the counting index's lists, so inserting into a huge
    /// bucket memmoves at most one run. Populated only once the bucket
    /// is `built`.
    comps: HashMap<(IndexOperand, CmpOp), TieredList>,
    /// Members with no usable indexable comparison on the bucket's stream
    /// (filter-free or residual-only): always coverer candidates.
    /// Populated only once the bucket is `built`.
    loose: Vec<u32>,
    /// Every member slot, in insertion order — the victim candidate set
    /// when the probing subscription carries no indexable comparison,
    /// and the whole candidate set while the bucket is small.
    members: Vec<u32>,
    /// Whether the threshold lists exist. Small buckets are scanned
    /// whole (see [`COVER_SCAN_SMALL`]), so owners defer building the
    /// lists until the bucket outgrows the threshold — covering-dense
    /// populations, whose merges keep every bucket tiny, then pay no
    /// skeleton upkeep at all.
    built: bool,
}

impl CoverBucket {
    fn insert(&mut self, slot: u32, comps: &[IndexableCmp]) {
        self.members.push(slot);
        let mut usable = false;
        for c in comps {
            if c.threshold.is_nan() {
                continue;
            }
            usable = true;
            self.comps.entry((c.operand, c.op)).or_default().insert(norm(c.threshold), slot);
        }
        if !usable {
            self.loose.push(slot);
        }
    }

    /// Backfills the threshold lists from the staged member set in one
    /// pass (the owner's lazy build at [`COVER_SCAN_SMALL`]): comparisons
    /// are collected per `(operand, op)` key and each list is bulk-loaded
    /// run-at-a-time from a single sort instead of N point inserts.
    /// Candidate queries sort and dedup before confirming, so the
    /// equal-threshold order difference from point inserts is unobservable.
    fn bulk_build(&mut self, staged: Vec<(u32, Vec<IndexableCmp>)>) {
        let mut lists: HashMap<(IndexOperand, CmpOp), Vec<(f64, u32)>> = HashMap::new();
        for (slot, comps) in staged {
            self.members.push(slot);
            let mut usable = false;
            for c in &comps {
                if c.threshold.is_nan() {
                    continue;
                }
                usable = true;
                lists.entry((c.operand, c.op)).or_default().push((norm(c.threshold), slot));
            }
            if !usable {
                self.loose.push(slot);
            }
        }
        for (key, items) in lists {
            self.comps.insert(key, TieredList::from_unsorted(items));
        }
    }

    /// Appends every slot that could cover a subscription whose
    /// comparisons on this stream are `probe` (a superset — callers
    /// confirm candidates with the exact covering check).
    fn coverer_candidates(&self, probe: &[IndexableCmp], out: &mut Vec<u32>) {
        out.extend_from_slice(&self.loose);
        let mut operands: Vec<IndexOperand> = Vec::new();
        for c in probe {
            if !operands.contains(&c.operand) {
                operands.push(c.operand);
            }
        }
        let collect = |run: &[(f64, u32)], out: &mut Vec<u32>| {
            out.extend(run.iter().map(|&(_, s)| s));
        };
        for operand in operands {
            let bounds = coverer_bounds(
                probe.iter().filter(|c| c.operand == operand).map(|c| (c.op, c.threshold)),
            );
            if let Some(u) = bounds.lower_max {
                let u = norm(u);
                for op in [CmpOp::Gt, CmpOp::Ge] {
                    if let Some(list) = self.comps.get(&(operand, op)) {
                        list.for_prefix(|t| t.total_cmp(&u).is_le(), |run| collect(run, out));
                    }
                }
            }
            if let Some(l) = bounds.upper_min {
                let l = norm(l);
                for op in [CmpOp::Lt, CmpOp::Le] {
                    if let Some(list) = self.comps.get(&(operand, op)) {
                        list.for_suffix(|t| t.total_cmp(&l).is_ge(), |run| collect(run, out));
                    }
                }
            }
            if let Some(list) = self.comps.get(&(operand, CmpOp::Eq)) {
                for &v in &bounds.eq_values {
                    let v = norm(v);
                    list.for_eq(
                        |t| t.total_cmp(&v).is_lt(),
                        |t| t.total_cmp(&v).is_le(),
                        |run| collect(run, out),
                    );
                }
            }
        }
    }

    /// Appends every slot the probing subscription could cover, anchored
    /// on the probe's first usable comparison. With no usable comparison
    /// the whole bucket is a candidate — output-sensitive rather than
    /// sublinear, but a filterless coverer drops nearly everything it
    /// touches anyway, leaving the bucket small afterwards.
    fn covered_candidates(&self, probe: &[IndexableCmp], out: &mut Vec<u32>) {
        if probe.iter().any(|c| c.threshold.is_nan()) {
            return; // an unsatisfiable comparison is implied by nothing
        }
        let Some(c0) = probe.first() else {
            out.extend_from_slice(&self.members);
            return;
        };
        let t = norm(c0.threshold);
        let collect = |run: &[(f64, u32)], out: &mut Vec<u32>| {
            out.extend(run.iter().map(|&(_, s)| s));
        };
        match c0.op {
            CmpOp::Gt | CmpOp::Ge => {
                for op in [CmpOp::Gt, CmpOp::Ge, CmpOp::Eq] {
                    if let Some(list) = self.comps.get(&(c0.operand, op)) {
                        list.for_suffix(|x| x.total_cmp(&t).is_ge(), |run| collect(run, out));
                    }
                }
            }
            CmpOp::Lt | CmpOp::Le => {
                for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Eq] {
                    if let Some(list) = self.comps.get(&(c0.operand, op)) {
                        list.for_prefix(|x| x.total_cmp(&t).is_le(), |run| collect(run, out));
                    }
                }
            }
            CmpOp::Eq => {
                if let Some(list) = self.comps.get(&(c0.operand, CmpOp::Eq)) {
                    list.for_eq(
                        |x| x.total_cmp(&t).is_lt(),
                        |x| x.total_cmp(&t).is_le(),
                        |run| collect(run, out),
                    );
                }
            }
            CmpOp::Ne => unreachable!("Ne is never indexable"),
        }
    }
}

/// The outcome of one covering-merged forwarding-entry insert
/// ([`RoutingTable::insert_covering`]).
#[derive(Debug)]
pub enum ForwardInsert {
    /// Entry installed; these subscriptions' covered same-direction
    /// entries were dropped — one id **per dropped entry** (a multi-stream
    /// victim can lose several entries toward the same hop), in table
    /// order, so the caller can scrub each from the victim's ledger.
    Inserted {
        /// Owning ids of the dropped entries.
        dropped: Vec<SubId>,
    },
    /// An existing covering entry of subscription `by` made the insert
    /// redundant.
    Skipped {
        /// The covering subscription.
        by: SubId,
    },
}

/// The forwarded-up set of one `(node, source)` pair: the subscriptions
/// already propagated toward that source, with per-stream
/// covering buckets so the prune check — "does anything already forwarded
/// cover this subscription?" — binary-searches threshold skeletons
/// instead of scanning the population. Same tombstone/compaction
/// lifecycle as the routing table; the linear scan survives as
/// [`ForwardedSet::find_coverer_linear`], the oracle twin.
#[derive(Debug, Default)]
pub struct ForwardedSet {
    records: Vec<ForwardedRec>,
    buckets: HashMap<Symbol, CoverBucket>,
    /// Record slots per subscription id, ascending — makes removal
    /// independent of population size (no whole-set scan at 100k+).
    slots_of: HashMap<SubId, Vec<u32>>,
    dead: usize,
    /// Whether the covering buckets exist. Small sets are scanned
    /// linearly ([`COVER_SCAN_SMALL`]), so bucket upkeep is deferred
    /// until the set outgrows the threshold — in covering-dense
    /// populations the prune state stays tiny and pays no upkeep at all.
    built: bool,
    /// Scratch buffer of candidate slots, reused across
    /// [`ForwardedSet::find_coverer`] calls.
    scratch: Vec<u32>,
}

#[derive(Debug)]
struct ForwardedRec {
    sub: Subscription,
    dead: bool,
}

impl ForwardedSet {
    fn bucket_insert(buckets: &mut HashMap<Symbol, CoverBucket>, slot: u32, sub: &Subscription) {
        for (&s, req) in &sub.streams {
            let (indexable, _) = req.split_for_index(s);
            let bucket = buckets.entry(s).or_default();
            bucket.built = true;
            bucket.insert(slot, &indexable);
        }
    }

    /// Records a forwarded subscription, extending its streams' buckets
    /// (built lazily, once the set outgrows the whole-scan threshold —
    /// the per-set mirror of `RoutingTable::insert`'s per-bucket policy;
    /// the gate counts raw records, tombstones included, matching the
    /// `find_coverer` shortcut's gate).
    pub fn push(&mut self, sub: Subscription) {
        let skel = SubSkeleton::of(&sub);
        self.push_with(sub, &skel);
    }

    /// [`ForwardedSet::push`] with the caller's precomputed skeleton.
    pub fn push_with(&mut self, sub: Subscription, skel: &SubSkeleton) {
        let slot = u32::try_from(self.records.len()).expect("forwarded set overflow");
        if !self.built && self.records.len() >= COVER_SCAN_SMALL {
            self.built = true;
            for (i, rec) in self.records.iter().enumerate() {
                if !rec.dead {
                    Self::bucket_insert(&mut self.buckets, i as u32, &rec.sub);
                }
            }
        }
        if self.built {
            for &s in sub.streams.keys() {
                let indexable = skel.get(s).map(|(i, _)| i).unwrap_or(&[]);
                let bucket = self.buckets.entry(s).or_default();
                bucket.built = true;
                bucket.insert(slot, indexable);
            }
        }
        self.slots_of.entry(sub.id).or_default().push(slot);
        self.records.push(ForwardedRec { sub, dead: false });
    }

    /// The first live record covering `sub` (insertion order — identical
    /// to the linear twin's answer), via the covering buckets; a coverer
    /// must request every stream of `sub`, so the first stream's bucket
    /// already contains all possible coverers. `covers(general,
    /// specific)` confirms candidates. A record never covers its own id.
    pub fn find_coverer<F>(&mut self, sub: &Subscription, covers: F) -> Option<SubId>
    where
        F: Fn(&Subscription, &Subscription) -> bool,
    {
        let skel = SubSkeleton::of(sub);
        self.find_coverer_with(sub, &skel, covers)
    }

    /// [`ForwardedSet::find_coverer`] with the caller's precomputed
    /// skeleton.
    pub fn find_coverer_with<F>(
        &mut self,
        sub: &Subscription,
        skel: &SubSkeleton,
        covers: F,
    ) -> Option<SubId>
    where
        F: Fn(&Subscription, &Subscription) -> bool,
    {
        if !self.built {
            // Covering pruning keeps most forwarded sets tiny; scanning
            // them beats the skeleton machinery (identical answer).
            return self.find_coverer_linear(sub, covers);
        }
        let Some((&s0, _)) = sub.streams.iter().next() else {
            // A stream-free subscription is vacuously covered by anything
            // live; only the linear scan can answer for it.
            return self.find_coverer_linear(sub, covers);
        };
        let bucket = self.buckets.get(&s0)?;
        let mut candidates = std::mem::take(&mut self.scratch);
        candidates.clear();
        let probe = skel.get(s0).map(|(i, _)| i).unwrap_or(&[]);
        bucket.coverer_candidates(probe, &mut candidates);
        candidates.sort_unstable();
        candidates.dedup();
        let found = candidates.iter().find_map(|&slot| {
            let rec = &self.records[slot as usize];
            (!rec.dead && rec.sub.id != sub.id && covers(&rec.sub, sub)).then_some(rec.sub.id)
        });
        self.scratch = candidates;
        found
    }

    /// The reference linear scan over live records, in insertion order —
    /// the oracle twin of [`ForwardedSet::find_coverer`].
    pub fn find_coverer_linear<F>(&self, sub: &Subscription, covers: F) -> Option<SubId>
    where
        F: Fn(&Subscription, &Subscription) -> bool,
    {
        self.records.iter().find_map(|rec| {
            (!rec.dead && rec.sub.id != sub.id && covers(&rec.sub, sub)).then_some(rec.sub.id)
        })
    }

    /// Tombstones every record of `id`, compacting once tombstones
    /// dominate. Returns how many records were removed.
    pub fn remove(&mut self, id: SubId) -> usize {
        let mut n = 0;
        if let Some(slots) = self.slots_of.remove(&id) {
            for slot in slots {
                let rec = &mut self.records[slot as usize];
                if !rec.dead {
                    rec.dead = true;
                    self.dead += 1;
                    n += 1;
                }
            }
        }
        if tombstones_dominate(self.dead, self.records.len()) {
            let live: Vec<Subscription> =
                self.records.drain(..).filter(|r| !r.dead).map(|r| r.sub).collect();
            self.buckets.clear();
            self.slots_of.clear();
            self.dead = 0;
            self.built = false;
            for sub in live {
                self.push(sub);
            }
        }
        n
    }

    /// Live forwarded subscriptions, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Subscription> {
        self.records.iter().filter(|r| !r.dead).map(|r| &r.sub)
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.records.len() - self.dead
    }

    /// `true` when no live records remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One stream's match state at one node. Matching reads it through
/// `&self` ([`Partition::match_batch`]); all per-message state lives in
/// the matcher's [`MatchScratch`], so a snapshot shares a node's
/// partitions with the writing table by `Arc`.
#[derive(Debug, Clone, Default)]
pub(crate) struct Partition {
    members: Vec<Member>,
    /// Member slot per owning entry id (each entry contributes at most
    /// one member per partition) — makes tombstoning independent of
    /// partition size.
    member_of: HashMap<u32, u32>,
    /// Members tombstoned since the last per-run sweep of the threshold
    /// lists; once these dominate the partition the lists are swept
    /// run-by-run without rebuilding the table.
    dead_members: usize,
    /// Threshold lists per stored attribute, in first-install order (a
    /// stream carries a handful of attributes, so a scan beats a map).
    attr_lists: Vec<(Symbol, OpLists)>,
    /// Threshold lists over the event-time pseudo-attribute.
    ts_lists: OpLists,
    /// Members with no indexable predicates (always candidates).
    zero_target: Vec<u32>,
    hops: Vec<HopGroup>,
    /// Local-delivery projection classes: the distinct retained-attribute
    /// sets (or `All`) of the local members. A class is projected once per
    /// message and every matched member of the class shares the record.
    classes: Vec<StreamProjection>,
    /// Bumped by every change, so a [`MatchScratch`] knows when to refit
    /// its counters and plan caches (0 = never built).
    stamp: u64,
}

/// The partitions of one node, keyed by stream.
pub(crate) type Partitions = HashMap<Symbol, Partition>;

/// A projection plan cache plus, for a projection class, the record it
/// produced for the message of `epoch` (hop groups leave it empty).
#[derive(Debug)]
struct Projector {
    plan: CachedProjection,
    epoch: u64,
    record: Option<Message>,
}

/// Everything a match writes, kept apart from the [`Partition`] it
/// matches: the routing table owns one per partition for its own
/// publishing, each snapshot reader one per partition it visits.
#[derive(Debug, Default)]
pub(crate) struct MatchScratch {
    /// The partition stamp the counters and plan caches fit.
    stamp: u64,
    epoch: u64,
    /// Per member slot. Epoch-versioned, so refitting only resizes.
    counters: Vec<Counter>,
    /// Members bumped this epoch.
    touched: Vec<u32>,
    /// Fully-satisfied `(seq, member)` pairs, sorted to subscribe order —
    /// flat keys, so the sort never chases pointers.
    candidates: Vec<(u64, u32)>,
    /// Hop groups marked by the current message.
    touched_hops: Vec<u32>,
    /// Per projection class.
    classes: Vec<Projector>,
    /// Per hop group.
    hops: Vec<Projector>,
    /// `(value index, attr_lists index)` per indexed attribute of the
    /// schema `resolved_schema`, so a stream's messages resolve their
    /// threshold lists once per schema rather than once per message.
    resolved: Vec<(usize, usize)>,
    resolved_schema: Option<u32>,
}

impl MatchScratch {
    /// Fits the scratch to `part` after a change: counters grow or shrink
    /// with the member slots (stale epochs make old values inert), plan
    /// caches whose projection changed are rebuilt, and the schema
    /// resolution is dropped.
    fn refit(&mut self, part: &Partition) {
        if self.stamp == part.stamp {
            return;
        }
        self.stamp = part.stamp;
        self.counters.resize(part.members.len(), Counter::default());
        refit_projectors(&mut self.classes, part.classes.iter());
        refit_projectors(&mut self.hops, part.hops.iter().map(|h| &h.union));
        self.resolved_schema = None;
    }
}

/// Keeps each projector whose projection is unchanged and rebuilds the
/// rest, leaving exactly one per projection.
fn refit_projectors<'a>(
    projectors: &mut Vec<Projector>,
    projections: impl Iterator<Item = &'a StreamProjection>,
) {
    let mut n = 0;
    for (i, proj) in projections.enumerate() {
        n = i + 1;
        let fresh =
            || Projector { plan: CachedProjection::new(proj.clone()), epoch: 0, record: None };
        match projectors.get_mut(i) {
            Some(p) if p.plan.projection() == proj => {}
            Some(p) => *p = fresh(),
            None => projectors.push(fresh()),
        }
    }
    projectors.truncate(n);
}

impl Partition {
    /// The matching kernel. Matches a batch of **same-stream** messages —
    /// `(tag, index into records)` pairs — through one walk of this
    /// partition: one counter-epoch range for the whole batch, threshold
    /// lists resolved once per schema. Per message: a counting pass over
    /// the satisfied threshold ranges, residual evaluation for
    /// fully-counted candidates in `(seq, slot)` order, one projection
    /// per matched class, and one forward per marked hop group (except
    /// toward `from`). Each message's results are handed to
    /// `sink(tag, record, out)` in batch order, with `out` cleared before
    /// each message.
    pub(crate) fn match_batch<T: Copy>(
        &self,
        scratch: &mut MatchScratch,
        records: &[Message],
        batch: &[(T, u32)],
        from: Option<NodeId>,
        out: &mut BatchMatchOutput,
        mut sink: impl FnMut(T, u32, &mut BatchMatchOutput),
    ) {
        scratch.refit(self);
        let base = scratch.epoch;
        scratch.epoch += batch.len() as u64;
        let MatchScratch {
            counters,
            touched,
            candidates,
            touched_hops,
            classes,
            hops,
            resolved,
            resolved_schema,
            ..
        } = scratch;
        // Directory cursor for the first resolved attribute's eq list:
        // callers sort batches by that attribute, so successive probes
        // advance it monotonically (any order stays correct, just
        // without the amortization). A single message descends instead.
        let mut eq_cursor = 0usize;
        let hinted = batch.len() > 1;
        for (j, &(tag, rec)) in batch.iter().enumerate() {
            let msg = &records[rec as usize];
            let epoch = base + j as u64 + 1;
            touched.clear();
            candidates.clear();
            touched_hops.clear();
            if !self.attr_lists.is_empty() {
                let schema = msg.schema();
                if *resolved_schema != Some(schema.id()) {
                    *resolved_schema = Some(schema.id());
                    resolved.clear();
                    resolved.extend(schema.attrs().iter().enumerate().filter_map(|(i, attr)| {
                        self.attr_lists.iter().position(|(a, _)| a == attr).map(|l| (i, l))
                    }));
                    eq_cursor = 0;
                }
                for (a, &(i, l)) in resolved.iter().enumerate() {
                    let Some(v) =
                        cosmos_query::compiled::ScalarRef::from(&msg.values()[i]).as_f64()
                    else {
                        continue; // string value: numeric comparisons are false
                    };
                    if v.is_nan() {
                        continue;
                    }
                    let cursor = (hinted && a == 0).then_some(&mut eq_cursor);
                    self.attr_lists[l].1.bump_satisfied(v, counters, touched, epoch, cursor);
                }
            }
            if !self.ts_lists.is_empty() {
                self.ts_lists.bump_satisfied(msg.timestamp as f64, counters, touched, epoch, None);
            }
            // Candidates: fully-counted members plus filter-free members,
            // in installation-sequence order — the population's subscribe
            // order, stable across incremental removal and
            // re-installation (member slots are only partition insertion
            // order, which repair churns).
            candidates.extend(self.zero_target.iter().map(|&m| (self.members[m as usize].seq, m)));
            candidates.extend(touched.iter().filter_map(|&m| {
                let member = &self.members[m as usize];
                (counters[m as usize].count == member.target).then_some((member.seq, m))
            }));
            candidates.sort_unstable();
            out.clear();
            for &(_, m) in candidates.iter() {
                let member = &self.members[m as usize];
                if !eval_compiled(&member.residual, msg) {
                    continue;
                }
                match member.action {
                    MemberAction::Local { sub, class } => {
                        // Projection-class dedup: the first matched member
                        // of a class computes the projection; the rest of
                        // the class shares the record (a refcount bump per
                        // delivery).
                        let class = &mut classes[class as usize];
                        if class.epoch != epoch {
                            class.epoch = epoch;
                            class.record = Some(class.plan.apply(msg));
                        }
                        let record = class.record.clone().expect("projected this epoch");
                        out.deliveries.push((sub, record));
                    }
                    MemberAction::Hop(g) => {
                        let hop = &mut hops[g as usize];
                        if hop.epoch != epoch {
                            hop.epoch = epoch;
                            touched_hops.push(g);
                        }
                    }
                }
            }
            // Forwards come from the groups this message marked (no
            // per-message rescan of every group), sorted by node id.
            for &g in touched_hops.iter() {
                let to = self.hops[g as usize].to;
                if Some(to) == from {
                    continue;
                }
                let plan = &mut hops[g as usize].plan;
                out.forwards.push((to, (!plan.is_identity()).then(|| plan.apply(msg))));
            }
            out.forwards.sort_by_key(|(n, _)| *n);
            sink(tag, rec, out);
        }
    }
}

/// The outcome of matching one message at one node. An identity forward
/// (a hop whose union projection keeps the whole record) carries `None`
/// instead of a clone of the message — the caller shares the original it
/// already holds, so pass-through forwarding never pays a per-hop record
/// clone.
#[derive(Debug, Default)]
pub struct BatchMatchOutput {
    /// Local deliveries: `(subscription, projected message)` in
    /// installation-sequence order.
    pub deliveries: Vec<(SubId, Message)>,
    /// Forwards sorted by node id; `None` projects nothing (forward the
    /// matched message itself).
    pub forwards: Vec<(NodeId, Option<Message>)>,
}

impl BatchMatchOutput {
    /// Empties both buffers, keeping their capacity.
    pub fn clear(&mut self) {
        self.deliveries.clear();
        self.forwards.clear();
    }
}

/// A node's routing table: entries partitioned by stream, each partition
/// carrying a counting predicate index (see the module docs).
#[derive(Debug, Default)]
pub struct RoutingTable {
    entries: Vec<Entry>,
    /// Shared with every snapshot taken since the last write; written
    /// through [`Arc::make_mut`].
    parts: Arc<Partitions>,
    /// This table's own match scratch, per stream.
    scratch: HashMap<Symbol, MatchScratch>,
    /// Covering buckets per `(stream, next hop)`, over the forwarding
    /// entries only (local-delivery entries never covering-merge): the
    /// sublinear candidate source behind [`RoutingTable::insert_covering`].
    covers: HashMap<(Symbol, NodeId), CoverBucket>,
    /// Stream-free forwarding entries per hop: they belong to no
    /// `(stream, hop)` bucket yet are vacuously covered by *any*
    /// subscription, so the victim query must always consider them.
    streamless: HashMap<NodeId, Vec<u32>>,
    /// Scratch buffer of candidate slots, reused across
    /// [`RoutingTable::insert_covering`] calls.
    cover_scratch: Vec<u32>,
    /// Entry slots per owning subscription id, ascending — removal walks
    /// the owner's own entries instead of scanning the table.
    by_sub: HashMap<SubId, Vec<u32>>,
    dead: usize,
}

impl RoutingTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len() - self.dead
    }

    /// `true` when no live entries remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Live entries in installation order, as `(subscription, next hop)`.
    pub fn entries(&self) -> impl Iterator<Item = (&Subscription, Option<NodeId>)> {
        self.entries.iter().filter(|e| !e.dead).map(|e| (&e.sub, e.to))
    }

    /// Drops all entries and index state.
    pub fn clear(&mut self) {
        self.entries.clear();
        // A fresh map, not a cleared one: a snapshot may share the old.
        self.parts = Arc::default();
        self.scratch.clear();
        self.covers.clear();
        self.streamless.clear();
        self.by_sub.clear();
        self.dead = 0;
    }

    /// Installs an entry, extending every affected stream partition
    /// incrementally. `seq` is the owning subscription's installation
    /// sequence number: local deliveries are emitted in ascending `seq`,
    /// keeping delivery order stable across incremental removal and
    /// re-installation.
    pub fn insert(&mut self, sub: Subscription, to: Option<NodeId>, seq: u64) {
        let skel = SubSkeleton::of(&sub);
        self.insert_with(sub, &skel, to, seq);
    }

    /// [`RoutingTable::insert`] with the caller's precomputed skeleton —
    /// the broker's install walk derives each source's skeleton once and
    /// reuses it at every hop.
    pub fn insert_with(
        &mut self,
        sub: Subscription,
        skel: &SubSkeleton,
        to: Option<NodeId>,
        seq: u64,
    ) {
        let entry_id = u32::try_from(self.entries.len()).expect("routing table overflow");
        if let (Some(next), true) = (to, sub.streams.is_empty()) {
            // A stream-free forwarding entry joins no bucket but is
            // vacuously covered by anything: track it per hop so the
            // indexed victim query keeps matching the linear scan.
            self.streamless.entry(next).or_default().push(entry_id);
        }
        for (&stream, req) in &sub.streams {
            let index = Arc::make_mut(&mut self.parts).entry(stream).or_default();
            index.stamp += 1;
            let member_id = u32::try_from(index.members.len()).expect("partition overflow");
            let (indexable, residual) =
                skel.get(stream).map(|(i, r)| (i, r.to_vec())).unwrap_or_default();
            let target = u32::try_from(indexable.len()).expect("filter count overflow");
            if let Some(next) = to {
                // Forwarding entries join their (stream, hop) covering
                // bucket; local-delivery entries never covering-merge.
                // Threshold lists are built lazily, once the bucket
                // outgrows the whole-scan threshold (ForwardedSet::push
                // mirrors this policy per *set*, gating on raw record
                // count; here the backfill skips tombstoned entries).
                let bucket = self.covers.entry((stream, next)).or_default();
                if bucket.built {
                    bucket.insert(entry_id, indexable);
                } else if bucket.members.len() >= COVER_SCAN_SMALL {
                    bucket.built = true;
                    let staged: Vec<(u32, Vec<IndexableCmp>)> = std::mem::take(&mut bucket.members)
                        .into_iter()
                        .filter_map(|slot| {
                            let e = &self.entries[slot as usize];
                            if e.dead {
                                return None; // tombstones stay out of the lists
                            }
                            let comps = e
                                .sub
                                .streams
                                .get(&stream)
                                .map(|r| r.split_for_index(stream).0)
                                .unwrap_or_default();
                            Some((slot, comps))
                        })
                        .collect();
                    bucket.bulk_build(staged);
                    bucket.insert(entry_id, indexable);
                } else {
                    bucket.members.push(entry_id);
                }
            }
            for cmp in indexable {
                // NaN thresholds are unsatisfiable (every comparison with
                // NaN is false): they count toward `target` but never
                // enter a list, so the member simply can never match.
                if cmp.threshold.is_nan() {
                    continue;
                }
                let lists = match cmp.operand {
                    IndexOperand::Attr(attr) => {
                        match index.attr_lists.iter().position(|(a, _)| *a == attr) {
                            Some(l) => &mut index.attr_lists[l].1,
                            None => {
                                index.attr_lists.push((attr, OpLists::default()));
                                &mut index.attr_lists.last_mut().expect("just pushed").1
                            }
                        }
                    }
                    IndexOperand::Timestamp => &mut index.ts_lists,
                };
                lists.insert(cmp.op, cmp.threshold, member_id);
            }
            let needs = sub.needs(stream).expect("own stream always has needs");
            let action = match to {
                None => {
                    // Join (or open) the projection class for this exact
                    // retained-attribute set — the class's plan cache and
                    // per-message projected record are shared by every
                    // member requesting the same attributes.
                    let c = match index.classes.iter().position(|c| c == &req.projection) {
                        Some(c) => c,
                        None => {
                            index.classes.push(req.projection.clone());
                            index.classes.len() - 1
                        }
                    };
                    MemberAction::Local {
                        sub: sub.id,
                        class: u32::try_from(c).expect("projection class overflow"),
                    }
                }
                Some(next) => {
                    let g = match index.hops.iter().position(|h| h.to == next) {
                        Some(g) => {
                            let group = &mut index.hops[g];
                            group.union = group.union.union(&needs);
                            g
                        }
                        None => {
                            index.hops.push(HopGroup { to: next, union: needs });
                            index.hops.len() - 1
                        }
                    };
                    MemberAction::Hop(u32::try_from(g).expect("hop group overflow"))
                }
            };
            if target == 0 {
                index.zero_target.push(member_id);
            }
            index.member_of.insert(entry_id, member_id);
            index.members.push(Member { entry: entry_id, seq, target, residual, action });
        }
        self.by_sub.entry(sub.id).or_default().push(entry_id);
        self.entries.push(Entry { sub, to, seq, dead: false });
    }

    /// First-class incremental removal: tombstones every live entry of
    /// subscription `id` pointing `to` the given direction (all of them —
    /// one subscription can contribute several stream-restricted entries
    /// at a node toward the same hop). Hop-group unions and projection
    /// classes are updated only where the removed entries were members;
    /// the table compacts once tombstones dominate. Returns the number of
    /// entries removed.
    pub fn remove_entry(&mut self, id: SubId, to: Option<NodeId>) -> usize {
        // `by_sub` slots are ascending entry ids, so the victims come out
        // in table order — identical to the old whole-table scan.
        let victims: Vec<u32> = self
            .by_sub
            .get(&id)
            .into_iter()
            .flatten()
            .copied()
            .filter(|&v| {
                let e = &self.entries[v as usize];
                !e.dead && e.to == to
            })
            .collect();
        let n = victims.len();
        for v in victims {
            self.tombstone(v);
        }
        self.maybe_compact();
        n
    }

    /// Tombstones every live entry toward `downstream` for which `covered`
    /// holds (covering-based merge removal), returning the owning
    /// subscription ids of the dropped entries — the broker records them
    /// as covering dependencies so the victims are re-propagated if the
    /// coverer ever leaves. Hop-group unions are recomputed from the
    /// surviving members; threshold lists keep stale references that the
    /// dead members' targets neutralize, and the table compacts once
    /// tombstones outnumber live entries.
    pub fn remove_toward(
        &mut self,
        downstream: NodeId,
        mut covered: impl FnMut(&Subscription) -> bool,
    ) -> Vec<SubId> {
        let victims: Vec<u32> = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| !e.dead && e.to == Some(downstream) && covered(&e.sub))
            .map(|(i, _)| i as u32)
            .collect();
        let dropped: Vec<SubId> =
            victims.iter().map(|&v| self.entries[v as usize].sub.id).collect();
        for id in victims {
            self.tombstone(id);
        }
        self.maybe_compact();
        dropped
    }

    /// Covering-merged insert of a forwarding entry toward `to` — the
    /// sublinear twin of the broker's linear scan + [`RoutingTable::
    /// remove_toward`] sequence, answering both covering questions from
    /// the `(stream, hop)` buckets instead of walking the table:
    ///
    /// 1. **Skip** when a live same-direction entry covers `sub` (a
    ///    coverer must request every stream of `sub`, so the first
    ///    stream's bucket already contains every possible coverer); the
    ///    reported coverer is the first one in table order — identical to
    ///    the linear scan's answer.
    /// 2. Otherwise **drop** every live entry `sub` covers (a victim's
    ///    streams are a subset of `sub`'s, so the union of `sub`'s
    ///    per-stream buckets holds every possible victim), tombstone
    ///    them, and insert the entry.
    ///
    /// `covers(general, specific)` is the exact confirmation the
    /// candidate ranges are checked against. A subscription never skips
    /// or drops its own id: a multi-stream installation may revisit a hop
    /// once per source, and those sibling entries must coexist.
    pub fn insert_covering<F>(
        &mut self,
        sub: Subscription,
        to: NodeId,
        seq: u64,
        covers: F,
    ) -> ForwardInsert
    where
        F: Fn(&Subscription, &Subscription) -> bool,
    {
        let skel = SubSkeleton::of(&sub);
        self.insert_covering_with(sub, &skel, to, seq, covers)
    }

    /// [`RoutingTable::insert_covering`] with the caller's precomputed
    /// skeleton: the skip probe, the victim probes and the final insert
    /// all reuse the same per-stream split.
    pub fn insert_covering_with<F>(
        &mut self,
        sub: Subscription,
        skel: &SubSkeleton,
        to: NodeId,
        seq: u64,
        covers: F,
    ) -> ForwardInsert
    where
        F: Fn(&Subscription, &Subscription) -> bool,
    {
        if sub.streams.is_empty() {
            // Degenerate stream-free subscription: covering is vacuously
            // true against it and no bucket can index it — resolve by the
            // linear scan so both modes stay bit-identical.
            if let Some(by) = self
                .entries
                .iter()
                .find(|e| !e.dead && e.to == Some(to) && e.sub.id != sub.id && covers(&e.sub, &sub))
                .map(|e| e.sub.id)
            {
                return ForwardInsert::Skipped { by };
            }
            let id = sub.id;
            let dropped = self.remove_toward(to, |e| e.id != id && covers(&sub, e));
            self.insert_with(sub, skel, Some(to), seq);
            return ForwardInsert::Inserted { dropped };
        }
        // Candidate slots per bucket: an unbuilt (small) bucket is taken
        // whole — its member list is already in ascending slot order —
        // while a built bucket is range-probed. Either source yields a
        // superset of the true answers, so the confirmed result is the
        // same; only the candidate count differs. Returns whether the
        // candidates need re-sorting (range probes interleave lists).
        let probe_into = |bucket: &CoverBucket,
                          probe: &[IndexableCmp],
                          covered_query: bool,
                          out: &mut Vec<u32>|
         -> bool {
            if !bucket.built {
                out.extend_from_slice(&bucket.members);
                return false;
            }
            if covered_query {
                bucket.covered_candidates(probe, out);
            } else {
                bucket.coverer_candidates(probe, out);
            }
            true
        };
        let mut candidates = std::mem::take(&mut self.cover_scratch);
        candidates.clear();
        let (&s0, _) = sub.streams.iter().next().expect("non-empty streams");
        if let Some(bucket) = self.covers.get(&(s0, to)) {
            let probe0 = skel.get(s0).map(|(i, _)| i).unwrap_or(&[]);
            if probe_into(bucket, probe0, false, &mut candidates) {
                candidates.sort_unstable();
                candidates.dedup();
            }
            for &slot in &candidates {
                let e = &self.entries[slot as usize];
                if e.dead || e.to != Some(to) || e.sub.id == sub.id {
                    continue;
                }
                if covers(&e.sub, &sub) {
                    let by = e.sub.id;
                    self.cover_scratch = candidates;
                    return ForwardInsert::Skipped { by };
                }
            }
        }
        candidates.clear();
        let mut needs_sort = false;
        let mut buckets_probed = 0u32;
        for &s in sub.streams.keys() {
            if let Some(bucket) = self.covers.get(&(s, to)) {
                let probe = skel.get(s).map(|(i, _)| i).unwrap_or(&[]);
                needs_sort |= probe_into(bucket, probe, true, &mut candidates);
                buckets_probed += 1;
            }
        }
        if let Some(streamless) = self.streamless.get(&to) {
            candidates.extend_from_slice(streamless);
            buckets_probed += 1;
        }
        if needs_sort || buckets_probed > 1 {
            candidates.sort_unstable();
            candidates.dedup();
        }
        candidates.retain(|&slot| {
            let e = &self.entries[slot as usize];
            !e.dead && e.to == Some(to) && e.sub.id != sub.id && covers(&sub, &e.sub)
        });
        let dropped: Vec<SubId> =
            candidates.iter().map(|&v| self.entries[v as usize].sub.id).collect();
        for &v in &candidates {
            self.tombstone(v);
        }
        self.cover_scratch = candidates;
        self.maybe_compact();
        self.insert_with(sub, skel, Some(to), seq);
        ForwardInsert::Inserted { dropped }
    }

    fn tombstone(&mut self, entry_id: u32) {
        let entry = &mut self.entries[entry_id as usize];
        entry.dead = true;
        self.dead += 1;
        let id = entry.sub.id;
        let streams: Vec<Symbol> = entry.sub.streams.keys().copied().collect();
        if let Some(slots) = self.by_sub.get_mut(&id) {
            slots.retain(|&s| s != entry_id);
            if slots.is_empty() {
                self.by_sub.remove(&id);
            }
        }
        let parts = Arc::make_mut(&mut self.parts);
        for stream in streams {
            let Some(index) = parts.get_mut(&stream) else { continue };
            let Some(m) = index.member_of.remove(&entry_id) else { continue };
            let m = m as usize;
            if index.members[m].target == DEAD {
                continue;
            }
            index.stamp += 1;
            index.members[m].target = DEAD;
            index.dead_members += 1;
            index.zero_target.retain(|&z| z != m as u32);
            if let MemberAction::Hop(g) = index.members[m].action {
                // Recompute the union over surviving members of the group
                // (a union cannot be shrunk incrementally).
                let mut union: Option<StreamProjection> = None;
                for member in &index.members {
                    if member.target == DEAD
                        || !matches!(member.action, MemberAction::Hop(h) if h == g)
                    {
                        continue;
                    }
                    let needs = self.entries[member.entry as usize]
                        .sub
                        .needs(stream)
                        .expect("member stream always has needs");
                    union = Some(match union {
                        None => needs,
                        Some(u) => u.union(&needs),
                    });
                    if matches!(union, Some(StreamProjection::All)) {
                        break; // the union can grow no further
                    }
                }
                // A fully-emptied group keeps an empty union; it can never
                // be marked matched again (no member bumps it), and
                // compaction eventually drops it.
                index.hops[g as usize].union =
                    union.unwrap_or(StreamProjection::Attrs(Default::default()));
            }
            // Per-run sweep: once tombstones dominate the partition, drop
            // the dead members' list slots run-by-run — no table rebuild,
            // no cross-run memmove. The member records themselves stay
            // until the whole table compacts.
            if tombstones_dominate(index.dead_members, index.members.len()) {
                index.dead_members = 0;
                let Partition { members, attr_lists, ts_lists, .. } = index;
                for (_, lists) in attr_lists.iter_mut() {
                    lists.sweep_dead(members);
                }
                ts_lists.sweep_dead(members);
            }
        }
    }

    /// Rebuilds the table from its live entries once tombstones dominate,
    /// bounding memory and keeping threshold lists dense: stale threshold
    /// references disappear, dead hop groups and emptied projection
    /// classes are dropped, and survivors re-group. Sequence numbers are
    /// preserved, so observable delivery order is unchanged.
    fn maybe_compact(&mut self) {
        if !tombstones_dominate(self.dead, self.entries.len()) {
            return;
        }
        let live: Vec<(Subscription, Option<NodeId>, u64)> =
            self.entries.drain(..).filter(|e| !e.dead).map(|e| (e.sub, e.to, e.seq)).collect();
        self.clear();
        for (sub, to, seq) in live {
            self.insert(sub, to, seq);
        }
    }

    /// The value-row position of the first schema attribute carrying
    /// threshold lists in `stream`'s partition, if any. The batched
    /// publish plane sorts each batch by this attribute's value so the
    /// eq-list cursor walk ([`TieredList::for_eq_hinted`]) advances
    /// monotonically through the run directory.
    pub fn first_indexed_attr(&self, stream: Symbol, attrs: &[Symbol]) -> Option<usize> {
        let index = self.parts.get(&stream)?;
        attrs.iter().position(|a| index.attr_lists.iter().any(|(l, _)| l == a))
    }

    /// Matches one message at this table — a batch of one through
    /// [`Partition::match_batch`] — into `out`; identity forwards stay
    /// `None`. `from` suppresses the reverse hop.
    pub(crate) fn match_one(
        &mut self,
        msg: &Message,
        from: Option<NodeId>,
        out: &mut BatchMatchOutput,
    ) {
        out.clear();
        if let Some((part, scratch)) = self.partition(msg.stream) {
            let msgs = std::slice::from_ref(msg);
            part.match_batch(scratch, msgs, &[((), 0)], from, out, |_, _, _| {});
        }
    }

    /// The partition of `stream`, with this table's scratch for it.
    pub(crate) fn partition(&mut self, stream: Symbol) -> Option<(&Partition, &mut MatchScratch)> {
        let part = self.parts.get(&stream)?;
        Some((part, self.scratch.entry(stream).or_default()))
    }

    /// This table's partitions, for a snapshot to share.
    pub(crate) fn partitions(&self) -> &Arc<Partitions> {
        &self.parts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmos_query::{AttrRef, Predicate, Scalar};

    fn cmp(stream: &str, attr: &str, op: CmpOp, v: Scalar) -> Predicate {
        Predicate::Cmp { attr: AttrRef::new(stream, attr), op, value: v }
    }

    /// Test insert: the subscription id doubles as the sequence number,
    /// so delivery order matches insertion order as before.
    trait TestInsert {
        fn ins(&mut self, sub: Subscription, to: Option<NodeId>);
    }

    impl TestInsert for RoutingTable {
        fn ins(&mut self, sub: Subscription, to: Option<NodeId>) {
            let seq = sub.id.0;
            self.insert(sub, to, seq);
        }
    }

    fn sub(id: u64, filters: Vec<Predicate>) -> Subscription {
        Subscription::builder(NodeId(0))
            .id(SubId(id))
            .stream("R", StreamProjection::All, filters)
            .build()
    }

    /// One message matched through the kernel, identity forwards
    /// reconstituted as clones of the message.
    struct Matched {
        deliveries: Vec<(SubId, Message)>,
        forwards: Vec<(NodeId, Message)>,
    }

    fn match_message(table: &mut RoutingTable, msg: &Message, from: Option<NodeId>) -> Matched {
        let mut out = BatchMatchOutput::default();
        table.match_one(msg, from, &mut out);
        let forwards =
            out.forwards.into_iter().map(|(n, f)| (n, f.unwrap_or_else(|| msg.clone()))).collect();
        Matched { deliveries: out.deliveries, forwards }
    }

    fn gt_len(table: &RoutingTable, stream: Symbol, attr: Symbol) -> usize {
        let part = &table.parts[&stream];
        part.attr_lists.iter().find(|(a, _)| *a == attr).map_or(0, |(_, l)| l.gt.len())
    }

    fn local_matches(table: &mut RoutingTable, msg: &Message) -> Vec<SubId> {
        match_message(table, msg, None).deliveries.into_iter().map(|(s, _)| s).collect()
    }

    /// Pads the partition with entries whose thresholds can never match
    /// the test probes, so assertions run against non-trivial threshold
    /// lists rather than near-empty ones.
    fn pad(table: &mut RoutingTable) {
        for i in 0..25u64 {
            table
                .ins(sub(10_000 + i, vec![cmp("R", "a", CmpOp::Gt, Scalar::Int(1_000_000))]), None);
        }
    }

    #[test]
    fn counting_matches_all_operator_classes() {
        let mut table = RoutingTable::new();
        pad(&mut table);
        table.ins(sub(1, vec![cmp("R", "a", CmpOp::Gt, Scalar::Int(10))]), None);
        table.ins(sub(2, vec![cmp("R", "a", CmpOp::Ge, Scalar::Int(15))]), None);
        table.ins(sub(3, vec![cmp("R", "a", CmpOp::Lt, Scalar::Int(15))]), None);
        table.ins(sub(4, vec![cmp("R", "a", CmpOp::Le, Scalar::Int(15))]), None);
        table.ins(sub(5, vec![cmp("R", "a", CmpOp::Eq, Scalar::Int(15))]), None);
        table.ins(sub(6, vec![]), None);
        let ids = local_matches(&mut table, &Message::new("R", 0).with("a", Scalar::Int(15)));
        assert_eq!(ids, vec![SubId(1), SubId(2), SubId(4), SubId(5), SubId(6)]);
        let ids = local_matches(&mut table, &Message::new("R", 0).with("a", Scalar::Int(3)));
        assert_eq!(ids, vec![SubId(3), SubId(4), SubId(6)]);
    }

    #[test]
    fn conjunction_requires_every_indexed_predicate() {
        let mut table = RoutingTable::new();
        pad(&mut table);
        table.ins(
            sub(
                1,
                vec![
                    cmp("R", "a", CmpOp::Gt, Scalar::Int(10)),
                    cmp("R", "b", CmpOp::Lt, Scalar::Int(5)),
                ],
            ),
            None,
        );
        let hit = Message::new("R", 0).with("a", Scalar::Int(20)).with("b", Scalar::Int(1));
        let miss = Message::new("R", 0).with("a", Scalar::Int(20)).with("b", Scalar::Int(9));
        let missing = Message::new("R", 0).with("a", Scalar::Int(20));
        assert_eq!(local_matches(&mut table, &hit), vec![SubId(1)]);
        assert!(local_matches(&mut table, &miss).is_empty());
        assert!(local_matches(&mut table, &missing).is_empty(), "missing attr is false");
    }

    #[test]
    fn residual_predicates_gate_indexed_candidates() {
        // String equality is residual; numeric part is indexed.
        let mut table = RoutingTable::new();
        pad(&mut table);
        table.ins(
            sub(
                1,
                vec![
                    cmp("R", "a", CmpOp::Gt, Scalar::Int(10)),
                    cmp("R", "s", CmpOp::Eq, Scalar::Str("x".into())),
                ],
            ),
            None,
        );
        let hit =
            Message::new("R", 0).with("a", Scalar::Int(20)).with("s", Scalar::Str("x".into()));
        let miss =
            Message::new("R", 0).with("a", Scalar::Int(20)).with("s", Scalar::Str("y".into()));
        assert_eq!(local_matches(&mut table, &hit), vec![SubId(1)]);
        assert!(local_matches(&mut table, &miss).is_empty());
    }

    #[test]
    fn ne_and_foreign_relation_fall_back_to_residual() {
        let mut table = RoutingTable::new();
        pad(&mut table);
        table.ins(sub(1, vec![cmp("R", "a", CmpOp::Ne, Scalar::Int(7))]), None);
        // A filter qualified with a different relation can never hold.
        table.ins(sub(2, vec![cmp("S", "a", CmpOp::Gt, Scalar::Int(0))]), None);
        let ids = local_matches(&mut table, &Message::new("R", 0).with("a", Scalar::Int(3)));
        assert_eq!(ids, vec![SubId(1)]);
        assert!(
            local_matches(&mut table, &Message::new("R", 0).with("a", Scalar::Int(7))).is_empty()
        );
    }

    #[test]
    fn timestamp_predicates_are_indexed() {
        let mut table = RoutingTable::new();
        pad(&mut table);
        table.ins(sub(1, vec![cmp("R", "timestamp", CmpOp::Ge, Scalar::Int(1_000))]), None);
        assert!(local_matches(&mut table, &Message::new("R", 500)).is_empty());
        assert_eq!(local_matches(&mut table, &Message::new("R", 1_000)), vec![SubId(1)]);
    }

    #[test]
    fn float_int_mixing_matches_eval_semantics() {
        let mut table = RoutingTable::new();
        pad(&mut table);
        table.ins(sub(1, vec![cmp("R", "a", CmpOp::Eq, Scalar::Float(5.0))]), None);
        table.ins(sub(2, vec![cmp("R", "a", CmpOp::Gt, Scalar::Float(4.5))]), None);
        let ids = local_matches(&mut table, &Message::new("R", 0).with("a", Scalar::Int(5)));
        assert_eq!(ids, vec![SubId(1), SubId(2)]);
    }

    #[test]
    fn nan_threshold_never_matches() {
        let mut table = RoutingTable::new();
        pad(&mut table);
        table.ins(sub(1, vec![cmp("R", "a", CmpOp::Gt, Scalar::Float(f64::NAN))]), None);
        table.ins(sub(2, vec![]), None);
        let ids = local_matches(&mut table, &Message::new("R", 0).with("a", Scalar::Int(999)));
        assert_eq!(ids, vec![SubId(2)]);
    }

    #[test]
    fn tombstoned_entries_stop_matching_and_table_compacts() {
        let mut table = RoutingTable::new();
        for i in 0..40u64 {
            let mut s = sub(i, vec![cmp("R", "a", CmpOp::Gt, Scalar::Int(i as i64))]);
            s.subscriber = NodeId(9);
            table.ins(s, Some(NodeId(1)));
        }
        assert_eq!(table.len(), 40);
        table.remove_toward(NodeId(1), |s| s.id.0 % 2 == 0);
        assert_eq!(table.len(), 20, "every even entry removed");
        // Compaction triggered (tombstones > live): entries list is dense.
        assert_eq!(table.entries.len(), 20);
        let out =
            match_message(&mut table, &Message::new("R", 0).with("a", Scalar::Int(100)), None);
        assert_eq!(out.forwards.len(), 1, "one hop group toward node 1");
    }

    #[test]
    fn hop_union_shrinks_after_removal() {
        let mut table = RoutingTable::new();
        let narrow = Subscription::builder(NodeId(5))
            .id(SubId(1))
            .stream("R", StreamProjection::attrs(["a"]), vec![])
            .build();
        let wide = Subscription::builder(NodeId(6))
            .id(SubId(2))
            .stream("R", StreamProjection::attrs(["a", "b"]), vec![])
            .build();
        table.ins(narrow, Some(NodeId(1)));
        table.ins(wide, Some(NodeId(1)));
        let msg = Message::new("R", 0)
            .with("a", Scalar::Int(1))
            .with("b", Scalar::Int(2))
            .with("c", Scalar::Int(3));
        let out = match_message(&mut table, &msg, None);
        assert_eq!(out.forwards[0].1.len(), 2, "union {{a,b}} before removal");
        table.remove_toward(NodeId(1), |s| s.id == SubId(2));
        let out = match_message(&mut table, &msg, None);
        assert_eq!(out.forwards[0].1.len(), 1, "union shrinks to {{a}}");
    }

    #[test]
    fn remove_entry_removes_only_that_subscription() {
        let mut table = RoutingTable::new();
        pad(&mut table);
        table.ins(sub(1, vec![cmp("R", "a", CmpOp::Gt, Scalar::Int(10))]), None);
        table.ins(sub(2, vec![cmp("R", "a", CmpOp::Gt, Scalar::Int(10))]), None);
        let probe = Message::new("R", 0).with("a", Scalar::Int(20));
        assert_eq!(local_matches(&mut table, &probe), vec![SubId(1), SubId(2)]);
        assert_eq!(table.remove_entry(SubId(1), None), 1);
        assert_eq!(local_matches(&mut table, &probe), vec![SubId(2)]);
        // Removing again (or a different direction) is a no-op.
        assert_eq!(table.remove_entry(SubId(1), None), 0);
        assert_eq!(table.remove_entry(SubId(2), Some(NodeId(9))), 0);
        assert_eq!(local_matches(&mut table, &probe), vec![SubId(2)]);
    }

    #[test]
    fn remove_entry_compacts_threshold_lists() {
        let mut table = RoutingTable::new();
        for i in 0..40u64 {
            table.ins(sub(i, vec![cmp("R", "a", CmpOp::Gt, Scalar::Int(i as i64))]), None);
        }
        let stream: Symbol = "R".into();
        let attr: Symbol = "a".into();
        assert_eq!(gt_len(&table, stream, attr), 40);
        // Tombstone one at a time: the dead flags keep the stale threshold
        // references inert, and once tombstones reach half the table (at
        // the 20th removal) compaction rebuilds the lists dense. The last
        // 4 removals sit below the tombstone threshold again.
        for i in 0..24u64 {
            assert_eq!(table.remove_entry(SubId(i), None), 1);
        }
        assert_eq!(table.len(), 16);
        assert_eq!(table.entries.len(), 20, "compacted at tombstone majority; 4 tombstones since");
        assert_eq!(
            gt_len(&table, stream, attr),
            20,
            "threshold list rebuilt dense at compaction (was 40)"
        );
        let ids = local_matches(&mut table, &Message::new("R", 0).with("a", Scalar::Int(100)));
        assert_eq!(ids, (24..40).map(SubId).collect::<Vec<_>>());
    }

    #[test]
    fn hop_union_shrinks_after_remove_entry() {
        let mut table = RoutingTable::new();
        let narrow = Subscription::builder(NodeId(5))
            .id(SubId(1))
            .stream("R", StreamProjection::attrs(["a"]), vec![])
            .build();
        let wide = Subscription::builder(NodeId(6))
            .id(SubId(2))
            .stream("R", StreamProjection::attrs(["a", "b"]), vec![])
            .build();
        table.ins(narrow, Some(NodeId(1)));
        table.ins(wide, Some(NodeId(1)));
        let msg = Message::new("R", 0)
            .with("a", Scalar::Int(1))
            .with("b", Scalar::Int(2))
            .with("c", Scalar::Int(3));
        assert_eq!(match_message(&mut table, &msg, None).forwards[0].1.len(), 2);
        // First-class removal of the wide member shrinks the union to {a};
        // only this hop group is recomputed.
        assert_eq!(table.remove_entry(SubId(2), Some(NodeId(1))), 1);
        let out = match_message(&mut table, &msg, None);
        assert_eq!(out.forwards[0].1.len(), 1, "union shrinks to {{a}}");
        // Removing the last member silences the hop entirely.
        assert_eq!(table.remove_entry(SubId(1), Some(NodeId(1))), 1);
        assert!(match_message(&mut table, &msg, None).forwards.is_empty());
    }

    #[test]
    fn projection_class_regroups_when_a_class_empties() {
        let mut table = RoutingTable::new();
        let local = |id: u64, proj: StreamProjection| {
            Subscription::builder(NodeId(0)).id(SubId(id)).stream("R", proj, vec![]).build()
        };
        // 40 members keep {a}; 18 keep {b}: two projection classes.
        for i in 0..40u64 {
            table.ins(local(i, StreamProjection::attrs(["a"])), None);
        }
        for i in 40..58u64 {
            table.ins(local(i, StreamProjection::attrs(["b"])), None);
        }
        let stream: Symbol = "R".into();
        assert_eq!(table.parts[&stream].classes.len(), 2);
        // Empty the {b} class entirely, then shed enough {a} members that
        // tombstones reach half the table: compaction re-groups and the
        // emptied class is not reopened.
        for i in 40..58u64 {
            assert_eq!(table.remove_entry(SubId(i), None), 1);
        }
        assert_eq!(table.parts[&stream].classes.len(), 2, "emptied class lingers as a tombstone");
        for i in 0..11u64 {
            assert_eq!(table.remove_entry(SubId(i), None), 1);
        }
        assert_eq!(table.len(), 29);
        assert_eq!(
            table.parts[&stream].classes.len(),
            1,
            "emptied projection class dropped at re-grouping"
        );
        let msg = Message::new("R", 0).with("a", Scalar::Int(7)).with("b", Scalar::Int(8));
        let out = match_message(&mut table, &msg, None);
        assert_eq!(out.deliveries.len(), 29);
        assert!(out.deliveries.iter().all(|(_, m)| m.len() == 1), "survivors still get {{a}}");
        let ids: Vec<SubId> = out.deliveries.iter().map(|(s, _)| *s).collect();
        assert_eq!(ids, (11..40).map(SubId).collect::<Vec<_>>(), "order preserved");
    }

    #[test]
    fn reverse_hop_is_suppressed() {
        let mut table = RoutingTable::new();
        let mut s = sub(1, vec![]);
        s.subscriber = NodeId(9);
        table.ins(s, Some(NodeId(3)));
        let msg = Message::new("R", 0);
        assert_eq!(match_message(&mut table, &msg, None).forwards.len(), 1);
        assert!(match_message(&mut table, &msg, Some(NodeId(3))).forwards.is_empty());
    }

    /// The routing-covering form the broker confirms candidates with
    /// (covering plus needs preservation) — mirrored here so the index
    /// tests exercise `insert_covering` under the real predicate.
    fn rcovers(general: &Subscription, specific: &Subscription) -> bool {
        general.covers(specific)
            && specific.streams.keys().all(|&s| match (general.needs(s), specific.needs(s)) {
                (Some(g), Some(sp)) => g.covers(&sp),
                _ => false,
            })
    }

    /// Fills a bucket toward `hop` past the small-bucket scan threshold
    /// with entries whose `a > 1_000_000` filter never covers (or is
    /// covered by) the probes the tests use, forcing the range-probe
    /// path rather than the whole-bucket scan.
    fn pad_bucket(table: &mut RoutingTable, hop: NodeId, base: u64) {
        for i in 0..40u64 {
            table.ins(
                sub(base + i, vec![cmp("R", "a", CmpOp::Gt, Scalar::Int(1_000_000))]),
                Some(hop),
            );
        }
    }

    #[test]
    fn insert_covering_skips_under_first_coverer_in_table_order() {
        let mut table = RoutingTable::new();
        let hop = NodeId(1);
        table.ins(sub(1, vec![cmp("R", "a", CmpOp::Gt, Scalar::Int(3))]), Some(hop));
        table.ins(sub(2, vec![cmp("R", "a", CmpOp::Gt, Scalar::Int(4))]), Some(hop));
        pad_bucket(&mut table, hop, 10_000);
        // Covered by both real entries: the skip must report the first
        // one in table order, exactly as the linear scan would.
        let narrow = sub(3, vec![cmp("R", "a", CmpOp::Gt, Scalar::Int(10))]);
        match table.insert_covering(narrow, hop, 3, rcovers) {
            ForwardInsert::Skipped { by } => assert_eq!(by, SubId(1)),
            other => panic!("expected a covering skip, got {other:?}"),
        }
        assert_eq!(table.len(), 42, "skipped insert leaves the table unchanged");
        // A filter-free (loose) entry covers everything same-direction,
        // and the loose list surfaces it past the range probes.
        let mut table = RoutingTable::new();
        table.ins(sub(7, vec![]), Some(hop));
        pad_bucket(&mut table, hop, 10_000);
        match table.insert_covering(
            sub(8, vec![cmp("R", "a", CmpOp::Eq, Scalar::Int(5))]),
            hop,
            8,
            rcovers,
        ) {
            ForwardInsert::Skipped { by } => assert_eq!(by, SubId(7)),
            other => panic!("expected the loose entry to cover, got {other:?}"),
        }
    }

    #[test]
    fn insert_covering_drops_exactly_the_covered_victims() {
        let mut table = RoutingTable::new();
        let hop = NodeId(1);
        // A covering-sparse point population (large enough to force the
        // range-probe path) plus one out-of-range entry.
        for i in 0..60u64 {
            table.ins(sub(i, vec![cmp("R", "a", CmpOp::Eq, Scalar::Int(i as i64))]), Some(hop));
        }
        table.ins(sub(99, vec![cmp("R", "a", CmpOp::Lt, Scalar::Int(-50))]), Some(hop));
        // `a > 9` covers the point entries 10..60 but not 0..10 and not
        // the `a < -50` entry.
        let broad = sub(500, vec![cmp("R", "a", CmpOp::Gt, Scalar::Int(9))]);
        match table.insert_covering(broad, hop, 500, rcovers) {
            ForwardInsert::Inserted { dropped } => {
                assert_eq!(dropped, (10..60).map(SubId).collect::<Vec<_>>(), "table order");
            }
            other => panic!("expected an insert, got {other:?}"),
        }
        assert_eq!(table.len(), 12, "10 points + a<-50 + the new entry survive");
    }

    #[test]
    fn insert_covering_never_drops_or_skips_its_own_id() {
        // The broker installs one restricted entry per advertised source
        // under the same id; when their paths share a hop the sibling
        // entries must coexist even if one would cover the other.
        let mut table = RoutingTable::new();
        let hop = NodeId(1);
        table.ins(sub(1, vec![cmp("R", "a", CmpOp::Gt, Scalar::Int(10))]), Some(hop));
        let weaker = sub(1, vec![cmp("R", "a", CmpOp::Gt, Scalar::Int(0))]);
        match table.insert_covering(weaker, hop, 1, rcovers) {
            ForwardInsert::Inserted { dropped } => assert!(dropped.is_empty()),
            other => panic!("self-covering must not skip: {other:?}"),
        }
        assert_eq!(table.len(), 2, "both same-id entries live");
        // And the stronger sibling arriving second is not skipped either.
        let stronger = sub(1, vec![cmp("R", "a", CmpOp::Gt, Scalar::Int(20))]);
        match table.insert_covering(stronger, hop, 1, rcovers) {
            ForwardInsert::Inserted { dropped } => assert!(dropped.is_empty()),
            other => panic!("self-covering must not skip: {other:?}"),
        }
        assert_eq!(table.len(), 3);
    }

    #[test]
    fn negative_zero_thresholds_cover_symmetrically() {
        // -0.0 and 0.0 compare equal numerically, so `a > -0.0` and
        // `a > 0.0` cover each other; the buckets normalize both to +0.0
        // so the total_cmp-ordered range probes cannot miss the pair.
        for (first, second) in [(0.0f64, -0.0f64), (-0.0, 0.0)] {
            let mut table = RoutingTable::new();
            let hop = NodeId(1);
            table.ins(sub(1, vec![cmp("R", "a", CmpOp::Gt, Scalar::Float(first))]), Some(hop));
            pad_bucket(&mut table, hop, 10_000);
            let twin = sub(2, vec![cmp("R", "a", CmpOp::Gt, Scalar::Float(second))]);
            match table.insert_covering(twin, hop, 2, rcovers) {
                ForwardInsert::Skipped { by } => assert_eq!(by, SubId(1)),
                other => panic!("signed-zero twin must be covered, got {other:?}"),
            }
        }
    }

    #[test]
    fn nan_threshold_entry_is_covered_by_filterless() {
        // A NaN threshold is unsatisfiable: it implies nothing (so the
        // entry can cover no one) but a filter-free subscription still
        // covers *it* — the member list must surface it as a victim even
        // though no threshold list contains it.
        let mut table = RoutingTable::new();
        let hop = NodeId(1);
        table.ins(sub(1, vec![cmp("R", "a", CmpOp::Gt, Scalar::Float(f64::NAN))]), Some(hop));
        match table.insert_covering(sub(2, vec![]), hop, 2, rcovers) {
            ForwardInsert::Inserted { dropped } => assert_eq!(dropped, vec![SubId(1)]),
            other => panic!("expected the NaN entry dropped, got {other:?}"),
        }
        // And the NaN entry itself never drops or skips anyone.
        let mut table = RoutingTable::new();
        table.ins(sub(3, vec![cmp("R", "a", CmpOp::Gt, Scalar::Int(5))]), Some(hop));
        let nan = sub(4, vec![cmp("R", "a", CmpOp::Gt, Scalar::Float(f64::NAN))]);
        match table.insert_covering(nan, hop, 4, rcovers) {
            ForwardInsert::Inserted { dropped } => assert!(dropped.is_empty()),
            other => panic!("a NaN probe covers no one, got {other:?}"),
        }
    }

    #[test]
    fn stream_free_subscription_falls_back_to_the_linear_answer() {
        // A subscription with no streams is vacuously covered by any live
        // entry; no bucket can index it, so both covering paths must
        // agree via the linear fallback.
        let hop = NodeId(1);
        let empty = |id: u64| Subscription::builder(NodeId(0)).id(SubId(id)).build();
        let mut table = RoutingTable::new();
        table.ins(sub(1, vec![cmp("R", "a", CmpOp::Gt, Scalar::Int(5))]), Some(hop));
        match table.insert_covering(empty(9), hop, 9, rcovers) {
            ForwardInsert::Skipped { by } => assert_eq!(by, SubId(1), "first live entry covers"),
            other => panic!("expected the vacuous cover, got {other:?}"),
        }
        let mut set = ForwardedSet::default();
        set.push(sub(1, vec![cmp("R", "a", CmpOp::Gt, Scalar::Int(5))]));
        assert_eq!(set.find_coverer(&empty(9), rcovers), Some(SubId(1)));
        assert_eq!(
            set.find_coverer(&empty(9), rcovers),
            set.find_coverer_linear(&empty(9), rcovers)
        );
    }

    #[test]
    fn stream_free_entry_is_dropped_as_a_victim() {
        // A stream-free forwarding entry joins no bucket, but any
        // subscription vacuously covers it — the indexed victim query
        // must drop it exactly as the linear scan would.
        let hop = NodeId(1);
        let empty = |id: u64| Subscription::builder(NodeId(0)).id(SubId(id)).build();
        let mut table = RoutingTable::new();
        table.ins(empty(1), Some(hop));
        match table.insert_covering(
            sub(2, vec![cmp("R", "a", CmpOp::Gt, Scalar::Int(5))]),
            hop,
            2,
            rcovers,
        ) {
            ForwardInsert::Inserted { dropped } => assert_eq!(dropped, vec![SubId(1)]),
            other => panic!("expected the stream-free entry dropped, got {other:?}"),
        }
        assert_eq!(table.len(), 1, "only the new entry survives");
    }

    #[test]
    fn forwarded_set_agrees_with_its_linear_twin() {
        let mut set = ForwardedSet::default();
        assert!(set.is_empty());
        set.push(sub(1, vec![cmp("R", "a", CmpOp::Gt, Scalar::Int(20))]));
        set.push(sub(2, vec![cmp("R", "a", CmpOp::Gt, Scalar::Int(5))]));
        set.push(sub(3, vec![]));
        // Push the set past the small-scan threshold so the probes below
        // exercise the bucket ranges, with records that cover none of
        // them.
        for i in 0..40u64 {
            set.push(sub(10_000 + i, vec![cmp("R", "a", CmpOp::Gt, Scalar::Int(1_000_000))]));
        }
        for probe in [
            sub(10, vec![cmp("R", "a", CmpOp::Gt, Scalar::Int(30))]), // covered by 1, 2, 3
            sub(11, vec![cmp("R", "a", CmpOp::Gt, Scalar::Int(7))]),  // covered by 2, 3
            sub(12, vec![cmp("R", "b", CmpOp::Lt, Scalar::Int(0))]),  // covered by 3 only
            sub(13, vec![]),                                          // covered by 3 only
        ] {
            let indexed = set.find_coverer(&probe, rcovers);
            let linear = set.find_coverer_linear(&probe, rcovers);
            assert_eq!(indexed, linear, "divergence on probe {:?}", probe.id);
            assert!(indexed.is_some());
        }
        // A record never covers its own id (re-installation of the same
        // subscription must not be pruned by its stale self): only the
        // loose record 3 covers a `b`-filtered probe, so probing *as*
        // id 3 finds nothing.
        let own = sub(3, vec![cmp("R", "b", CmpOp::Lt, Scalar::Int(0))]);
        assert_eq!(set.find_coverer(&own, rcovers), set.find_coverer_linear(&own, rcovers));
        assert_eq!(set.find_coverer(&own, rcovers), None, "only the same id covers this probe");
    }

    #[test]
    fn forwarded_set_removal_tombstones_and_compacts() {
        let mut set = ForwardedSet::default();
        for i in 0..40u64 {
            set.push(sub(i, vec![cmp("R", "a", CmpOp::Gt, Scalar::Int(i as i64))]));
        }
        assert_eq!(set.len(), 40);
        for i in 0..24u64 {
            assert_eq!(set.remove(SubId(i)), 1);
        }
        assert_eq!(set.remove(SubId(5)), 0, "already removed");
        assert_eq!(set.len(), 16);
        assert_eq!(set.records.len(), 20, "compacted at tombstone majority; 4 tombstones since");
        let probe = sub(90, vec![cmp("R", "a", CmpOp::Gt, Scalar::Int(100))]);
        assert_eq!(set.find_coverer(&probe, rcovers), Some(SubId(24)), "first survivor covers");
        assert_eq!(set.find_coverer(&probe, rcovers), set.find_coverer_linear(&probe, rcovers));
        assert_eq!(set.iter().count(), 16);
    }
}
