//! In-memory span recorder for the traced run.
//!
//! A span is opened around each call the benchmark makes into a crate's
//! public API. Self time (span time minus the time covered by child spans)
//! is aggregated per layer as spans close, so it is exact for every span
//! of the run; the spans themselves are kept in memory up to a cap and
//! written out as JSON lines when the run ends.
//!
//! With tracing off, `begin`/`end` do nothing but test a flag, so the
//! untraced runs that give the end-to-end metrics pay no clock reads.

use std::io::Write;
use std::time::Instant;

/// The layers a span can be recorded for: one per crate boundary the
/// benchmark calls across, plus the workload-level roots whose self time
/// is the benchmark's own glue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Root: one source record through publish, engines and results.
    Record,
    /// Root: one query arrival (parse, place, subscribe, host).
    Arrive,
    /// Root: one query departure (unsubscribe, unhost).
    Depart,
    /// Root: one adaptation round (optimizer plus migrations).
    Round,
    /// Root: one fault-plane step (publishes, fault step, settle).
    Step,
    /// `core::online` `OnlineRouter::insert`.
    OnlineInsert,
    /// `core::online` `OnlineRouter::new` + `seed_from`.
    OnlineSeed,
    /// `core::incremental` `IncrementalOptimizer::round`.
    CoreRound,
    /// `query::parser` `parse_query`.
    Parse,
    /// `pubsub::broker` `subscribe` (and result-stream `advertise`).
    Subscribe,
    /// `pubsub::broker` `unsubscribe`.
    Unsubscribe,
    /// Broker `publish` of a source record.
    Publish,
    /// Broker `publish` of a result record.
    ResultPublish,
    /// `RecoveryNetwork::publish` of a source record (lossy plane).
    LossyPublish,
    /// `pubsub::recovery` `settle`.
    Settle,
    /// `RecoverySim::fault_step` (crash or restore with replay).
    FaultStep,
    /// `engine::exec` `StreamEngine::push`.
    Push,
    /// `ResultTuple::project_compiled`.
    Project,
    /// `StreamEngine::add_query` / `remove_query`.
    HostMove,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 19] = [
        Layer::Record,
        Layer::Arrive,
        Layer::Depart,
        Layer::Round,
        Layer::Step,
        Layer::OnlineInsert,
        Layer::OnlineSeed,
        Layer::CoreRound,
        Layer::Parse,
        Layer::Subscribe,
        Layer::Unsubscribe,
        Layer::Publish,
        Layer::ResultPublish,
        Layer::LossyPublish,
        Layer::Settle,
        Layer::FaultStep,
        Layer::Push,
        Layer::Project,
        Layer::HostMove,
    ];

    /// The span name: `<crate>.<call>`, `workload.*` for roots.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Record => "workload.record",
            Layer::Arrive => "workload.arrive",
            Layer::Depart => "workload.depart",
            Layer::Round => "workload.round",
            Layer::Step => "workload.step",
            Layer::OnlineInsert => "core.online_insert",
            Layer::OnlineSeed => "core.online_seed",
            Layer::CoreRound => "core.round",
            Layer::Parse => "query.parse",
            Layer::Subscribe => "pubsub.subscribe",
            Layer::Unsubscribe => "pubsub.unsubscribe",
            Layer::Publish => "pubsub.publish",
            Layer::ResultPublish => "pubsub.result_publish",
            Layer::LossyPublish => "pubsub.lossy_publish",
            Layer::Settle => "pubsub.settle",
            Layer::FaultStep => "pubsub.fault_step",
            Layer::Push => "engine.push",
            Layer::Project => "engine.project",
            Layer::HostMove => "engine.host_move",
        }
    }
}

/// Per-layer totals over every closed span.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotal {
    /// Spans closed.
    pub count: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of span durations minus their children's.
    pub self_ns: u64,
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Which layer.
    pub layer: Layer,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the parent span in the kept list (`None` for roots, or
    /// when the parent was past the cap).
    pub parent: Option<u32>,
    /// Shared id of the source record, query operation or round.
    pub id: u64,
}

struct Open {
    layer: Layer,
    start_ns: u64,
    child_ns: u64,
    /// Index in the kept list, `None` past the cap.
    kept: Option<u32>,
    id: u64,
}

/// Spans kept in memory for write-out; totals cover every span.
pub const SPAN_CAP: usize = 100_000;

/// A token returned by [`Tracer::begin`]; pass it to [`Tracer::end`].
#[must_use]
pub struct Token(bool);

/// The span recorder. Single-threaded: the benchmark drives every crate
/// from one thread.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    stack: Vec<Open>,
    totals: [LayerTotal; Layer::ALL.len()],
    spans: Vec<Span>,
    root_ns: u64,
    dropped: u64,
}

impl Tracer {
    /// A recorder; with `on == false` every call is a no-op. At most
    /// [`SPAN_CAP`] spans are kept for write-out; totals cover every span.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            stack: Vec::new(),
            totals: [LayerTotal::default(); Layer::ALL.len()],
            spans: Vec::new(),
            root_ns: 0,
            dropped: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span of `layer`. A root takes `id`; a child inherits its
    /// parent's id and ignores the argument.
    #[inline]
    pub fn begin(&mut self, layer: Layer, id: u64) -> Token {
        if !self.on {
            return Token(false);
        }
        let (id, parent) = self.stack.last().map_or((id, None), |p| (p.id, p.kept));
        let start_ns = self.now_ns();
        let kept = (self.spans.len() < SPAN_CAP).then(|| {
            self.spans.push(Span { layer, start_ns, end_ns: start_ns, parent, id });
            (self.spans.len() - 1) as u32
        });
        self.stack.push(Open { layer, start_ns, child_ns: 0, kept, id });
        Token(true)
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if no span is open (a begin/end mismatch in the benchmark).
    #[inline]
    pub fn end(&mut self, token: Token) {
        if !token.0 {
            return;
        }
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("span end without a matching begin");
        let dur = end_ns - open.start_ns;
        let t = &mut self.totals[open.layer as usize];
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(open.child_ns);
        match self.stack.last_mut() {
            Some(parent) => parent.child_ns += dur,
            None => self.root_ns += dur,
        }
        match open.kept {
            Some(k) => self.spans[k as usize].end_ns = end_ns,
            None => self.dropped += 1,
        }
    }

    /// Times `f` as a span of `layer` (a child of the innermost open span).
    #[inline]
    pub fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let tok = self.begin(layer, 0);
        let r = f();
        self.end(tok);
        r
    }

    /// Totals of one layer.
    pub fn total(&self, layer: Layer) -> LayerTotal {
        self.totals[layer as usize]
    }

    /// Time covered by spans opened with no parent: traced wall time minus
    /// this is the time no span covers.
    pub fn root_ns(&self) -> u64 {
        self.root_ns
    }

    /// Spans kept, and spans past the cap.
    pub fn kept(&self) -> (usize, u64) {
        (self.spans.len(), self.dropped)
    }

    /// Writes the kept spans as JSON lines.
    pub fn write_jsonl(&self, w: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"idx\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                s.id
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_links_parents() {
        let mut t = Tracer::new(true);
        let root = t.begin(Layer::Record, 7);
        let child = t.begin(Layer::Publish, 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(child);
        t.end(root);
        let r = t.total(Layer::Record);
        let c = t.total(Layer::Publish);
        assert_eq!((r.count, c.count), (1, 1));
        assert!(r.total_ns >= c.total_ns);
        assert_eq!(r.self_ns, r.total_ns - c.total_ns);
        assert_eq!(t.spans[1].parent, Some(0), "child points at its parent");
        assert_eq!(t.spans[1].id, 7, "children share the root's id");
        assert_eq!(t.root_ns(), r.total_ns);
        let lone = t.begin(Layer::OnlineSeed, 8);
        t.end(lone);
        let s = t.total(Layer::OnlineSeed);
        assert_eq!(t.root_ns(), r.total_ns + s.total_ns, "a parentless span is covered time");
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let tok = t.begin(Layer::Record, 1);
        t.end(tok);
        assert_eq!(t.total(Layer::Record).count, 0);
        assert_eq!(t.kept(), (0, 0));
    }
}
