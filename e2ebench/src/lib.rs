//! End-to-end COSMOS benchmark.
//!
//! One command builds a §4.2-style world from a seed, places its queries
//! with `cosmos-core`, realizes the placement on the real `cosmos-pubsub`
//! broker and `cosmos-engine` engines, and drives one of three workloads:
//!
//! - [`sensor`] (`sensor-stream`): the data plane does the work;
//! - [`churn`] (`query-churn`): the optimizer and subscription churn do;
//! - [`faulty`] (`faulty-stream`): reliable delivery, checkpointing and
//!   replay do.
//!
//! Everything runs on one thread and calls only public functions of the
//! crates. Run length is fixed in records and operations (scaled by
//! `--seconds`), never in wall time, so the deterministic metrics repeat
//! exactly for a given seed. See `README.md` for the metric map.

pub mod churn;
pub mod faulty;
pub mod oracle;
pub mod report;
pub mod sensor;
pub mod stats;
pub mod trace;
pub mod world;

use std::path::PathBuf;
use trace::Tracer;
use world::Scale;

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload name (for file names).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Run-length scale: records and operations per run are fixed
    /// multiples of this.
    pub seconds: u64,
    /// Record spans (the traced run).
    pub trace: bool,
    /// World sizes.
    pub scale: Scale,
    /// Where a traced run writes its spans (`None`: not written).
    pub span_dir: Option<PathBuf>,
}

impl RunConfig {
    /// Writes the tracer's kept spans to
    /// `<span_dir>/spans-<workload>-seed<seed>.jsonl` when tracing.
    pub fn write_spans(&self, t: &Tracer) {
        let (Some(dir), true) = (&self.span_dir, t.is_on()) else { return };
        let path = dir.join(format!("spans-{}-seed{}.jsonl", self.workload, self.seed));
        let written = std::fs::create_dir_all(dir).and_then(|()| {
            let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
            t.write_jsonl(&mut w)?;
            std::io::Write::flush(&mut w)
        });
        match written {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }
}
