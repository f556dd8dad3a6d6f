//! Small statistics helpers: percentiles that refuse thin tails, and the
//! order-sensitive digest the oracles compare result streams by.

use cosmos_query::{Record, Scalar};

/// A latency (or other) distribution summary: the median and the chosen
/// high percentile, with the sample count behind both.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dist {
    /// Samples summarized.
    pub samples: usize,
    /// Median.
    pub p50: f64,
    /// The `q`-th percentile (see [`percentile`]).
    pub high: f64,
}

/// The nearest-rank `q`-quantile (`0 < q < 1`) of `sorted`, or `None` when
/// fewer than ten samples lie beyond it: a tail percentile read from a
/// handful of samples is one sample's accident, not a distribution.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "quantile must lie in (0, 1), got {q}");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "samples must be sorted");
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if rank > n || n - rank < 10 {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Sorts `samples` and summarizes them at the median and `q`.
///
/// # Errors
///
/// Returns a message naming the shortfall when the sample is too small
/// for the `q`-th percentile.
pub fn summarize(mut samples: Vec<f64>, q: f64) -> Result<Dist, String> {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    let p50 = percentile(&samples, 0.5);
    let high = percentile(&samples, q);
    match (p50, high) {
        (Some(p50), Some(high)) => Ok(Dist { samples: n, p50, high }),
        _ => Err(format!(
            "{n} samples leave fewer than ten beyond the {}th percentile",
            (q * 100.0).round()
        )),
    }
}

/// Splits a time-ordered sample into `blocks` contiguous blocks,
/// summarizes each at the median and `q`, and returns the median of each
/// across blocks, with the per-block sample count. A stall from outside
/// the program inflates the tail of one block, not the reported value.
///
/// # Errors
///
/// Returns [`summarize`]'s message when a block is too small for `q`.
pub fn blocked(samples: &[f64], blocks: usize, q: f64) -> Result<Dist, String> {
    if blocks == 0 {
        return Err(format!("{} samples fill no block", samples.len()));
    }
    let per = samples.len() / blocks;
    let mut p50s = Vec::with_capacity(blocks);
    let mut highs = Vec::with_capacity(blocks);
    for b in samples.chunks_exact(per.max(1)).take(blocks) {
        let d = summarize(b.to_vec(), q)?;
        p50s.push(d.p50);
        highs.push(d.high);
    }
    if p50s.len() < blocks {
        return Err(format!("{} samples cannot fill {blocks} blocks", samples.len()));
    }
    Ok(Dist { samples: per, p50: median(&p50s), high: median(&highs) })
}

/// Median of an unsorted sample (mean of the middle two for even sizes).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Population standard deviation.
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    (xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Order-sensitive FNV-1a digest of a record sequence: stream, timestamp,
/// attribute names and values of every record, in order, plus the count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// Records folded in.
    pub count: u64,
    /// Running hash.
    pub hash: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Self { count: 0, hash: 0xcbf2_9ce4_8422_2325 }
    }
}

impl Digest {
    #[inline]
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds one record in.
    pub fn add(&mut self, r: &Record) {
        self.count += 1;
        self.word(r.stream.as_str().len() as u64);
        for b in r.stream.as_str().bytes() {
            self.word(u64::from(b));
        }
        self.word(r.timestamp as u64);
        for (name, v) in r.iter() {
            for b in name.as_str().bytes() {
                self.word(u64::from(b));
            }
            match v {
                Scalar::Int(i) => self.word(*i as u64),
                Scalar::Float(f) => self.word(f.to_bits()),
                Scalar::Str(s) => {
                    for b in s.bytes() {
                        self.word(u64::from(b));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_thin_tails() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(50.0));
        assert_eq!(percentile(&xs, 0.9), Some(90.0), "exactly ten beyond the 90th");
        assert_eq!(percentile(&xs, 0.95), None, "five beyond the 95th");
        assert_eq!(percentile(&xs, 0.99), None);
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&big, 0.99), Some(990.0), "ten beyond at 1000 samples");
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&short, 0.99), None, "nine beyond at 999 samples");
        assert!(summarize((0..50).map(f64::from).collect(), 0.99).is_err());
        let two_blocks: Vec<f64> = (0..2020).map(f64::from).collect();
        let d = blocked(&two_blocks, 2, 0.99).expect("1010 per block");
        assert_eq!(d.samples, 1010);
        assert!(blocked(&two_blocks, 3, 0.99).is_err(), "673 per block is too few");
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn digest_is_order_sensitive() {
        let a = Record::new("S", 1).with("v", Scalar::Int(1));
        let b = Record::new("S", 2).with("v", Scalar::Int(1));
        let (mut x, mut y) = (Digest::default(), Digest::default());
        x.add(&a);
        x.add(&b);
        y.add(&b);
        y.add(&a);
        assert_ne!(x, y);
        assert_eq!(x.count, 2);
    }
}
