//! The benchmark's own arithmetic: order statistics, the tail-percentile
//! rule and failure accounting.

/// Samples a tail percentile must have strictly beyond its rank.
pub const TAIL_BEYOND: usize = 10;
/// Highest quantile a tail is read at. Further out, the few samples beyond
/// the tail in one run come from a handful of bursts and host stalls, and
/// the value does not repeat from run to run.
pub const TAIL_MAX_Q: f64 = 0.95;

/// Median, quartiles and tail of one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Median (linear interpolation between order statistics).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Quantile of the tail value, as a fraction (`1.0` = the maximum).
    pub tail_q: f64,
    /// The tail value: see [`tail`].
    pub tail: f64,
    /// Samples strictly beyond the tail rank (at least `TAIL_BEYOND`, or 0
    /// when the sample is too small to have a tail and the maximum stands
    /// in).
    pub beyond: usize,
}

/// Linear-interpolation quantile of ascending data (`q` in `[0, 1]`).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The highest nearest-rank percentile, at most [`TAIL_MAX_Q`], that still
/// has [`TAIL_BEYOND`] samples above it: rank `min(ceil(TAIL_MAX_Q * n),
/// n - TAIL_BEYOND)` of `n` ascending samples. Returns `(quantile, value,
/// samples beyond)`, or `None` when `n <= TAIL_BEYOND`.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64, usize)> {
    let n = sorted.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let rank = ((TAIL_MAX_Q * n as f64).ceil() as usize).min(n - TAIL_BEYOND);
    Some((rank as f64 / n as f64, sorted[rank - 1], n - rank))
}

/// Summarises a non-empty sample.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summary of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let (tail_q, tail_v, beyond) = tail(&v).unwrap_or((1.0, v[v.len() - 1], 0));
    Summary {
        count: v.len(),
        median: quantile_sorted(&v, 0.5),
        q1: quantile_sorted(&v, 0.25),
        q3: quantile_sorted(&v, 0.75),
        tail_q,
        tail: tail_v,
        beyond,
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// `part / base`, or 0 for an empty base.
pub fn ratio(part: u64, base: u64) -> f64 {
    if base == 0 {
        0.0
    } else {
        part as f64 / base as f64
    }
}

/// Per-operation outcome counts. Every attempted operation ends in exactly
/// one bucket, so the buckets always sum to `attempted`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcomes {
    /// Answered correctly (and, where a deadline applies, in time).
    pub ok: u64,
    /// Turned away at admission (queue full / every routed cell refused).
    pub refused: u64,
    /// Shed by the system: batch-tier cap or deadline expired in queue.
    pub shed: u64,
    /// Answered correctly but after its deadline.
    pub deadline_missed: u64,
    /// Failed for another reason (backend failure, shutdown, bad tenant).
    pub errored: u64,
    /// Answered, but not bit-identical to its oracle.
    pub mismatched: u64,
}

impl Outcomes {
    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.ok + self.failed()
    }

    /// Operations that did not succeed, all kinds together.
    pub fn failed(&self) -> u64 {
        self.refused + self.shed + self.deadline_missed + self.errored + self.mismatched
    }

    /// One-line JSON record of the counts.
    pub fn to_json(self) -> String {
        format!(
            "{{\"attempted\": {}, \"succeeded\": {}, \"refused\": {}, \"shed\": {}, \
             \"deadline_missed\": {}, \"errored\": {}, \"mismatched\": {}}}",
            self.attempted(),
            self.ok,
            self.refused,
            self.shed,
            self.deadline_missed,
            self.errored,
            self.mismatched
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (q, x, beyond) = tail(&v).expect("100 samples have a tail");
        assert_eq!((x, beyond), (90.0, TAIL_BEYOND));
        assert!((q - 0.90).abs() < 1e-12);
        assert_eq!(v.iter().filter(|&&s| s > x).count(), TAIL_BEYOND);
    }

    #[test]
    fn tail_stops_at_its_highest_quantile() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (q, x, beyond) = tail(&v).expect("tail");
        assert_eq!((x, beyond), (950.0, 50));
        assert!((q - TAIL_MAX_Q).abs() < 1e-12);
        // Between the two limits the tail moves with n, without a jump.
        let v: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(tail(&v).map(|t| (t.1, t.2)), Some((189.0, TAIL_BEYOND)));
        let v: Vec<f64> = (1..=201).map(f64::from).collect();
        assert_eq!(tail(&v).map(|t| (t.1, t.2)), Some((191.0, TAIL_BEYOND)));
    }

    #[test]
    fn small_samples_have_no_tail_and_report_the_maximum() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!(tail(&v).is_none());
        let s = summarize(&v);
        assert_eq!((s.tail, s.tail_q, s.beyond), (10.0, 1.0, 0));
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.tail, s.beyond), (1.0, TAIL_BEYOND));
    }

    #[test]
    fn summary_is_order_free_and_interpolates() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.count, 4);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.q1, 1.75);
        assert_eq!(s.q3, 3.25);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn failure_buckets_sum_to_attempted() {
        let o =
            Outcomes { ok: 90, refused: 1, shed: 2, deadline_missed: 3, errored: 0, mismatched: 4 };
        assert_eq!(o.attempted(), 100);
        assert_eq!(o.failed(), 10);
        assert_eq!(Outcomes::default().attempted(), 0);
    }

    #[test]
    fn ratios_have_an_empty_base_of_zero() {
        assert_eq!(ratio(3, 0), 0.0);
        assert_eq!(ratio(1, 4), 0.25);
    }
}
