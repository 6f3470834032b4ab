//! Order statistics over op timings.

/// Samples that must lie beyond a reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// One completed op, timed from the start of its phase.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    /// When the request was sent, in seconds.
    pub start: f64,
    /// When its reply (all of it) had arrived, in seconds.
    pub end: f64,
    /// Color-coding trials the reply answers for.
    pub trials: u64,
}

impl Op {
    /// The op's latency in seconds.
    pub fn latency(&self) -> f64 {
        self.end - self.start
    }
}

/// The median (mean of the middle pair for an even count); `NaN` when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// A tail latency: the highest percentile with at least [`TAIL_BEYOND`]
/// samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The order statistic itself.
    pub value: f64,
    /// Its nearest-rank percentile, `100 × rank / samples`.
    pub percentile: f64,
    /// Samples it was taken from.
    pub samples: usize,
}

/// The highest percentile of `values` that has at least [`TAIL_BEYOND`]
/// samples strictly beyond it (the `(n - 10)`-th smallest value), or
/// `None` when there are too few samples for one.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = n - TAIL_BEYOND;
    Some(Tail {
        value: sorted[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
    })
}

/// The end-to-end figures of one timed phase, taken over all its ops.
#[derive(Clone, Debug)]
pub struct Summary {
    /// Completed ops.
    pub ops: usize,
    /// Wall time until the last reply arrived, in seconds.
    pub wall: f64,
    /// Completed ops per second of wall.
    pub throughput: f64,
    /// Median op latency, in seconds.
    pub p50: f64,
    /// The tail latency, in seconds, with its percentile and sample count.
    pub tail: Tail,
    /// Trials answered per second of wall.
    pub trials_per_s: f64,
}

/// Collects the completed ops of one phase.
#[derive(Default)]
pub struct Recorder {
    ops: Vec<Op>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// Records one completed op.
    pub fn push(&mut self, op: Op) {
        self.ops.push(op);
    }

    /// The phase's summary, or `None` when too few ops completed for a
    /// tail.
    pub fn finish(self) -> Option<Summary> {
        let latencies: Vec<f64> = self.ops.iter().map(Op::latency).collect();
        let tail = tail(&latencies)?;
        let wall = self
            .ops
            .iter()
            .map(|op| op.end)
            .fold(f64::MIN_POSITIVE, f64::max);
        let trials: u64 = self.ops.iter().map(|op| op.trials).sum();
        Some(Summary {
            ops: self.ops.len(),
            wall,
            throughput: self.ops.len() as f64 / wall,
            p50: median(&latencies),
            tail,
            trials_per_s: trials as f64 / wall,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 10]), None);
        let values: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&values).unwrap();
        assert_eq!(t.value, 1.0);
        assert_eq!(t.samples, 11);
        let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&values).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(values.iter().filter(|&&v| v > t.value).count(), TAIL_BEYOND);
        let values: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail(&values).unwrap();
        assert_eq!(t.value, 1990.0);
        assert_eq!(t.percentile, 99.5);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn recorder_summarizes_every_op() {
        let record = |ops: &[Op]| {
            let mut recorder = Recorder::new();
            ops.iter().for_each(|&op| recorder.push(op));
            recorder.finish()
        };
        let ops: Vec<Op> = (0..30)
            .map(|i| Op {
                start: i as f64,
                end: i as f64 + 0.5,
                trials: 4,
            })
            .collect();
        let s = record(&ops).unwrap();
        assert_eq!(s.ops, 30);
        assert_eq!(s.p50, 0.5);
        assert_eq!(s.wall, 29.5);
        assert!((s.throughput - 30.0 / 29.5).abs() < 1e-12);
        assert!((s.trials_per_s - 4.0 * s.throughput).abs() < 1e-9);
        assert_eq!(
            (s.tail.samples, s.tail.percentile),
            (30, 100.0 * 20.0 / 30.0)
        );
        assert!(record(&ops[..10]).is_none());
    }
}
