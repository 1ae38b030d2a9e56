//! Sample summaries: nearest-rank percentiles over latency samples.

/// Latency samples in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, ms: f64) {
        self.values.push(ms);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// The nearest-rank `p`-th percentile (`0 < p <= 100`); 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

/// Tracing overhead in percent: the traced operations' total time over the
/// total of the same operations (same queries, same order) run untraced.
pub fn overhead_pct(traced: &[f64], untraced: &[f64]) -> f64 {
    let n = traced.len().min(untraced.len());
    let base: f64 = untraced[..n].iter().sum();
    if base > 0.0 {
        100.0 * (traced[..n].iter().sum::<f64>() / base - 1.0)
    } else {
        0.0
    }
}

/// Milliseconds in a duration.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let mut s = Samples::default();
        for v in 1..=10 {
            s.push(v as f64);
        }
        assert_eq!(s.median(), 5.0);
        assert_eq!(s.percentile(90.0), 9.0);
        assert_eq!(s.percentile(100.0), 10.0);
        assert_eq!(Samples::default().median(), 0.0);
    }
}
