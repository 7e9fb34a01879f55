//! Metric values, order statistics, the seeded generator every input is
//! drawn from, and the JSON result line.

use std::fmt::Write as _;

/// SplitMix64: the benchmark's only source of randomness. Every input
/// derives from the workload seed through it, so one seed gives one input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, tag)`.
    pub fn derive(seed: u64, tag: u64) -> Self {
        Rng(mix(seed ^ mix(tag)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }
}

/// The SplitMix64 finaliser.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by the nearest-rank rule on
/// a sorted copy; 0 for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The tail percentile of a workload and the fewest samples a run must
/// take for at least ten of them to lie beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub quantile: f64,
    pub min_samples: usize,
}

impl Tail {
    pub fn of(&self, values: &[f64]) -> f64 {
        quantile(values, self.quantile)
    }
}

/// Metrics of one run, in the order they were put.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.entries.push((name.into(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    pub fn entries(&self) -> &[(String, f64, &'static str)] {
        &self.entries
    }
}

/// The last line of the benchmark's output: one JSON object with exactly
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (name, value, unit)) in metrics.entries().iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    out.push_str("}}");
    out
}

/// A finite number with all its digits; non-finite values become 0 (`run`
/// refuses a non-finite metric before anything is printed).
fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    let s = format!("{v}");
    if s.contains(['.', 'e']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.5, "s");
        m.put("rows", 3.0, "count");
        assert_eq!(
            result_line(4, 0, &m),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"rows\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
    }
}
