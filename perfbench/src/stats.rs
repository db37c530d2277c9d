//! Small statistics and the result line.

/// Median of `values` (0 for none). Sorts a copy.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `q`-quantile of weighted samples `(value, weight)`: the smallest
/// value whose cumulative weight reaches `q` of the total.
pub fn weighted_quantile(samples: &mut [(u64, u64)], q: f64) -> u64 {
    samples.sort_unstable();
    let total: u64 = samples.iter().map(|s| s.1).sum();
    let target = (q * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0;
    for &(value, weight) in samples.iter() {
        seen += weight;
        if seen >= target {
            return value;
        }
    }
    samples.last().map_or(0, |s| s.0)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The named metrics of one run, in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Adds one metric.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name, value, unit));
    }

    /// Prints one `name = value unit` line per metric.
    pub fn print_table(&self) {
        for (name, value, unit) in &self.0 {
            println!("  {name:<30} {value:>18.6} {unit}");
        }
    }

    /// The result object the benchmark prints as its last line.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_weighted_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut s = vec![(10, 1), (20, 98), (30, 1)];
        assert_eq!(weighted_quantile(&mut s, 0.5), 20);
        assert_eq!(weighted_quantile(&mut s, 0.99), 20);
        assert_eq!(weighted_quantile(&mut s, 1.0), 30);
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let mut m = Metrics::default();
        m.put("latency_ms", 1.203_456_789, "ms");
        m.put("count", 3.0, "count");
        let line = m.result_line(true, 10, 0);
        assert!(line.contains("\"value\": 1.203456789"), "{line}");
        assert!(line.contains("\"value\": 3.0"), "{line}");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
    }
}
