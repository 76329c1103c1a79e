//! Medians and the small JSON writer the reports use.

use std::fmt::Write as _;

/// Bytes per MiB.
pub const MIB: f64 = 1024.0 * 1024.0;

/// Median of `xs` (mean of the middle pair for even counts); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median of integer samples, as f64.
pub fn median_u64(xs: &[u64]) -> f64 {
    median(&xs.iter().map(|&x| x as f64).collect::<Vec<_>>())
}

/// The highest percentile with at least ten samples beyond it, as
/// (percentile, value); `None` below 20 samples, where that percentile
/// would be the median or lower.
pub fn tail(xs: &[f64]) -> Option<(usize, f64)> {
    let n = xs.len();
    if n < 20 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some((100 * (n - 10) / n, v[n - 11]))
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value (a median unless the name says otherwise).
    pub value: f64,
    /// Samples behind the value.
    pub samples: usize,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, samples: usize) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
            samples,
        }
    }
}

/// A JSON number; non-finite values (never expected) become `null`.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

/// `{"name": {"value": v, "unit": u}, ...}`
pub fn metrics_object(ms: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in ms.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            num(m.value),
            m.unit
        );
    }
    out.push('}');
    out
}

/// `[{"name": .., "unit": .., "value": .., "samples": ..}, ...]`
pub fn metrics_array(ms: &[Metric]) -> String {
    let items: Vec<String> = ms
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"value\": {}, \"samples\": {}}}",
                m.name,
                m.unit,
                num(m.value),
                m.samples
            )
        })
        .collect();
    format!("[{}]", items.join(", "))
}

/// The table printed before the result line.
pub fn table(ms: &[Metric]) -> String {
    let mut out = String::new();
    for m in ms {
        let _ = writeln!(
            out,
            "  {:<28} {:>14.4} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_u64(&[5, 1, 9]), 5.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 19]), None);
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        // 30 of 40 at or below: p75, with 10 samples above it.
        assert_eq!(tail(&xs), Some((75, 30.0)));
    }

    #[test]
    fn json_shapes() {
        let ms = [Metric::new("a", "ms", 1.5, 3)];
        assert_eq!(
            metrics_object(&ms),
            "{\"a\": {\"value\": 1.5, \"unit\": \"ms\"}}"
        );
        assert!(metrics_array(&ms).contains("\"samples\": 3"));
        assert_eq!(num(f64::NAN), "null");
    }
}
