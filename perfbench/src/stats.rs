//! Order statistics over measured samples.

/// Sorted copy of `values` (NaN-free input).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// The `q`-quantile by linear interpolation between closest ranks (the
/// "inclusive" method); 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted(values), q)
}

fn quantile_sorted(v: &[f64], q: f64) -> f64 {
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// A median with the spread of the samples behind it: the distance between
/// the first and third quartile as a share of the median.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub median: f64,
    pub iqr_frac: f64,
    pub samples: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let v = sorted(values);
        let median = quantile_sorted(&v, 0.5);
        let iqr = quantile_sorted(&v, 0.75) - quantile_sorted(&v, 0.25);
        Summary { median, iqr_frac: if median == 0.0 { 0.0 } else { iqr / median }, samples: v.len() }
    }

    /// A value that is exact by construction (a count), with no spread.
    pub fn exact(value: f64) -> Summary {
        Summary { median: value, iqr_frac: 0.0, samples: 1 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        let s = Summary::of(&v);
        assert_eq!(s.samples, 4);
        assert!((s.iqr_frac - 1.5 / 2.5).abs() < 1e-12);
    }
}
