//! Small statistics helpers used by experiment runners and metrics.

/// Arithmetic mean. Zero for an empty slice.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Population variance. Zero for slices shorter than 2.
pub fn variance(v: &[f64]) -> f64 {
    if v.len() < 2 {
        return 0.0;
    }
    let m = mean(v);
    v.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / v.len() as f64
}

/// Population standard deviation.
pub fn std_dev(v: &[f64]) -> f64 {
    variance(v).sqrt()
}

/// Minimum. NaN-free input assumed; returns +inf for empty slices.
pub fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Maximum. Returns -inf for empty slices.
pub fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Linear-interpolated percentile, `p` in [0, 100]. NaN for an empty
/// slice or one holding any NaN.
///
/// Equals reading a stable ascending sort at positions `i` and `i + 1`,
/// bit for bit, in O(N): a selection over order-preserving integer keys
/// places position `i`, and position `i + 1` is the minimum of the
/// partition above it.
/// Signed zeros compare equal, so the sort keeps them in input order; a
/// zero read at sorted position `k` is therefore the `(k − #{x < 0})`-th
/// zero of the input, and `sorted_zero` recovers its sign.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0,100]");
    let mut nan = v.is_empty();
    let mut keys: Vec<i64> = v
        .iter()
        .map(|&x| {
            nan |= x.is_nan();
            order_key(x)
        })
        .collect();
    if nan {
        return f64::NAN;
    }
    let pos = p / 100.0 * (v.len() - 1) as f64;
    let i = pos.floor() as usize;
    let frac = pos - i as f64;
    let (_, &mut lo, upper) = keys.select_nth_unstable(i);
    let at = |k: usize, key: i64| {
        let x = from_order_key(key);
        if x == 0.0 {
            sorted_zero(v, k)
        } else {
            x
        }
    };
    let lo = at(i, lo);
    match upper.iter().min() {
        Some(&hi) => lo * (1.0 - frac) + at(i + 1, hi) * frac,
        None => lo,
    }
}

/// Maps a non-NaN `f64` to an `i64` with the same order (`-0.0` just
/// below `+0.0`), so selection compares integers.
fn order_key(x: f64) -> i64 {
    flip_negative(x.to_bits() as i64)
}

/// The inverse of [`order_key`].
fn from_order_key(key: i64) -> f64 {
    f64::from_bits(flip_negative(key) as u64)
}

/// Flips the magnitude bits of a negative pattern, leaving the sign: an
/// involution that reverses the order of negative floats' bit patterns.
fn flip_negative(bits: i64) -> i64 {
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The zero a stable ascending sort of NaN-free `v` puts at position
/// `k`, given that position holds a zero: the `(k − #{x < 0})`-th zero
/// of `v` in input order, with its sign.
fn sorted_zero(v: &[f64], k: usize) -> f64 {
    let below = v.iter().filter(|&&x| x < 0.0).count();
    v.iter().copied().filter(|&x| x == 0.0).nth(k - below).unwrap_or(0.0)
}

/// Median (50th percentile).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// A streaming mean/min/max accumulator for long Monte-Carlo runs.
#[derive(Clone, Debug, Default)]
pub struct Running {
    n: u64,
    sum: f64,
    sum_sq: f64,
    min: f64,
    max: f64,
}

impl Running {
    /// A fresh accumulator.
    pub fn new() -> Self {
        Running { n: 0, sum: 0.0, sum_sq: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Folds in one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        self.sum += x;
        self.sum_sq += x * x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean of observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let m = self.mean();
        (self.sum_sq / self.n as f64 - m * m).max(0.0).sqrt()
    }

    /// Smallest observation (+inf when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (-inf when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_moments() {
        let v = vec![2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&v) - 5.0).abs() < 1e-12);
        assert!((std_dev(&v) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_slices() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn percentiles() {
        let v = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 25.0), 2.0);
    }

    /// The sort-based percentile this module shipped before the
    /// selection rewrite, verbatim: the bit-exact oracle.
    fn percentile_by_sort(v: &[f64], p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0,100]");
        if v.is_empty() {
            return f64::NAN;
        }
        let mut sorted = v.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let pos = p / 100.0 * (sorted.len() - 1) as f64;
        let i = pos.floor() as usize;
        let frac = pos - i as f64;
        if i + 1 < sorted.len() {
            sorted[i] * (1.0 - frac) + sorted[i + 1] * frac
        } else {
            sorted[i]
        }
    }

    #[test]
    fn selection_percentile_matches_sort_bitwise() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Few distinct values so duplicates and ±0 ties are common; the
        // infinities exercise `inf * 0` at integral positions.
        let pool = [-0.0, 0.0, 1.0, -1.0, 2.5, -3.0, 1e-300, f64::INFINITY, f64::NEG_INFINITY];
        let mut rng = StdRng::seed_from_u64(0x5e1ec7);
        for case in 0..20_000 {
            let len = rng.gen_range(1..=24);
            let zero_heavy = case % 2 == 0;
            let v: Vec<f64> = (0..len)
                .map(|_| match rng.gen_range(0..4) {
                    0 | 1 if zero_heavy => [-0.0, 0.0][rng.gen_range(0..2)],
                    0 => pool[rng.gen_range(0..pool.len())],
                    1 => (rng.gen_range(-4.0..4.0f64) * 2.0).round() / 2.0,
                    _ => rng.gen_range(-1.0..1.0),
                })
                .collect();
            for p in [0.0, 100.0, 50.0, 90.0, 12.5, rng.gen_range(0.0..=100.0)] {
                let (got, want) = (percentile(&v, p), percentile_by_sort(&v, p));
                assert_eq!(got.to_bits(), want.to_bits(), "p {p} of {v:?}: {got} vs {want}");
            }
        }
        for v in [vec![-0.0], vec![0.0], vec![7.0], vec![0.0, -0.0, 0.0, -0.0, -1.0]] {
            for p in [0.0, 37.5, 100.0] {
                assert_eq!(percentile(&v, p).to_bits(), percentile_by_sort(&v, p).to_bits());
            }
        }
    }

    #[test]
    fn nan_input_gives_nan() {
        assert!(percentile(&[1.0, f64::NAN, 2.0], 90.0).is_nan());
        assert!(percentile(&[f64::NAN], 0.0).is_nan());
    }

    #[test]
    fn running_matches_batch() {
        let v: Vec<f64> = (0..100).map(|i| (i as f64 * 0.7).sin() * 3.0 + 1.0).collect();
        let mut r = Running::new();
        for &x in &v {
            r.push(x);
        }
        assert_eq!(r.count(), 100);
        assert!((r.mean() - mean(&v)).abs() < 1e-12);
        assert!((r.std_dev() - std_dev(&v)).abs() < 1e-9);
        assert_eq!(r.min(), min(&v));
        assert_eq!(r.max(), max(&v));
    }
}
