//! Order statistics and the seeded generator every workload draws from.

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of a non-empty sample (mean of the two middle values for an
/// even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let v = sorted(xs);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// Nearest-rank percentile of a non-empty sample, `p` in `(0, 1]`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let v = sorted(xs);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of the per-group means of `xs`, where `group[i]` numbers the
/// group of `xs[i]` and equal numbers are adjacent.
pub fn grouped_median(xs: &[f64], group: &[usize]) -> f64 {
    assert_eq!(xs.len(), group.len(), "one group number per sample");
    let mut means = Vec::new();
    let mut start = 0;
    for end in 1..=xs.len() {
        if end == xs.len() || group[end] != group[start] {
            means.push(xs[start..end].iter().sum::<f64>() / (end - start) as f64);
            start = end;
        }
    }
    median(&means)
}

/// SplitMix64: a tiny, fully specified generator, so a seed names the
/// same inputs on every platform.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator started from `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.95), 19.0);
        assert_eq!(percentile(&xs, 0.5), 10.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert_eq!(grouped_median(&[1.0, 3.0, 5.0, 7.0, 9.0], &[0, 0, 1, 1, 2]), 6.0);
        assert_eq!(grouped_median(&[1.0, 3.0], &[4, 4]), 2.0);
        assert_eq!(grouped_median(&[4.0, 1.0, 2.0], &[0, 1, 2]), 2.0);
    }

    #[test]
    fn generator_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut g = SplitMix64::new(7);
                move |_| g.next_u64()
            })
            .collect();
        let mut g = SplitMix64::new(7);
        assert!(a.iter().all(|&x| x == g.next_u64()));
        assert_ne!(SplitMix64::new(8).next_u64(), a[0]);
        let u = SplitMix64::new(1).next_f64();
        assert!((0.0..1.0).contains(&u));
    }
}
