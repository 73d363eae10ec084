//! Sample sets and the order statistics the report prints.

/// Samples per block of [`Samples::tail`].
const TAIL_BLOCK: usize = 1000;

/// One latency sample set, in milliseconds (or seconds for set-up).
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The samples in the order they were taken.
    pub fn values(&self) -> &[f64] {
        &self.0
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Linear-interpolated quantile, `q` in `[0, 1]`; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let v = self.sorted();
        if v.is_empty() {
            return 0.0;
        }
        let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.0.iter().sum::<f64>() / self.0.len() as f64
        }
    }

    /// The tail: the highest of p99, p90 and p70 that still has at least
    /// ten samples above it, and its value: `(percentile, value)`; the
    /// median when none has. The rungs are far apart so that each
    /// workload's sample count sits well inside one rung from run to run
    /// (about 9500 warm plans, 220 compile sweeps, 45 NAS rounds); a rung
    /// like p99.9 near a typical count would flip the reported percentile
    /// between runs. From [`TAIL_BLOCK`] samples up, the tail is taken
    /// per block of consecutive samples and the median over blocks is
    /// reported, so one burst of host stalls moves one block, not the
    /// run's figure.
    pub fn tail(&self) -> (f64, f64) {
        let n = self.0.len();
        let blocks = (n / TAIL_BLOCK).max(1);
        let mut p = 50.0;
        let mut per_block = Samples::default();
        for b in 0..blocks {
            let block = Samples(self.0[b * n / blocks..(b + 1) * n / blocks].to_vec());
            let (bp, v) = block.rung();
            p = bp;
            per_block.push(v);
        }
        (p, per_block.median())
    }

    fn rung(&self) -> (f64, f64) {
        let n = self.0.len();
        for p in [99.0, 90.0, 70.0] {
            let rank = (p / 100.0 * n as f64).ceil() as usize;
            if n >= rank + 10 {
                return (p, self.quantile(p / 100.0));
            }
        }
        (50.0, self.median())
    }

    /// One report line: mean, median, quartiles, tail and sample count.
    pub fn line(&self, name: &str, unit: &str, what: &str) -> String {
        let (p, tail) = self.tail();
        format!(
            "{name:<14} mean {:>10.4} {unit}  median {:>10.4}  p25 {:>10.4}  p75 {:>10.4}  p{p} {:>10.4}  n={:<6} {what}",
            self.mean(),
            self.median(),
            self.quantile(0.25),
            self.quantile(0.75),
            tail,
            self.len(),
        )
    }
}

/// Geometric mean of positive values (0 when there are none).
pub fn geomean(values: &[f64]) -> f64 {
    let pos: Vec<f64> = values.iter().copied().filter(|v| *v > 0.0).collect();
    if pos.is_empty() {
        return 0.0;
    }
    (pos.iter().map(|v| v.ln()).sum::<f64>() / pos.len() as f64).exp()
}

/// SplitMix64: the seeded generator every workload draws its inputs from.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let mut s = Samples::default();
        for i in 0..100 {
            s.push(i as f64);
        }
        assert_eq!(s.tail().0, 90.0);
        let mut forty = Samples::default();
        for i in 0..40 {
            forty.push(i as f64);
        }
        assert_eq!(forty.tail().0, 70.0);
        // 3000 samples: three blocks of 1000, one with a burst of stalls;
        // the median over blocks ignores the burst.
        let mut long = Samples::default();
        for i in 0..3000 {
            let stall = (1000..1100).contains(&i);
            long.push(if stall { 1000.0 } else { (i % 100) as f64 });
        }
        assert_eq!(long.tail().0, 99.0);
        assert!(long.tail().1 < 100.0);
        let mut small = Samples::default();
        for i in 0..15 {
            small.push(i as f64);
        }
        assert_eq!(small.tail().0, 50.0);
    }

    #[test]
    fn quartiles_interpolate() {
        let mut s = Samples::default();
        for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
            s.push(v);
        }
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.quantile(0.25), 2.0);
    }
}
