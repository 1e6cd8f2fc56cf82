//! The load generator: per-thread SplitMix64 streams derived from
//! `--seed`, an O(1) Zipf sampler, and the self-verifying value
//! encoding. The library crates only ever see the keys and values this
//! module generates.

/// A plain (non-atomic) SplitMix64 stream.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// The stream of client `thread` under `seed`: the first output of a
    /// root stream keyed by both, so neighbouring seeds and threads
    /// share no prefix.
    pub fn for_thread(seed: u64, thread: usize) -> Self {
        let mut root = SplitMix64(seed ^ (thread as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93));
        SplitMix64(root.next())
    }

    #[inline]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Draws a rank in `0..n` from one 64-bit random word in O(1): the high
/// half picks a column of a Walker/Vose alias table, the low half flips
/// that column's biased coin. Rank 0 is the hottest key. `Zipf(0)` and
/// the uniform sampler (no table) draw the same rank from the same word.
pub struct Sampler {
    n: u64,
    /// `(keep, alias)` per column: keep the column when the coin is
    /// below `keep`, else take `alias`. Empty for the uniform sampler.
    columns: Vec<(u32, u32)>,
}

impl Sampler {
    pub fn uniform(n: u32) -> Self {
        assert!(n >= 1);
        Sampler {
            n: u64::from(n),
            columns: Vec::new(),
        }
    }

    /// Zipf with exponent `s` over `n` ranks: `P(rank r) ∝ 1/(r+1)^s`.
    pub fn zipf(n: u32, s: f64) -> Self {
        assert!(n >= 1);
        let weights: Vec<f64> = (1..=n).map(|r| f64::from(r).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        // Vose: scale so the mean column is 1, then top small columns up
        // from large ones until every column holds exactly 1.
        let mut scaled: Vec<f64> = weights.iter().map(|w| w / total * f64::from(n)).collect();
        let mut columns: Vec<(u32, u32)> = (0..n).map(|i| (u32::MAX, i)).collect();
        let (mut small, mut large): (Vec<u32>, Vec<u32>) =
            (0..n).partition(|&i| scaled[i as usize] < 1.0);
        while let (Some(&s_i), Some(&l_i)) = (small.last(), large.last()) {
            small.pop();
            let keep = scaled[s_i as usize];
            columns[s_i as usize] = ((keep * 4_294_967_296.0) as u32, l_i);
            scaled[l_i as usize] -= 1.0 - keep;
            if scaled[l_i as usize] < 1.0 {
                large.pop();
                small.push(l_i);
            }
        }
        Sampler {
            n: u64::from(n),
            columns,
        }
    }

    #[inline]
    pub fn rank(&self, word: u64) -> u32 {
        let column = (((word >> 32) * self.n) >> 32) as u32;
        match self.columns.get(column as usize) {
            Some(&(keep, alias)) if word as u32 >= keep => alias,
            _ => column,
        }
    }

    /// The exact probability of `rank` under the table (for tests).
    #[cfg(test)]
    fn mass(&self, rank: u32) -> f64 {
        let per_column = 1.0 / self.n as f64;
        if self.columns.is_empty() {
            return per_column;
        }
        let mut mass = 0.0;
        for (i, &(keep, alias)) in self.columns.iter().enumerate() {
            let keep = f64::from(keep) / 4_294_967_296.0;
            if i as u32 == rank {
                mass += keep * per_column;
            }
            if alias == rank {
                mass += (1.0 - keep) * per_column;
            }
        }
        mass
    }
}

/// Every value the benchmark writes carries the low 16 bits of its key
/// in its high half, so any `get` can be checked without knowing which
/// `put` it observed. (`KvCells` values are 32 bits wide.)
#[inline]
pub fn encode(key: u32, nonce: u16) -> u32 {
    (key & 0xFFFF) << 16 | u32::from(nonce)
}

#[inline]
pub fn verifies(key: u32, value: u64) -> bool {
    value >> 16 == u64::from(key & 0xFFFF)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    pub key: u32,
    pub value: u32,
    pub is_get: bool,
}

/// One client's operation stream: key from the sampler, `get_pct` % gets,
/// a fresh nonce in every value.
pub struct OpStream {
    rng: SplitMix64,
    get_pct: u64,
}

impl OpStream {
    pub fn new(seed: u64, thread: usize, get_pct: u32) -> Self {
        OpStream {
            rng: SplitMix64::for_thread(seed, thread),
            get_pct: u64::from(get_pct),
        }
    }

    #[inline]
    pub fn next_op(&mut self, sampler: &Sampler) -> Op {
        let key = sampler.rank(self.rng.next());
        let word = self.rng.next();
        Op {
            key,
            value: encode(key, (word >> 48) as u16),
            is_get: ((word & 0xFFFF_FFFF) * 100) >> 32 < self.get_pct,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_mass_on_rank_zero_is_one_over_the_harmonic_sum() {
        let n = 4096;
        let sampler = Sampler::zipf(n, 0.99);
        let h: f64 = (1..=n).map(|r| f64::from(r).powf(-0.99)).sum();
        assert!((sampler.mass(0) - 1.0 / h).abs() < 1e-6);
        let all: f64 = (0..n).map(|r| sampler.mass(r)).sum();
        assert!((all - 1.0).abs() < 1e-6, "table mass {all}");
        // ... and the draws follow the table.
        let mut rng = SplitMix64::for_thread(1, 0);
        let draws = 2_000_000;
        let hits = (0..draws).filter(|_| sampler.rank(rng.next()) == 0).count();
        let share = hits as f64 / f64::from(draws);
        assert!((share - 1.0 / h).abs() < 0.002, "rank 0 drawn {share}");
    }

    #[test]
    fn zipf_with_exponent_zero_is_the_uniform_sampler() {
        let (zipf, uniform) = (Sampler::zipf(1000, 0.0), Sampler::uniform(1000));
        let mut rng = SplitMix64::for_thread(7, 0);
        let mut seen = vec![0u32; 1000];
        for _ in 0..100_000 {
            let word = rng.next();
            assert_eq!(zipf.rank(word), uniform.rank(word));
            seen[uniform.rank(word) as usize] += 1;
        }
        assert!(seen.iter().all(|&c| (50..200).contains(&c)), "not flat");
    }

    #[test]
    fn streams_repeat_per_seed_and_differ_across_threads_and_seeds() {
        let sampler = Sampler::zipf(4096, 0.99);
        let take = |seed, thread| {
            let mut s = OpStream::new(seed, thread, 90);
            (0..1000).map(|_| s.next_op(&sampler)).collect::<Vec<_>>()
        };
        assert_eq!(take(1, 0), take(1, 0));
        assert_ne!(take(1, 0), take(1, 1));
        assert_ne!(take(1, 0), take(2, 0));
        let gets = take(1, 0).iter().filter(|op| op.is_get).count();
        assert!((850..950).contains(&gets), "{gets} gets in 1000 at 90 %");
        assert!(take(3, 1)
            .iter()
            .all(|op| verifies(op.key, u64::from(op.value))));
    }

    #[test]
    fn encoding_catches_a_value_under_the_wrong_key() {
        assert!(verifies(70_000, u64::from(encode(70_000, 9))));
        assert!(!verifies(70_001, u64::from(encode(70_000, 9))));
    }
}
