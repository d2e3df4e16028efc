//! Seeded inputs and the references they are checked against.
//!
//! Every input byte comes from `--seed` through [`Rng`]; every expected
//! output is computed here in plain Rust from those inputs, never
//! through the library under test.

use pipmcoll_core::nb::CollSpec;
use pipmcoll_model::{Datatype, ReduceOp};

/// SplitMix64: small, fast, and the same stream on every platform.
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` so two input pools
    /// drawn from one seed do not share values.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `-bound..=bound`.
    pub fn signed(&mut self, bound: i32) -> i32 {
        (self.below(2 * bound as u64 + 1) as i64 - i64::from(bound)) as i32
    }

    /// `len` random bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next_u64() as u8).collect()
    }
}

/// One collective to submit and the output every rank must return.
/// (Allreduce, allgather and broadcast all give every rank the same
/// bytes.)
pub struct Item {
    /// What to submit.
    pub spec: CollSpec,
    /// Each rank's expected output.
    pub expect: Vec<u8>,
}

/// Bound on the magnitude of random `i32` inputs, small enough that a
/// sum over any world this benchmark uses cannot overflow.
const I32_BOUND: i32 = 1 << 24;

/// Reference elementwise `i32` sum, in 64-bit so overflow is impossible.
///
/// # Panics
/// Panics if a sum leaves the `i32` range (an input-generator bug).
pub fn ref_sum_i32(inputs: &[Vec<u8>]) -> Vec<u8> {
    let n = inputs[0].len() / 4;
    let mut acc = vec![0i64; n];
    for inp in inputs {
        for (a, c) in acc.iter_mut().zip(inp.chunks_exact(4)) {
            *a += i64::from(i32::from_le_bytes(c.try_into().expect("4-byte chunk")));
        }
    }
    acc.iter()
        .flat_map(|&a| i32::try_from(a).expect("i32 sum in range").to_le_bytes())
        .collect()
}

/// Reference elementwise `f64` sum in rank order.
pub fn ref_sum_f64(inputs: &[Vec<f64>]) -> Vec<f64> {
    let mut acc = vec![0.0; inputs[0].len()];
    for inp in inputs {
        for (a, x) in acc.iter_mut().zip(inp) {
            *a += x;
        }
    }
    acc
}

/// Reference allgather: the inputs concatenated in rank order.
pub fn ref_allgather(inputs: &[Vec<u8>]) -> Vec<u8> {
    inputs.concat()
}

fn i32_vec(rng: &mut Rng, count: usize) -> Vec<u8> {
    (0..count)
        .flat_map(|_| rng.signed(I32_BOUND).to_le_bytes())
        .collect()
}

/// An allreduce (`i32` sum) of `count` elements per rank.
pub fn allreduce_i32(rng: &mut Rng, world: usize, count: usize) -> Item {
    let inputs: Vec<Vec<u8>> = (0..world).map(|_| i32_vec(rng, count)).collect();
    let expect = ref_sum_i32(&inputs);
    Item {
        spec: CollSpec::Allreduce {
            dt: Datatype::Int32,
            op: ReduceOp::Sum,
            inputs,
        },
        expect,
    }
}

/// An allgather of `block` bytes per rank.
pub fn allgather(rng: &mut Rng, world: usize, block: usize) -> Item {
    let inputs: Vec<Vec<u8>> = (0..world).map(|_| rng.bytes(block)).collect();
    let expect = ref_allgather(&inputs);
    Item {
        spec: CollSpec::Allgather { inputs },
        expect,
    }
}

/// A broadcast of `len` bytes from `root`.
pub fn bcast(rng: &mut Rng, world: usize, root: usize, len: usize) -> Item {
    let data = rng.bytes(len);
    Item {
        expect: data.clone(),
        spec: CollSpec::Bcast { world, root, data },
    }
}

/// Integer-valued doubles in `0..=255`: every sum the benchmark forms
/// from them stays an exact integer below 2^53.
pub fn small_doubles(rng: &mut Rng, count: usize) -> Vec<f64> {
    (0..count).map(|_| rng.below(256) as f64).collect()
}

/// Reference for the runtime workload's chained iterations: before each
/// allreduce every rank adds the previous result (initially zero) into
/// its own input, so every iteration's result feeds the final one.
pub fn ref_chained_sum(x0: &[Vec<f64>], iters: usize) -> Vec<f64> {
    let mut x = x0.to_vec();
    let mut y = vec![0.0; x0[0].len()];
    for _ in 0..iters {
        for xr in &mut x {
            for (a, b) in xr.iter_mut().zip(&y) {
                *a += b;
            }
        }
        y = ref_sum_f64(&x);
    }
    y
}

/// Does every rank's output equal `expect`, byte for byte?
pub fn all_ranks_match(outputs: &[Vec<u8>], world: usize, expect: &[u8]) -> bool {
    outputs.len() == world && outputs.iter().all(|o| o.as_slice() == expect)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(seed: u64) -> String {
        let mut rng = Rng::new(seed, 1);
        let items = [
            allreduce_i32(&mut rng, 8, 16),
            allgather(&mut rng, 8, 32),
            bcast(&mut rng, 8, 3, 256),
        ];
        items
            .iter()
            .map(|i| format!("{:?}{:?}", i.spec, i.expect))
            .collect()
    }

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(pool(42), pool(42));
        assert_ne!(pool(42), pool(43));
        let mut a = Rng::new(7, 0);
        let mut b = Rng::new(7, 1);
        assert_ne!(a.next_u64(), b.next_u64(), "streams are decorrelated");
    }

    #[test]
    fn reference_reducers_match_known_sums() {
        let enc = |v: &[i32]| -> Vec<u8> { v.iter().flat_map(|x| x.to_le_bytes()).collect() };
        let out = ref_sum_i32(&[enc(&[1, -2, 3]), enc(&[10, 20, -30]), enc(&[100, 0, 0])]);
        assert_eq!(out, enc(&[111, 18, -27]));
        assert_eq!(
            ref_sum_f64(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![0.5, 0.0]]),
            vec![4.5, 6.0]
        );
        assert_eq!(ref_allgather(&[vec![1, 2], vec![3], vec![]]), vec![1, 2, 3]);
        // Chained: iteration 1 gives y1 = 1+2 = 3; iteration 2 adds 3 to
        // each input (4, 5) and gives 9 = 3·y1 for a world of 2.
        assert_eq!(ref_chained_sum(&[vec![1.0], vec![2.0]], 1), vec![3.0]);
        assert_eq!(ref_chained_sum(&[vec![1.0], vec![2.0]], 2), vec![9.0]);
    }

    #[test]
    fn signed_values_stay_in_bounds() {
        let mut rng = Rng::new(3, 0);
        for _ in 0..10_000 {
            let v = rng.signed(5);
            assert!((-5..=5).contains(&v));
        }
    }
}
