//! Exact output checks, exact-by-construction input values, and input
//! provenance.
//!
//! Every generated input carries small-integer values, so every
//! summation order produces the same floating-point result and outputs
//! can be compared with `==` against a reference computed once in set-up
//! by a different code path.

use spk_sparse::CscMatrix;
use spkadd::PatternFingerprint;
use std::fmt;

/// Counts attempted and failed operations. A failure is an `Err` or an
/// output that differs from its reference; it is counted, never fatal.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    first_error: Option<String>,
}

impl Tally {
    /// Records one attempted operation. `Ok(true)` passes; `Ok(false)`
    /// (output differs from its reference) and `Err` count as failed.
    pub fn record<E: fmt::Display>(&mut self, what: &str, verdict: Result<bool, E>) -> bool {
        self.attempted += 1;
        let err = match verdict {
            Ok(true) => return true,
            Ok(false) => format!("{what}: output differs from its reference"),
            Err(e) => format!("{what}: {e}"),
        };
        self.failed += 1;
        if self.first_error.is_none() {
            eprintln!("perfbench: {err}");
            self.first_error = Some(err);
        }
        false
    }

    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed as f64 / self.attempted as f64
    }
}

/// SplitMix64: the benchmark's own deterministic value stream, so input
/// values depend on the seed alone.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Derives the seed of one independent input stream from the workload
/// seed.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    SplitMix::new(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03)).next_u64()
}

/// Small-integer values (1..=8) from `seed`, one per stored entry.
pub fn small_int_values(nnz: usize, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix::new(seed);
    (0..nnz).map(|_| (rng.next_u64() % 8 + 1) as f64).collect()
}

/// Replaces a generated matrix's values with small integers.
pub fn make_exact(m: &mut CscMatrix<f64>, seed: u64) {
    let vals = small_int_values(m.nnz(), seed);
    m.values_mut().copy_from_slice(&vals);
}

/// Structural digest of a collection: FNV-1a over the printed
/// [`PatternFingerprint`], so a generator change shows up as a different
/// input rather than as a performance change.
pub fn digest(mats: &[&CscMatrix<f64>]) -> u64 {
    let print = format!("{:?}", PatternFingerprint::of(mats));
    print.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// What one op's inputs look like, printed with every result.
#[derive(Debug, Clone)]
pub struct InputSummary {
    pub k: usize,
    pub m: usize,
    pub n: usize,
    pub nnz_in: usize,
    pub nnz_out: usize,
    pub digest: u64,
}

impl InputSummary {
    pub fn of(mats: &[&CscMatrix<f64>], out: &CscMatrix<f64>) -> Self {
        let (m, n) = out.shape();
        InputSummary {
            k: mats.len(),
            m,
            n,
            nnz_in: mats.iter().map(|a| a.nnz()).sum(),
            nnz_out: out.nnz(),
            digest: digest(mats),
        }
    }
}

impl fmt::Display for InputSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "k={} m={} n={} nnz_in={} nnz_out={} digest={:016x}",
            self.k, self.m, self.n, self.nnz_in, self.nnz_out, self.digest
        )
    }
}

/// Array bytes of a CSC matrix (u32 rows, f64 values, usize colptr) —
/// the basis of the computed bytes-per-nonzero figure.
pub fn csc_bytes(m: &CscMatrix<f64>) -> usize {
    m.nnz() * 12 + (m.ncols() + 1) * 8
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(n: usize, v: f64) -> CscMatrix<f64> {
        CscMatrix::try_new(n, n, (0..=n).collect(), (0..n as u32).collect(), vec![v; n])
            .expect("valid diagonal")
    }

    #[test]
    fn tally_counts_errors_and_mismatches_without_aborting() {
        let mut t = Tally::default();
        assert!(t.record::<String>("ok", Ok(true)));
        assert!(!t.record::<String>("mismatch", Ok(false)));
        assert!(!t.record("error", Err("boom")));
        assert!(t.record::<String>("ok again", Ok(true)));
        assert_eq!((t.attempted, t.failed), (4, 2));
        assert_eq!(t.fail_frac(), 0.5);
        assert_eq!(
            t.first_error.as_deref(),
            Some("mismatch: output differs from its reference")
        );
        assert_eq!(Tally::default().fail_frac(), 0.0);
    }

    #[test]
    fn values_are_small_integers_and_follow_the_seed() {
        let a = small_int_values(1000, 7);
        assert_eq!(a, small_int_values(1000, 7));
        assert_ne!(a, small_int_values(1000, 8));
        assert!(a
            .iter()
            .all(|&v| v.fract() == 0.0 && (1.0..=8.0).contains(&v)));
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
    }

    #[test]
    fn exact_values_make_summation_order_irrelevant() {
        let mut a = diag(64, 0.0);
        make_exact(&mut a, 3);
        let fwd = a.values().iter().fold(0.0, |s, v| s + v * 0.5);
        let rev = a.values().iter().rev().fold(0.0, |s, v| s + v * 0.5);
        assert_eq!(fwd, rev);
    }

    #[test]
    fn digest_tracks_structure_not_values() {
        let a = diag(8, 1.0);
        let b = diag(8, 2.0);
        let c = diag(9, 1.0);
        assert_eq!(digest(&[&a]), digest(&[&b]));
        assert_ne!(digest(&[&a]), digest(&[&c]));
        assert_ne!(digest(&[&a]), digest(&[&a, &a]));
        let s = InputSummary::of(&[&a, &b], &a);
        assert_eq!((s.k, s.m, s.n, s.nnz_in, s.nnz_out), (2, 8, 8, 16, 8));
        assert!(s
            .to_string()
            .starts_with("k=2 m=8 n=8 nnz_in=16 nnz_out=8 digest="));
        assert_eq!(csc_bytes(&a), 8 * 12 + 9 * 8);
    }
}
