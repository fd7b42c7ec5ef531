//! # spk-sparse — sparse matrix substrate for the SpKAdd suite
//!
//! Containers and conversions for sparse matrices in the two storage
//! formats the SpKAdd suite uses:
//!
//! * [`CscMatrix`] — compressed sparse column, the format every SpKAdd
//!   algorithm in the paper operates on (columns are added independently);
//! * [`CooMatrix`] — coordinate triplets, the interchange/builder format
//!   behind the generators and Matrix Market I/O.
//!
//! [`DenseMatrix`] is the dense oracle the tests compare against. The
//! paper's §II-A notes that its algorithms apply equally to CSR and
//! doubly-compressed storage; this suite implements CSC only (DESIGN.md
//! records why).
//!
//! Row and column indices are stored as `u32` (the paper's experiments use
//! 32-bit indices: 8-byte hash-table entries for `f32` values, 12-byte for
//! `f64`), which supports matrices with up to 2³²−1 rows — enough for the
//! largest input the paper uses (Metaclust50, 282M rows). Column pointers
//! are `usize` so the total number of nonzeros is not limited to 4 billion.
//!
//! All containers are canonical-form aware: [`CscMatrix::is_sorted`] reports
//! whether every column is sorted by row index with no duplicates, which is
//! exactly the precondition the 2-way and heap SpKAdd algorithms require
//! (Table I of the paper: "need sorted inputs?").

// No unsafe anywhere in this crate (checked repo-wide by spk-lint's
// safety-comment rule where unsafe *is* allowed).
#![forbid(unsafe_code)]

pub mod coo;
pub mod csc;
pub mod dense;
pub mod error;
pub mod io;
pub mod stats;

pub use coo::CooMatrix;
pub use csc::{ColView, CscMatrix};
pub use dense::DenseMatrix;
pub use error::SparseError;
pub use stats::{CollectionStats, DegreeStats};

/// Storage element trait for matrix values.
///
/// The *structural* requirements only: copyable, has a fill value
/// (`Default`), comparable for canonical-form checks, printable, and able
/// to cross thread boundaries. Every container operation (slicing,
/// transposing, sorting, splitting, stacking) and every monoid-generic
/// reduction kernel needs exactly this much — arithmetic lives in the
/// [`Scalar`] subtrait. Notably `bool` is an `Element`, which is what lets
/// the same SpKAdd kernels compute boolean graph unions.
pub trait Element:
    Copy + Default + PartialEq + std::fmt::Debug + std::fmt::Display + Send + Sync + 'static
{
}

impl<T> Element for T where
    T: Copy + Default + PartialEq + std::fmt::Debug + std::fmt::Display + Send + Sync + 'static
{
}

/// Numeric element trait for matrix values.
///
/// Everything the classical (additive) SpKAdd kernels need on top of
/// [`Element`]: an additive identity, `+`/`+=`/`-`/`*`, and numeric
/// bridges. Implemented for the standard float and integer types.
pub trait Scalar:
    Element
    + std::ops::Add<Output = Self>
    + std::ops::AddAssign
    + std::ops::Sub<Output = Self>
    + std::ops::Mul<Output = Self>
{
    /// The additive identity, as a `const` (usable in associated consts
    /// of generic impls, unlike `Default::default()`).
    const ZERO: Self;
    /// `true` if the value equals the additive identity.
    #[inline]
    fn is_zero(&self) -> bool {
        *self == Self::default()
    }
    /// The multiplicative identity.
    fn one() -> Self;
    /// Lossy conversion to `f64` for error metrics and dense bridges.
    fn to_f64(&self) -> f64;
}

macro_rules! impl_scalar {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            const ZERO: Self = 0 as $t;
            #[inline]
            fn one() -> Self { 1 as $t }
            #[inline]
            fn to_f64(&self) -> f64 { *self as f64 }
        }
    )*};
}
impl_scalar!(f32, f64, i32, i64, u32, u64, i8, u8, i16, u16);

/// Shape of a matrix: `(rows, cols)`.
pub type Shape = (usize, usize);

/// Checks that all matrices in a collection share one shape.
///
/// This is the first validation step of every k-way SpKAdd entry point.
pub fn common_shape<T: Element>(mats: &[&CscMatrix<T>]) -> Result<Shape, SparseError> {
    let first = mats.first().ok_or(SparseError::EmptyCollection)?;
    let shape = (first.nrows(), first.ncols());
    for (i, m) in mats.iter().enumerate().skip(1) {
        if (m.nrows(), m.ncols()) != shape {
            return Err(SparseError::DimensionMismatch {
                expected: shape,
                found: (m.nrows(), m.ncols()),
                operand: i,
            });
        }
    }
    Ok(shape)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_zero_one() {
        assert!(0.0f64.is_zero());
        assert!(!1.0f64.is_zero());
        assert_eq!(f32::one(), 1.0);
        assert_eq!(i64::one(), 1);
        assert_eq!(3.5f64.to_f64(), 3.5);
    }

    #[test]
    fn common_shape_accepts_uniform() {
        let a = CscMatrix::<f64>::zeros(3, 4);
        let b = CscMatrix::<f64>::zeros(3, 4);
        assert_eq!(common_shape(&[&a, &b]).unwrap(), (3, 4));
    }

    #[test]
    fn common_shape_rejects_mismatch() {
        let a = CscMatrix::<f64>::zeros(3, 4);
        let b = CscMatrix::<f64>::zeros(4, 3);
        let err = common_shape(&[&a, &b]).unwrap_err();
        match err {
            SparseError::DimensionMismatch { operand, .. } => assert_eq!(operand, 1),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn common_shape_rejects_empty() {
        let mats: [&CscMatrix<f64>; 0] = [];
        assert!(matches!(
            common_shape(&mats),
            Err(SparseError::EmptyCollection)
        ));
    }
}
