//! Dense matrix products used by the ConvNet framework.
//!
//! Convolutions lower to matrix multiplication via `im2col`, so these three
//! entry points (plain, transpose-A, transpose-B) carry essentially all of
//! the arithmetic in the digital reference path. All three delegate to the
//! packed cache-blocked engine in [`crate::gemm`] — the transpose variants
//! are absorbed by the pack step's gather, not separate loops — using a
//! thread-local [`Workspace`] so repeated calls at a fixed shape reuse the
//! same scratch. A deliberately simple [`matmul_naive`] reference is
//! retained for equivalence testing.

use crate::workspace::Workspace;
use crate::{gemm, Tensor, TensorError};
use std::cell::RefCell;

thread_local! {
    /// Scratch for the drop-in `matmul*` wrappers. Layers and executors that
    /// own a [`Workspace`] call [`gemm`]/[`crate::gemm_into`] directly; this
    /// keeps the plain functional API allocation-free in steady state too.
    static LOCAL_WS: RefCell<Workspace> = RefCell::new(Workspace::new());
}

pub(crate) fn matrix_dims(t: &Tensor) -> Result<(usize, usize), TensorError> {
    match t.dims() {
        [r, c] => Ok((*r, *c)),
        dims => Err(TensorError::RankMismatch {
            expected: 2,
            actual: dims.len(),
        }),
    }
}

/// Computes the matrix product `a (m×k) · b (k×n) → (m×n)`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if either operand is not rank-2 and
/// [`TensorError::InnerDimMismatch`] if `a`'s columns differ from `b`'s rows.
///
/// # Example
///
/// ```
/// use redeye_tensor::{matmul, Tensor};
///
/// # fn main() -> Result<(), redeye_tensor::TensorError> {
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// let i = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2])?;
/// assert_eq!(matmul(&a, &i)?, a);
/// # Ok(())
/// # }
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    LOCAL_WS.with(|ws| gemm(&mut ws.borrow_mut(), false, false, a, b, 1))
}

/// Computes `aᵀ (k×m)ᵀ · b (k×n) → (m×n)` without materializing `aᵀ`.
///
/// Used by the convolution *backward* pass (gradient w.r.t. inputs).
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] or [`TensorError::InnerDimMismatch`]
/// under the same conditions as [`matmul`].
pub fn matmul_transpose_a(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    LOCAL_WS.with(|ws| gemm(&mut ws.borrow_mut(), true, false, a, b, 1))
}

/// Computes `a (m×k) · bᵀ (n×k)ᵀ → (m×n)` without materializing `bᵀ`.
///
/// Used by the convolution backward pass (gradient w.r.t. weights).
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] or [`TensorError::InnerDimMismatch`]
/// under the same conditions as [`matmul`].
pub fn matmul_transpose_b(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    LOCAL_WS.with(|ws| gemm(&mut ws.borrow_mut(), false, true, a, b, 1))
}

/// The retained naive reference product: a cache-aware ikj triple loop with
/// no packing, no blocking, and no threading.
///
/// This is the oracle the packed engine is property-tested against. It is
/// not used on any hot path.
///
/// # Errors
///
/// Same conditions as [`matmul`].
pub fn matmul_naive(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let (m, k) = matrix_dims(a)?;
    let (k2, n) = matrix_dims(b)?;
    if k != k2 {
        return Err(TensorError::InnerDimMismatch {
            left_cols: k,
            right_rows: k2,
        });
    }
    let mut out = vec![0.0f32; m * n];
    let a_data = a.as_slice();
    let b_data = b.as_slice();
    for i in 0..m {
        let a_row = &a_data[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (p, &a_ip) in a_row.iter().enumerate() {
            if a_ip == 0.0 {
                continue;
            }
            let b_row = &b_data[p * n..(p + 1) * n];
            for (o, &b_pj) in out_row.iter_mut().zip(b_row.iter()) {
                *o += a_ip * b_pj;
            }
        }
    }
    Tensor::from_vec(out, &[m, n])
}

impl Tensor {
    /// Transposes a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if the tensor is not rank-2.
    pub fn transpose2(&self) -> Result<Tensor, TensorError> {
        let (r, c) = matrix_dims(self)?;
        let src = self.as_slice();
        let mut out = vec![0.0f32; r * c];
        for i in 0..r {
            for j in 0..c {
                out[j * r + i] = src[i * c + j];
            }
        }
        Tensor::from_vec(out, &[c, r])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, data: &[f32]) -> Tensor {
        Tensor::from_vec(data.to_vec(), &[rows, cols]).unwrap()
    }

    #[test]
    fn matmul_basic() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let i = m(2, 2, &[1.0, 0.0, 0.0, 1.0]);
        assert_eq!(matmul(&a, &i).unwrap(), a);
        assert_eq!(matmul(&i, &a).unwrap(), a);
    }

    #[test]
    fn matmul_rejects_bad_dims() {
        let a = m(2, 3, &[0.0; 6]);
        let b = m(2, 3, &[0.0; 6]);
        assert!(matches!(
            matmul(&a, &b),
            Err(TensorError::InnerDimMismatch { .. })
        ));
        let v = Tensor::zeros(&[3]);
        assert!(matmul(&v, &b).is_err());
    }

    #[test]
    fn matmul_matches_naive_reference() {
        let mut rng = crate::Rng::seed_from(3);
        let a = Tensor::uniform(&[17, 33], -1.0, 1.0, &mut rng);
        let b = Tensor::uniform(&[33, 29], -1.0, 1.0, &mut rng);
        let packed = matmul(&a, &b).unwrap();
        let naive = matmul_naive(&a, &b).unwrap();
        for (p, n) in packed.iter().zip(naive.iter()) {
            assert!((p - n).abs() <= 1e-4 * n.abs().max(1.0), "{p} vs {n}");
        }
    }

    #[test]
    fn transpose_variants_agree_with_explicit_transpose() {
        let a = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 4, &(0..12).map(|v| v as f32).collect::<Vec<_>>());
        // matmul_transpose_a(a, b) == matmul(aᵀ, b)
        let expect = matmul(&a.transpose2().unwrap(), &b).unwrap();
        assert_eq!(matmul_transpose_a(&a, &b).unwrap(), expect);

        let c = m(2, 3, &[1.0, 0.5, -1.0, 2.0, 3.0, 1.0]);
        let d = m(4, 3, &(0..12).map(|v| v as f32 * 0.5).collect::<Vec<_>>());
        // matmul_transpose_b(c, d) == matmul(c, dᵀ)
        let expect = matmul(&c, &d.transpose2().unwrap()).unwrap();
        assert_eq!(matmul_transpose_b(&c, &d).unwrap(), expect);
    }

    #[test]
    fn transpose_round_trip() {
        let a = m(3, 5, &(0..15).map(|v| v as f32).collect::<Vec<_>>());
        assert_eq!(a.transpose2().unwrap().transpose2().unwrap(), a);
    }
}
