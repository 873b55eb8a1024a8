//! Double-precision matrix multiplication (DGEMM): the paper's evaluation
//! kernel (§IV-D: "a double precision matrix multiplication of two
//! 8192x8192 matrices … via calling a highly optimized BLAS library").
//!
//! Implementation variants (naive / blocked / transposed-blocked) stand in
//! for GotoBLAS/CuBLAS at small functional sizes; the analytic
//! [`dgemm_flops`] cost drives the simulator at the paper's 8192² scale.
//!
//! All variants compute `C += A × B` on row-major square matrices, so
//! results are bitwise-comparable accumulation order aside.

/// A square row-major matrix of f64.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    /// Dimension.
    pub n: usize,
    /// Row-major data, `n*n` long.
    pub data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix of dimension `n`.
    pub fn zeros(n: usize) -> Self {
        Matrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Matrix filled by `f(row, col)`.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(n);
        for i in 0..n {
            for j in 0..n {
                m.data[i * n + j] = f(i, j);
            }
        }
        m
    }

    /// Max-abs difference to another matrix.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.n, other.n);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

/// FLOPs of an `n×n` DGEMM (`2n³`: one multiply + one add per inner step).
pub fn dgemm_flops(n: usize) -> f64 {
    2.0 * (n as f64).powi(3)
}

/// Bytes of one `n×n` f64 matrix. Computed in `f64`, which cannot
/// overflow, and equal to the integer product wherever that fits.
pub(crate) fn matrix_bytes(n: usize) -> f64 {
    let n = n as f64;
    n * n * 8.0
}

/// Naive triple loop, the reference implementation.
pub fn dgemm_naive(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let n = a.n;
    assert!(n == b.n && n == c.n, "dimension mismatch");
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0.0;
            for k in 0..n {
                acc += a.data[i * n + k] * b.data[k * n + j];
            }
            c.data[i * n + j] += acc;
        }
    }
}

/// Cache-blocked variant (i-k-j loop order inside blocks, good spatial
/// locality on row-major data).
pub fn dgemm_blocked(a: &Matrix, b: &Matrix, c: &mut Matrix, block: usize) {
    let n = a.n;
    assert!(n == b.n && n == c.n, "dimension mismatch");
    let block = block.max(1);
    for ii in (0..n).step_by(block) {
        for kk in (0..n).step_by(block) {
            for jj in (0..n).step_by(block) {
                let i_end = (ii + block).min(n);
                let k_end = (kk + block).min(n);
                let j_end = (jj + block).min(n);
                for i in ii..i_end {
                    for k in kk..k_end {
                        let aik = a.data[i * n + k];
                        if aik == 0.0 {
                            continue;
                        }
                        for j in jj..j_end {
                            c.data[i * n + j] += aik * b.data[k * n + j];
                        }
                    }
                }
            }
        }
    }
}

/// Variant that pre-transposes `B` for unit-stride inner loops — the shape
/// a tuned "expert" implementation takes; numerically identical.
pub fn dgemm_transposed(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let n = a.n;
    assert!(n == b.n && n == c.n, "dimension mismatch");
    let mut bt = vec![0.0; n * n];
    for k in 0..n {
        for j in 0..n {
            bt[j * n + k] = b.data[k * n + j];
        }
    }
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0.0;
            let arow = &a.data[i * n..(i + 1) * n];
            let bcol = &bt[j * n..(j + 1) * n];
            for k in 0..n {
                acc += arow[k] * bcol[k];
            }
            c.data[i * n + j] += acc;
        }
    }
}

/// Multiplies the `tile×tile` sub-blocks
/// `C[ci..ci+t][cj..cj+t] += A[ci..][k..] × B[k..][cj..]` — the task body of
/// the tiled decomposition used for heterogeneous execution.
#[allow(clippy::too_many_arguments)]
pub fn dgemm_tile(
    a: &Matrix,
    b: &Matrix,
    c: &mut Matrix,
    tile: usize,
    ti: usize,
    tj: usize,
    tk: usize,
) {
    let n = a.n;
    let i0 = ti * tile;
    let j0 = tj * tile;
    let k0 = tk * tile;
    let i1 = (i0 + tile).min(n);
    let j1 = (j0 + tile).min(n);
    let k1 = (k0 + tile).min(n);
    for i in i0..i1 {
        for k in k0..k1 {
            let aik = a.data[i * n + k];
            for j in j0..j1 {
                c.data[i * n + j] += aik * b.data[k * n + j];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> (Matrix, Matrix) {
        let a = Matrix::from_fn(n, |i, j| (i * 31 + j * 17) as f64 % 7.0 - 3.0);
        let b = Matrix::from_fn(n, |i, j| (i * 13 + j * 29) as f64 % 5.0 - 2.0);
        (a, b)
    }

    #[test]
    fn identity_is_neutral() {
        let (a, _) = sample(16);
        let i = Matrix::from_fn(16, |r, c| if r == c { 1.0 } else { 0.0 });
        let mut c = Matrix::zeros(16);
        dgemm_naive(&a, &i, &mut c);
        assert_eq!(c.max_abs_diff(&a), 0.0);
    }

    #[test]
    fn variants_agree_with_reference() {
        let (a, b) = sample(33); // deliberately not a multiple of the block
        let mut reference = Matrix::zeros(33);
        dgemm_naive(&a, &b, &mut reference);

        let mut blocked = Matrix::zeros(33);
        dgemm_blocked(&a, &b, &mut blocked, 8);
        assert!(blocked.max_abs_diff(&reference) < 1e-9);

        let mut transposed = Matrix::zeros(33);
        dgemm_transposed(&a, &b, &mut transposed);
        assert!(transposed.max_abs_diff(&reference) < 1e-9);
    }

    #[test]
    fn accumulates_into_c() {
        let (a, b) = sample(8);
        let mut c = Matrix::from_fn(8, |i, j| (i + j) as f64);
        let pre = c.clone();
        dgemm_naive(&a, &b, &mut c);
        let mut product = Matrix::zeros(8);
        dgemm_naive(&a, &b, &mut product);
        let expect = Matrix::from_fn(8, |i, j| pre.data[i * 8 + j] + product.data[i * 8 + j]);
        assert!(c.max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn tiles_cover_the_full_product() {
        let (a, b) = sample(20);
        let mut reference = Matrix::zeros(20);
        dgemm_naive(&a, &b, &mut reference);

        let tile = 6; // 20/6 → ragged last tile
        let tiles = 20usize.div_ceil(tile);
        let mut c = Matrix::zeros(20);
        for ti in 0..tiles {
            for tj in 0..tiles {
                for tk in 0..tiles {
                    dgemm_tile(&a, &b, &mut c, tile, ti, tj, tk);
                }
            }
        }
        assert!(c.max_abs_diff(&reference) < 1e-9);
    }

    #[test]
    fn flop_count() {
        assert_eq!(dgemm_flops(2), 16.0);
        // The paper's 8192³×2 ≈ 1.1 TFLOP.
        assert!((dgemm_flops(8192) - 1.0995e12).abs() < 1e9);
        assert_eq!(matrix_bytes(8192), 8192.0 * 8192.0 * 8.0);
    }

    #[test]
    fn block_size_edge_cases() {
        let (a, b) = sample(8);
        let mut reference = Matrix::zeros(8);
        dgemm_naive(&a, &b, &mut reference);
        for block in [1, 3, 8, 100] {
            let mut c = Matrix::zeros(8);
            dgemm_blocked(&a, &b, &mut c, block);
            assert!(c.max_abs_diff(&reference) < 1e-9, "block={block}");
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let a = Matrix::zeros(4);
        let b = Matrix::zeros(5);
        let mut c = Matrix::zeros(4);
        dgemm_naive(&a, &b, &mut c);
    }
}
