//! Cost model of sparse matrix–vector multiplication (CSR) — a
//! memory-bound, irregular workload complementing the dense kernels; used
//! by the scheduler ablations to exercise non-uniform task costs.

/// A sparse matrix in compressed-sparse-row format.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CsrMatrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row pointers, `rows + 1` long.
    pub row_ptr: Vec<usize>,
    /// Column indices, one per non-zero.
    pub col_idx: Vec<usize>,
    /// Non-zero values.
    pub values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from `(row, col, value)` triplets. Duplicate
    /// coordinates are summed; triplets may arrive in any order.
    pub(crate) fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> Self {
        let mut per_row: Vec<std::collections::BTreeMap<usize, f64>> =
            vec![Default::default(); rows];
        for (r, c, v) in triplets {
            assert!(r < rows && c < cols, "triplet ({r},{c}) out of bounds");
            *per_row[r].entry(c).or_insert(0.0) += v;
        }
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for row in per_row {
            for (c, v) in row {
                col_idx.push(c);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// A tridiagonal test matrix (2 on the diagonal, -1 off-diagonal) — the
    /// 1D Poisson operator.
    pub(crate) fn poisson_1d(n: usize) -> Self {
        let mut t = Vec::with_capacity(3 * n);
        for i in 0..n {
            t.push((i, i, 2.0));
            if i > 0 {
                t.push((i, i - 1, -1.0));
            }
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
            }
        }
        Self::from_triplets(n, n, t)
    }

    /// FLOPs of the row strip `[lo, hi)`.
    pub(crate) fn strip_flops(&self, lo: usize, hi: usize) -> f64 {
        2.0 * (self.row_ptr[hi] - self.row_ptr[lo]) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triplet_construction() {
        let m = CsrMatrix::from_triplets(2, 3, [(0, 1, 5.0), (1, 0, 3.0), (0, 1, 2.0)]);
        assert_eq!(m.row_ptr, vec![0, 1, 2]); // duplicate (0,1) summed
        assert_eq!(m.col_idx, vec![1, 0]);
        assert_eq!(m.values, vec![7.0, 3.0]);
    }

    #[test]
    fn poisson_pattern() {
        let m = CsrMatrix::poisson_1d(5);
        // 5 diag + 2*4 off-diag; boundary rows hold two entries.
        assert_eq!(m.row_ptr, vec![0, 2, 5, 8, 11, 13]);
    }

    #[test]
    fn flop_accounting() {
        let m = CsrMatrix::poisson_1d(10);
        let total: f64 = crate::vecadd::block_ranges(10, 3)
            .into_iter()
            .map(|(lo, hi)| m.strip_flops(lo, hi))
            .sum();
        assert_eq!(total, m.strip_flops(0, 10));
        assert_eq!(total, 2.0 * 28.0); // 10 diag + 2*9 off-diag
    }

    #[test]
    fn empty_rows_are_fine() {
        let m = CsrMatrix::from_triplets(3, 3, [(0, 0, 1.0), (2, 2, 1.0)]);
        assert_eq!(m.row_ptr, vec![0, 1, 1, 2]);
        assert_eq!(m.strip_flops(1, 2), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_triplet_panics() {
        CsrMatrix::from_triplets(2, 2, [(2, 0, 1.0)]);
    }
}
