//! Vector addition — the paper's running annotation example (§IV-A
//! `void vectoradd(double *A, double *B)` with `A: readwrite, B: read`).

/// FLOPs of an `n`-element vector addition.
pub(crate) fn vecadd_flops(n: usize) -> f64 {
    n as f64
}

/// Bytes of an `n`-element f64 vector.
pub(crate) fn vector_bytes(n: usize) -> f64 {
    (n * 8) as f64
}

/// `A[i] += B[i]` — the paper's signature (A readwrite, B read).
pub fn vecadd(a: &mut [f64], b: &[f64]) {
    assert_eq!(a.len(), b.len(), "length mismatch");
    for (x, y) in a.iter_mut().zip(b) {
        *x += y;
    }
}

/// Chunked variant: adds only `B[lo..hi]` into `A[lo..hi]` — the task body
/// of a BLOCK-distributed decomposition (`(A:BLOCK:N, B:BLOCK:N)` in the
/// paper's execute annotation).
pub fn vecadd_chunk(a: &mut [f64], b: &[f64], lo: usize, hi: usize) {
    assert!(lo <= hi && hi <= a.len() && a.len() == b.len());
    for i in lo..hi {
        a[i] += b[i];
    }
}

/// Splits `0..n` into `chunks` contiguous ranges of near-equal size
/// (BLOCK distribution).
pub fn block_ranges(n: usize, chunks: usize) -> Vec<(usize, usize)> {
    let chunks = chunks.max(1);
    let base = n / chunks;
    let rem = n % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut lo = 0;
    for c in 0..chunks {
        let len = base + usize::from(c < rem);
        out.push((lo, lo + len));
        lo += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adds_elementwise() {
        let mut a = vec![1.0, 2.0, 3.0];
        let b = vec![10.0, 20.0, 30.0];
        vecadd(&mut a, &b);
        assert_eq!(a, vec![11.0, 22.0, 33.0]);
    }

    #[test]
    fn chunks_compose_to_full_add() {
        let n = 101;
        let mut full: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..n).map(|i| (i * 2) as f64).collect();
        let mut chunked = full.clone();
        vecadd(&mut full, &b);
        for (lo, hi) in block_ranges(n, 7) {
            vecadd_chunk(&mut chunked, &b, lo, hi);
        }
        assert_eq!(full, chunked);
    }

    #[test]
    fn block_ranges_partition() {
        for (n, chunks) in [(10, 3), (0, 4), (7, 7), (5, 10), (100, 1)] {
            let ranges = block_ranges(n, chunks);
            assert_eq!(ranges.len(), chunks.max(1));
            // Contiguous, ordered, covering exactly 0..n.
            let mut expect_lo = 0;
            for &(lo, hi) in &ranges {
                assert_eq!(lo, expect_lo);
                assert!(hi >= lo);
                expect_lo = hi;
            }
            assert_eq!(expect_lo, n);
            // Near-equal: sizes differ by at most 1.
            let sizes: Vec<usize> = ranges.iter().map(|(l, h)| h - l).collect();
            let min = sizes.iter().min().unwrap();
            let max = sizes.iter().max().unwrap();
            assert!(max - min <= 1, "n={n} chunks={chunks} sizes={sizes:?}");
        }
    }

    #[test]
    fn costs() {
        assert_eq!(vecadd_flops(1000), 1000.0);
        assert_eq!(vector_bytes(1000), 8000.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        vecadd(&mut [1.0], &[1.0, 2.0]);
    }
}
