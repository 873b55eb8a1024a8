//! Cost model of a 2D 5-point Jacobi stencil — a second domain workload
//! (memory-bound, the opposite regime from DGEMM) for the portability sweep.

/// FLOPs per sweep of an `n×n` 5-point Jacobi update (4 adds + 1 multiply
/// per interior point).
pub(crate) fn stencil_flops(n: usize) -> f64 {
    if n < 3 {
        return 0.0;
    }
    5.0 * ((n - 2) as f64).powi(2)
}

/// Bytes of the `n×n` grid.
pub(crate) fn grid_bytes(n: usize) -> f64 {
    (n * n * 8) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs() {
        assert_eq!(stencil_flops(2), 0.0);
        assert_eq!(stencil_flops(4), 5.0 * 4.0);
        assert_eq!(grid_bytes(4), 128.0);
    }
}
