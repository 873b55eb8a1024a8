//! Cost model of a parallel reduction (sum) — the canonical tree-shaped
//! task workload, exercising deep dependency chains in the scheduler
//! ablations.

/// FLOPs of an `n`-element sum.
pub(crate) fn reduce_flops(n: usize) -> f64 {
    n.saturating_sub(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_cases() {
        assert_eq!(reduce_flops(0), 0.0);
        assert_eq!(reduce_flops(100), 99.0);
    }
}
