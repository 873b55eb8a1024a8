//! The seven workloads and the helpers they share.

pub mod execute;
pub mod observe;
pub mod predict;
pub mod retarget;

use pdl_core::platform::Platform;

/// Worker threads of the thread engine: no more than cores, and no more than
/// four. The engine's overhead is the subject, not its scaling.
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZero::get)
        .min(4)
}

/// `SplitMix64`: a small seeded generator, so inputs depend on `--seed` alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The registry pin (`name@version (hash12)`) of a descriptor: the exact
/// model instance a result row was produced with.
pub fn pin_of(platform: &Platform) -> String {
    let registry = pdl_registry::Registry::new();
    let published = registry.publish(platform);
    registry
        .snapshot()
        .resolve_str(&published.name, "latest")
        .expect("a descriptor just published resolves")
        .pin()
}
