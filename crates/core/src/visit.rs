//! Traversal iterators over the platform forest.

use crate::id::PuIdx;
use crate::platform::Platform;
use crate::pu::ProcessingUnit;

/// Depth-first pre-order traversal.
pub struct Dfs<'a> {
    platform: &'a Platform,
    stack: Vec<PuIdx>,
}

impl<'a> Dfs<'a> {
    pub(crate) fn over_forest(platform: &'a Platform) -> Self {
        let mut stack: Vec<PuIdx> = platform.roots().to_vec();
        stack.reverse();
        Self { platform, stack }
    }

    pub(crate) fn over_subtree(platform: &'a Platform, root: PuIdx) -> Self {
        Self {
            platform,
            stack: vec![root],
        }
    }
}

impl<'a> Iterator for Dfs<'a> {
    type Item = (PuIdx, &'a ProcessingUnit);

    fn next(&mut self) -> Option<Self::Item> {
        let idx = self.stack.pop()?;
        let pu = self.platform.pu(idx);
        // Push children reversed so the leftmost child is visited first.
        for &c in pu.children().iter().rev() {
            self.stack.push(c);
        }
        Some((idx, pu))
    }
}

#[cfg(test)]
mod tests {
    use crate::platform::Platform;

    /// Builds:
    /// ```text
    /// m1            m2
    /// ├── h1        └── w4
    /// │   ├── w1
    /// │   └── w2
    /// └── w3
    /// ```
    fn forest() -> Platform {
        let mut b = Platform::builder("f");
        let m1 = b.master("m1");
        let h1 = b.hybrid(m1, "h1").unwrap();
        b.worker(h1, "w1").unwrap();
        b.worker(h1, "w2").unwrap();
        b.worker(m1, "w3").unwrap();
        let m2 = b.master("m2");
        b.worker(m2, "w4").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn dfs_preorder() {
        let p = forest();
        let order: Vec<String> = p.dfs().map(|(_, pu)| pu.id.to_string()).collect();
        assert_eq!(order, ["m1", "h1", "w1", "w2", "w3", "m2", "w4"]);
    }

    #[test]
    fn dfs_subtree() {
        let p = forest();
        let h1 = p.index_of("h1").unwrap();
        let order: Vec<String> = p.dfs_from(h1).map(|(_, pu)| pu.id.to_string()).collect();
        assert_eq!(order, ["h1", "w1", "w2"]);
    }

    #[test]
    fn traversals_cover_every_pu_once() {
        let p = forest();
        assert_eq!(p.dfs().count(), p.len());
    }

    #[test]
    fn empty_platform_traversals() {
        let p = Platform::builder("empty").build().unwrap();
        assert_eq!(p.dfs().count(), 0);
    }
}
