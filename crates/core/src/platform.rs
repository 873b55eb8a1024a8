//! The [`Platform`]: an immutable, validated platform description.
//!
//! A platform is a forest of processing-unit trees (multiple Masters may
//! co-exist at the top level, paper §III-A) plus a list of interconnect
//! edges. PUs live in an arena indexed by [`PuIdx`]; construction goes
//! through [`PlatformBuilder`], which validates the structural rules before
//! releasing a `Platform` value.

use crate::descriptor::Descriptor;
use crate::error::{ModelError, ValidationIssue};
use crate::id::{GroupId, PuId, PuIdx};
use crate::interconnect::Interconnect;
use crate::memory::MemoryRegion;
use crate::property::Property;
use crate::pu::{ProcessingUnit, PuClass};
use crate::text::Text;
use crate::validate;
use crate::version::Version;
use crate::visit::Dfs;
use std::collections::{BTreeMap, HashSet};
use std::fmt;

/// A validated description of one heterogeneous platform.
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    /// Human-readable platform name (not part of the paper's listings but
    /// required for a usable repository of descriptors).
    pub name: String,
    /// Base-schema version this description adheres to.
    pub schema_version: Version,
    pus: Vec<ProcessingUnit>,
    roots: Vec<PuIdx>,
    interconnects: Vec<Interconnect>,
    id_index: BTreeMap<PuId, PuIdx>,
}

impl Platform {
    /// Starts building a platform with the given name.
    pub fn builder(name: impl Into<String>) -> PlatformBuilder {
        PlatformBuilder::new(name)
    }

    /// Number of PU nodes (not counting `quantity` multiplicity).
    pub fn len(&self) -> usize {
        self.pus.len()
    }

    /// Whether the platform has no PUs.
    pub fn is_empty(&self) -> bool {
        self.pus.is_empty()
    }

    /// Total number of physical PUs, counting `quantity` multiplicity.
    pub fn total_units(&self) -> u64 {
        self.pus.iter().map(|p| p.quantity as u64).sum()
    }

    /// The PU at the given arena index.
    ///
    /// # Panics
    /// Panics if the index is out of bounds (indices are only produced by
    /// this platform, so that indicates a logic error).
    pub fn pu(&self, idx: PuIdx) -> &ProcessingUnit {
        &self.pus[idx.index()]
    }

    /// Looks up a PU by id.
    pub fn pu_by_id(&self, id: &str) -> Option<(PuIdx, &ProcessingUnit)> {
        let idx = *self.id_index.get(id)?;
        Some((idx, &self.pus[idx.index()]))
    }

    /// Arena index for a PU id.
    pub fn index_of(&self, id: &str) -> Option<PuIdx> {
        self.id_index.get(id).copied()
    }

    /// Top-level PU indices (the Masters), in declaration order.
    pub fn roots(&self) -> &[PuIdx] {
        &self.roots
    }

    /// All interconnect edges.
    pub fn interconnects(&self) -> &[Interconnect] {
        &self.interconnects
    }

    /// Iterates over all `(PuIdx, &ProcessingUnit)` pairs in arena order.
    pub fn iter(&self) -> impl Iterator<Item = (PuIdx, &ProcessingUnit)> {
        self.pus
            .iter()
            .enumerate()
            .map(|(i, p)| (PuIdx::from_usize(i), p))
    }

    /// Depth-first (pre-order) traversal over the whole forest.
    pub fn dfs(&self) -> Dfs<'_> {
        Dfs::over_forest(self)
    }

    /// Depth-first traversal of the subtree rooted at `root`.
    pub fn dfs_from(&self, root: PuIdx) -> Dfs<'_> {
        Dfs::over_subtree(self, root)
    }

    /// All PUs of the given class.
    pub(crate) fn by_class(
        &self,
        class: PuClass,
    ) -> impl Iterator<Item = (PuIdx, &ProcessingUnit)> {
        self.iter().filter(move |(_, p)| p.class == class)
    }

    /// All Master PUs.
    pub fn masters(&self) -> impl Iterator<Item = (PuIdx, &ProcessingUnit)> {
        self.by_class(PuClass::Master)
    }

    /// All Worker PUs.
    pub fn workers(&self) -> impl Iterator<Item = (PuIdx, &ProcessingUnit)> {
        self.by_class(PuClass::Worker)
    }

    /// All Hybrid PUs.
    pub fn hybrids(&self) -> impl Iterator<Item = (PuIdx, &ProcessingUnit)> {
        self.by_class(PuClass::Hybrid)
    }

    /// Depth of a PU (roots have depth 0).
    pub fn depth(&self, idx: PuIdx) -> usize {
        let mut d = 0;
        let mut cur = self.pus[idx.index()].parent;
        while let Some(p) = cur {
            d += 1;
            cur = self.pus[p.index()].parent;
        }
        d
    }

    /// Maximum depth over all PUs (empty platform → 0).
    pub fn height(&self) -> usize {
        (0..self.pus.len())
            .map(|i| self.depth(PuIdx::from_usize(i)))
            .max()
            .unwrap_or(0)
    }

    /// Path of arena indices from the root down to (and including) `idx`.
    pub(crate) fn path_from_root(&self, idx: PuIdx) -> Vec<PuIdx> {
        let mut path = vec![idx];
        let mut cur = self.pus[idx.index()].parent;
        while let Some(p) = cur {
            path.push(p);
            cur = self.pus[p.index()].parent;
        }
        path.reverse();
        path
    }

    /// The controlling chain of a PU: its parent, grandparent, … up to the
    /// root Master. Models "delegation of computational tasks from one
    /// processing-unit to another" in reverse.
    pub fn controllers(&self, idx: PuIdx) -> Vec<PuIdx> {
        let mut path = self.path_from_root(idx);
        path.pop();
        path.reverse();
        path
    }

    /// Map of logic-group name → member PU indices (declaration order).
    pub fn groups(&self) -> BTreeMap<GroupId, Vec<PuIdx>> {
        let mut map: BTreeMap<GroupId, Vec<PuIdx>> = BTreeMap::new();
        for (idx, pu) in self.iter() {
            for g in &pu.groups {
                map.entry(g.clone()).or_default().push(idx);
            }
        }
        map
    }

    /// Members of one logic group.
    pub fn group_members(&self, group: &str) -> Vec<PuIdx> {
        self.iter()
            .filter(|(_, p)| p.in_group(group))
            .map(|(i, _)| i)
            .collect()
    }

    /// Expands `quantity` multiplicities into individual PU nodes.
    ///
    /// A PU with `quantity = n > 1` is replaced by `n` clones with ids
    /// `"<id>.<k>"` (`k` in `0..n`), each with quantity 1, identical
    /// payload and identical children subtrees *shared logically* (children
    /// are re-parented to the first clone only — the PDL semantics is that
    /// the subtree describes the structure *per unit*, so each clone receives
    /// its own copy of the subtree). Interconnects whose endpoints had
    /// multiplicity are replicated for each clone pair combination with the
    /// same type/scheme.
    ///
    /// Simulators instantiate physical machines from the expanded form.
    pub fn expand_quantities(&self) -> Platform {
        let mut b = PlatformBuilder::new(self.name.clone());
        b.schema_version(self.schema_version);
        // Map original idx -> list of clone handles.
        let mut clones: Vec<Vec<PuHandle>> = vec![Vec::new(); self.pus.len()];

        fn clone_subtree(
            src: &Platform,
            b: &mut PlatformBuilder,
            clones: &mut Vec<Vec<PuHandle>>,
            idx: PuIdx,
            parent: Option<PuHandle>,
            suffix: &str,
        ) {
            let pu = src.pu(idx);
            let n = pu.quantity.max(1);
            for k in 0..n {
                let id = if n == 1 && suffix.is_empty() {
                    pu.id.clone()
                } else if n == 1 {
                    PuId::new(format!("{}{}", pu.id, suffix))
                } else {
                    PuId::new(format!("{}{}.{}", pu.id, suffix, k))
                };
                let h = match parent {
                    None => b.root(id, pu.class),
                    Some(p) => b.child(p, id, pu.class).expect("parent can control"),
                };
                b.pus[h.0.index()].descriptor = pu.descriptor.clone();
                b.pus[h.0.index()].memory_regions = pu.memory_regions.clone();
                b.pus[h.0.index()].groups = pu.groups.clone();
                clones[idx.index()].push(h);
                let child_suffix = if n == 1 {
                    String::new()
                } else {
                    format!(".{k}")
                };
                for &c in pu.children() {
                    clone_subtree(src, b, clones, c, Some(h), &child_suffix);
                }
            }
        }

        for &r in &self.roots {
            clone_subtree(self, &mut b, &mut clones, r, None, "");
        }

        // Replicate interconnects across clone combinations.
        for ic in &self.interconnects {
            let from_idx = self.index_of(ic.from.as_str());
            let to_idx = self.index_of(ic.to.as_str());
            if let (Some(fi), Some(ti)) = (from_idx, to_idx) {
                for fh in &clones[fi.index()] {
                    for th in &clones[ti.index()] {
                        let mut e = ic.clone();
                        e.from = b.pus[fh.0.index()].id.clone();
                        e.to = b.pus[th.0.index()].id.clone();
                        b.interconnect(e);
                    }
                }
            }
        }

        b.build_unchecked()
    }

    /// Extracts the control-view subtree rooted at `root` as a standalone
    /// platform: the root PU is promoted to Master (a Hybrid "can act as
    /// Master and Worker PU at the same time", §III-A — this is its Master
    /// face), descendants keep their classes, and only interconnects with
    /// both endpoints inside the subtree are retained.
    ///
    /// Tools use this to delegate a sub-hierarchy to a node-local scheduler
    /// in hierarchical systems (Figure 2).
    pub fn subplatform(&self, root: PuIdx) -> Platform {
        let mut b = PlatformBuilder::new(format!("{}@{}", self.name, self.pu(root).id));
        b.schema_version(self.schema_version);
        let mut kept_ids: Vec<PuId> = Vec::new();

        fn copy(
            src: &Platform,
            b: &mut PlatformBuilder,
            idx: PuIdx,
            parent: Option<PuHandle>,
            kept: &mut Vec<PuId>,
            is_root: bool,
        ) {
            let pu = src.pu(idx);
            let class = if is_root { PuClass::Master } else { pu.class };
            let h = match parent {
                None => b.root(pu.id.clone(), class),
                Some(p) => b
                    .child(p, pu.id.clone(), class)
                    .expect("source tree is well-formed"),
            };
            b.descriptor(h, pu.descriptor.clone());
            b.quantity(h, pu.quantity);
            for mr in &pu.memory_regions {
                b.memory(h, mr.clone());
            }
            for g in &pu.groups {
                b.group(h, g.clone());
            }
            kept.push(pu.id.clone());
            for &c in pu.children() {
                copy(src, b, c, Some(h), kept, false);
            }
        }
        copy(self, &mut b, root, None, &mut kept_ids, true);

        for ic in &self.interconnects {
            if kept_ids.contains(&ic.from) && kept_ids.contains(&ic.to) {
                b.interconnect(ic.clone());
            }
        }
        b.build_unchecked()
    }

    /// Re-checks the structural rules; a `Platform` built through
    /// [`PlatformBuilder::build`] always passes.
    pub fn validate(&self) -> Result<(), ModelError> {
        let issues = validate::check(self);
        if issues.is_empty() {
            Ok(())
        } else {
            Err(ModelError::Invalid(issues))
        }
    }

    /// Collects structural issues without failing.
    pub fn issues(&self) -> Vec<ValidationIssue> {
        validate::check(self)
    }

    pub(crate) fn arena(&self) -> &[ProcessingUnit] {
        &self.pus
    }
}

impl fmt::Display for Platform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Platform {:?} (schema v{}, {} PUs, {} interconnects)",
            self.name,
            self.schema_version,
            self.len(),
            self.interconnects.len()
        )?;
        for (idx, pu) in self.dfs() {
            let indent = "  ".repeat(self.depth(idx) + 1);
            writeln!(f, "{indent}{pu}")?;
        }
        for ic in &self.interconnects {
            writeln!(f, "  IC {ic}")?;
        }
        Ok(())
    }
}

/// Opaque handle to a PU under construction. Only valid for the builder that
/// produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PuHandle(pub(crate) PuIdx);

/// Mutable construction state for a [`Platform`].
///
/// ```
/// use pdl_core::prelude::*;
///
/// // Listing 1 of the paper: one x86 Master with one GPU Worker.
/// let mut b = Platform::builder("gpgpu-node");
/// let m = b.master("0");
/// b.prop(m, Property::fixed("ARCHITECTURE", "x86"));
/// let w = b.worker(m, "1").unwrap();
/// b.prop(w, Property::fixed("ARCHITECTURE", "gpu"));
/// b.interconnect(Interconnect::new("rDMA", "0", "1"));
/// let platform = b.build().unwrap();
/// assert_eq!(platform.workers().count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct PlatformBuilder {
    name: String,
    schema_version: Version,
    pub(crate) pus: Vec<ProcessingUnit>,
    roots: Vec<PuIdx>,
    interconnects: Vec<Interconnect>,
    /// Every text [`Self::intern`] has handed out; dropped at build.
    texts: HashSet<Text>,
    /// The text last interned in each of [`RECENT`] slots picked by length
    /// and last bytes, looked at before `texts`: a description repeats the
    /// same names and values descriptor after descriptor, and comparing a
    /// few bytes costs less than hashing them. A miss is only slower. Empty
    /// until the first [`Self::intern`].
    recent: Vec<Option<Text>>,
}

const RECENT: usize = 256;

/// The [`PlatformBuilder::recent`] slot of `s`: its length and last eight
/// bytes, mixed.
fn recent_slot(s: &str) -> usize {
    let tail = &s.as_bytes()[s.len().saturating_sub(8)..];
    let mut word = [0u8; 8];
    word[..tail.len()].copy_from_slice(tail);
    let mixed = (u64::from_le_bytes(word) ^ s.len() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (mixed >> 56) as usize
}

impl PlatformBuilder {
    /// Starts an empty platform.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            schema_version: Version::CURRENT,
            pus: Vec::new(),
            roots: Vec::new(),
            interconnects: Vec::new(),
            texts: HashSet::new(),
            recent: Vec::new(),
        }
    }

    /// The platform's one copy of `s`: the first call with a text
    /// allocates it, every later call with equal text shares it. Parsers
    /// pass ids, names and values through here, so a platform stores each
    /// distinct string once.
    pub fn intern(&mut self, s: &str) -> Text {
        if self.recent.is_empty() {
            self.recent.resize(RECENT, None);
        }
        let recent = &mut self.recent[recent_slot(s)];
        if let Some(t) = recent.as_ref().filter(|t| t.as_str() == s) {
            return t.clone();
        }
        let t = match self.texts.get(s) {
            Some(t) => t.clone(),
            None => {
                let t = Text::from(s);
                self.texts.insert(t.clone());
                t
            }
        };
        *recent = Some(t.clone());
        t
    }

    /// Overrides the schema version (defaults to [`Version::CURRENT`]).
    pub fn schema_version(&mut self, v: Version) -> &mut Self {
        self.schema_version = v;
        self
    }

    /// Adds a top-level PU of the given class. Use [`Self::master`] for the
    /// common case; this entry point exists so invalid descriptions (e.g.
    /// top-level Workers) can be constructed for testing and then rejected
    /// by [`Self::build`].
    pub fn root(&mut self, id: impl Into<PuId>, class: PuClass) -> PuHandle {
        let idx = self.push_pu(ProcessingUnit::new(id, class));
        self.roots.push(idx);
        PuHandle(idx)
    }

    /// Adds a top-level Master PU.
    pub fn master(&mut self, id: impl Into<PuId>) -> PuHandle {
        self.root(id, PuClass::Master)
    }

    /// Adds a child PU of the given class under `parent`.
    ///
    /// Fails with [`ModelError::CannotControl`] when the parent is a Worker.
    pub fn child(
        &mut self,
        parent: PuHandle,
        id: impl Into<PuId>,
        class: PuClass,
    ) -> Result<PuHandle, ModelError> {
        let pidx = self.check_handle(parent)?;
        let pclass = self.pus[pidx.index()].class;
        if !pclass.may_control() {
            return Err(ModelError::CannotControl {
                parent: self.pus[pidx.index()].id.clone(),
                class: pclass,
            });
        }
        let mut pu = ProcessingUnit::new(id, class);
        pu.parent = Some(pidx);
        let idx = self.push_pu(pu);
        self.pus[pidx.index()].children.push(idx);
        Ok(PuHandle(idx))
    }

    /// Adds a Worker under `parent`.
    pub fn worker(
        &mut self,
        parent: PuHandle,
        id: impl Into<PuId>,
    ) -> Result<PuHandle, ModelError> {
        self.child(parent, id, PuClass::Worker)
    }

    /// Adds a Hybrid under `parent`.
    pub fn hybrid(
        &mut self,
        parent: PuHandle,
        id: impl Into<PuId>,
    ) -> Result<PuHandle, ModelError> {
        self.child(parent, id, PuClass::Hybrid)
    }

    /// Appends a property to a PU's descriptor.
    pub fn prop(&mut self, pu: PuHandle, property: Property) -> &mut Self {
        self.pus[pu.0.index()].descriptor.push(property);
        self
    }

    /// Replaces a PU's whole descriptor.
    pub fn descriptor(&mut self, pu: PuHandle, descriptor: Descriptor) -> &mut Self {
        self.pus[pu.0.index()].descriptor = descriptor;
        self
    }

    /// Sets a PU's quantity (multiplicity).
    pub fn quantity(&mut self, pu: PuHandle, quantity: u32) -> &mut Self {
        self.pus[pu.0.index()].quantity = quantity;
        self
    }

    /// Attaches a memory region to a PU.
    pub fn memory(&mut self, pu: PuHandle, mr: MemoryRegion) -> &mut Self {
        self.pus[pu.0.index()].memory_regions.push(mr);
        self
    }

    /// Adds a PU to a logic group.
    pub fn group(&mut self, pu: PuHandle, group: impl Into<GroupId>) -> &mut Self {
        self.pus[pu.0.index()].groups.push(group.into());
        self
    }

    /// Adds an interconnect edge.
    pub fn interconnect(&mut self, ic: Interconnect) -> &mut Self {
        self.interconnects.push(ic);
        self
    }

    /// Validates and releases the platform.
    pub fn build(self) -> Result<Platform, ModelError> {
        let p = self.build_unchecked();
        p.validate()?;
        Ok(p)
    }

    /// Releases the platform without validation (issues remain queryable via
    /// [`Platform::issues`]). Needed for authoring flows that construct
    /// descriptions incrementally and for negative tests.
    pub fn build_unchecked(self) -> Platform {
        let mut id_index = BTreeMap::new();
        for (i, pu) in self.pus.iter().enumerate() {
            // First declaration wins; duplicates surface as validation issues.
            id_index
                .entry(pu.id.clone())
                .or_insert_with(|| PuIdx::from_usize(i));
        }
        Platform {
            name: self.name,
            schema_version: self.schema_version,
            pus: self.pus,
            roots: self.roots,
            interconnects: self.interconnects,
            id_index,
        }
    }

    fn push_pu(&mut self, pu: ProcessingUnit) -> PuIdx {
        let idx = PuIdx::from_usize(self.pus.len());
        self.pus.push(pu);
        idx
    }

    fn check_handle(&self, h: PuHandle) -> Result<PuIdx, ModelError> {
        if h.0.index() < self.pus.len() {
            Ok(h.0)
        } else {
            Err(ModelError::BadHandle(format!(
                "handle {} out of range ({} PUs)",
                h.0,
                self.pus.len()
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn listing1() -> Platform {
        let mut b = Platform::builder("listing1");
        let m = b.master("0");
        b.prop(m, Property::fixed("ARCHITECTURE", "x86"));
        let w = b.worker(m, "1").unwrap();
        b.prop(w, Property::fixed("ARCHITECTURE", "gpu"));
        b.interconnect(Interconnect::new("rDMA", "0", "1"));
        b.build().unwrap()
    }

    #[test]
    fn listing1_structure() {
        let p = listing1();
        assert_eq!(p.len(), 2);
        assert_eq!(p.roots().len(), 1);
        assert_eq!(p.masters().count(), 1);
        assert_eq!(p.workers().count(), 1);
        assert_eq!(p.hybrids().count(), 0);
        let (widx, w) = p.pu_by_id("1").unwrap();
        assert_eq!(w.architecture(), Some("gpu"));
        assert_eq!(p.depth(widx), 1);
        assert_eq!(p.height(), 1);
        assert_eq!(p.interconnects().len(), 1);
    }

    #[test]
    fn worker_cannot_control() {
        let mut b = Platform::builder("x");
        let m = b.master("0");
        let w = b.worker(m, "1").unwrap();
        let err = b.worker(w, "2").unwrap_err();
        assert!(matches!(err, ModelError::CannotControl { .. }));
    }

    #[test]
    fn multiple_masters_coexist() {
        let mut b = Platform::builder("dual");
        b.master("cpu0");
        b.master("cpu1");
        let p = b.build().unwrap();
        assert_eq!(p.roots().len(), 2);
        assert_eq!(p.masters().count(), 2);
    }

    #[test]
    fn hierarchy_paths() {
        let mut b = Platform::builder("deep");
        let m = b.master("m");
        let h = b.hybrid(m, "h").unwrap();
        let w = b.worker(h, "w").unwrap();
        let p = b.build().unwrap();
        let widx = p.index_of("w").unwrap();
        let path: Vec<_> = p
            .path_from_root(widx)
            .into_iter()
            .map(|i| p.pu(i).id.as_str().to_string())
            .collect();
        assert_eq!(path, ["m", "h", "w"]);
        let ctl: Vec<_> = p
            .controllers(widx)
            .into_iter()
            .map(|i| p.pu(i).id.as_str().to_string())
            .collect();
        assert_eq!(ctl, ["h", "m"]);
        let _ = (h, w);
    }

    #[test]
    fn groups_collected() {
        let mut b = Platform::builder("g");
        let m = b.master("0");
        let w1 = b.worker(m, "1").unwrap();
        let w2 = b.worker(m, "2").unwrap();
        b.group(w1, "gpus").group(w2, "gpus").group(w2, "fast");
        let p = b.build().unwrap();
        let groups = p.groups();
        assert_eq!(groups[&GroupId::new("gpus")].len(), 2);
        assert_eq!(groups[&GroupId::new("fast")].len(), 1);
        assert_eq!(p.group_members("gpus").len(), 2);
        assert!(p.group_members("none").is_empty());
    }

    #[test]
    fn total_units_counts_quantity() {
        let mut b = Platform::builder("q");
        let m = b.master("0");
        let w = b.worker(m, "spe").unwrap();
        b.quantity(w, 8);
        let p = b.build().unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.total_units(), 9);
    }

    #[test]
    fn expand_quantities_clones_units() {
        let mut b = Platform::builder("cell");
        let m = b.master("ppe");
        let w = b.worker(m, "spe").unwrap();
        b.quantity(w, 8);
        b.interconnect(Interconnect::new("EIB", "ppe", "spe"));
        let p = b.build().unwrap();
        let e = p.expand_quantities();
        assert_eq!(e.len(), 9);
        assert_eq!(e.total_units(), 9);
        assert!(e.pu_by_id("spe.0").is_some());
        assert!(e.pu_by_id("spe.7").is_some());
        assert!(e.pu_by_id("spe").is_none());
        // one EIB edge per clone
        assert_eq!(e.interconnects().len(), 8);
        e.validate().unwrap();
    }

    #[test]
    fn expand_quantities_replicates_subtrees() {
        // Hybrid node with quantity 2, each controlling one worker:
        // expansion must yield 2 hybrids and 2 workers.
        let mut b = Platform::builder("cluster");
        let m = b.master("fe");
        let h = b.hybrid(m, "node").unwrap();
        b.quantity(h, 2);
        let w = b.worker(h, "gpu").unwrap();
        let _ = w;
        let p = b.build().unwrap();
        let e = p.expand_quantities();
        assert_eq!(e.hybrids().count(), 2);
        assert_eq!(e.workers().count(), 2);
        assert!(e.pu_by_id("node.0").is_some());
        assert!(e.pu_by_id("gpu.0").is_some());
        assert!(e.pu_by_id("gpu.1").is_some());
        e.validate().unwrap();
    }

    #[test]
    fn subplatform_promotes_hybrid_to_master() {
        let mut b = Platform::builder("cluster");
        let m = b.master("fe");
        let h = b.hybrid(m, "node0").unwrap();
        b.prop(h, Property::fixed("ARCHITECTURE", "x86"));
        let w = b.worker(h, "gpu0").unwrap();
        b.group(w, "gpus");
        b.worker(m, "other").unwrap();
        b.interconnect(Interconnect::new("PCIe", "node0", "gpu0"));
        b.interconnect(Interconnect::new("IB", "fe", "node0"));
        let p = b.build().unwrap();

        let node_idx = p.index_of("node0").unwrap();
        let sub = p.subplatform(node_idx);
        sub.validate().unwrap();
        assert_eq!(sub.name, "cluster@node0");
        assert_eq!(sub.len(), 2);
        let (_, root) = sub.pu_by_id("node0").unwrap();
        assert_eq!(root.class, PuClass::Master); // promoted
        assert_eq!(root.architecture(), Some("x86")); // payload kept
        assert!(sub.pu_by_id("gpu0").is_some());
        assert!(sub.pu_by_id("fe").is_none());
        assert!(sub.pu_by_id("other").is_none());
        // Only the internal interconnect survives.
        assert_eq!(sub.interconnects().len(), 1);
        assert_eq!(sub.interconnects()[0].ic_type, "PCIe");
        assert_eq!(sub.group_members("gpus").len(), 1);
    }

    #[test]
    fn subplatform_of_master_is_identity_shape() {
        let p = listing1();
        let sub = p.subplatform(p.roots()[0]);
        sub.validate().unwrap();
        assert_eq!(sub.len(), p.len());
        assert_eq!(sub.interconnects().len(), 1);
    }

    #[test]
    fn display_renders_tree() {
        let p = listing1();
        let s = p.to_string();
        assert!(s.contains("Master(id=0"));
        assert!(s.contains("Worker(id=1"));
        assert!(s.contains("rDMA"));
    }

    #[test]
    fn bad_handle_detected() {
        let mut b = Platform::builder("x");
        let m = b.master("0");
        let mut other = Platform::builder("y");
        // Handle from b used against empty builder `other`.
        let err = other.child(m, "1", PuClass::Worker).unwrap_err();
        assert!(matches!(err, ModelError::BadHandle(_)));
    }
}
