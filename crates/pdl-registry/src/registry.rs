//! The registry proper: named release series over interned descriptors,
//! with RCU-style concurrent snapshot reads.
//!
//! # Concurrency model
//!
//! The whole catalog state lives in one immutable [`Snapshot`] behind an
//! `Arc`. Readers call [`Registry::snapshot`] — a sub-microsecond
//! read-lock + `Arc` clone — and then run any number of
//! resolve/select/diff queries against plain immutable data with **no
//! further synchronization at all**; a snapshot is a consistent view of
//! the catalog frozen at one publish epoch, so a request never observes a
//! half-applied publish. Publishers serialize among themselves, build the
//! next snapshot off to the side (structure sharing: series and interned
//! descriptors are `Arc`s, so an incremental publish clones two `BTreeMap`
//! spines, not the catalog), and swap the `Arc` in one short write-locked
//! store. Readers are never blocked for the duration of a publish — only
//! for the pointer swap itself.
//!
//! The [`Registry::epoch`] counter is published through an atomic so
//! cache layers can detect staleness without touching the lock.

use crate::canon::{canonicalize, content_hash};
use crate::hash::ContentHash;
use crate::layers::{compose, Layer};
use crate::semver::{classify, Compatibility, SemVer, VersionReq};
use pdl_core::platform::Platform;
use pdl_query::capability::RequirementSet;
use pdl_query::diff::{diff, Change};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// Registry lookup/publish errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// No release series under that name.
    UnknownPlatform(String),
    /// The series exists but no release matches the requirement.
    NoMatchingVersion {
        /// Series name.
        name: String,
        /// The requirement that failed to match.
        req: String,
    },
    /// A requirement string failed to parse.
    BadVersionReq(String),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::UnknownPlatform(n) => write!(f, "registry has no platform named {n:?}"),
            RegistryError::NoMatchingVersion { name, req } => {
                write!(f, "no release of {name:?} matches {req:?}")
            }
            RegistryError::BadVersionReq(s) => write!(f, "invalid version requirement {s:?}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// An immutable, content-addressed descriptor as stored in the registry.
///
/// The platform inside is the *canonical* form ([`crate::canon`]), so two
/// interned descriptors are byte-identical iff their hashes are equal.
#[derive(Debug)]
pub struct InternedPlatform {
    hash: ContentHash,
    platform: Platform,
}

impl InternedPlatform {
    /// The content address.
    pub fn hash(&self) -> ContentHash {
        self.hash
    }

    /// The canonicalized platform description.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }
}

/// One release of a named series.
#[derive(Debug, Clone)]
pub struct Release {
    /// Version number within the series.
    pub version: SemVer,
    /// How this release relates to its predecessor; `None` on the first.
    pub compat: Option<Compatibility>,
    /// The interned descriptor content.
    pub platform: Arc<InternedPlatform>,
}

/// The release history of one platform name, ascending by version.
#[derive(Debug, Default)]
pub struct Series {
    releases: Vec<Release>,
}

impl Series {
    /// All releases, oldest first.
    pub fn releases(&self) -> &[Release] {
        &self.releases
    }

    /// The newest release.
    pub fn head(&self) -> &Release {
        self.releases.last().expect("series are never empty")
    }

    /// All version numbers, ascending.
    pub fn versions(&self) -> Vec<SemVer> {
        self.releases.iter().map(|r| r.version).collect()
    }

    /// The release with the exact version.
    pub(crate) fn release(&self, v: SemVer) -> Option<&Release> {
        self.releases.iter().find(|r| r.version == v)
    }
}

/// A successfully resolved descriptor reference.
#[derive(Debug, Clone)]
pub struct Resolved {
    /// Series name.
    pub name: String,
    /// Concrete version the requirement resolved to.
    pub version: SemVer,
    /// The interned descriptor (shared, not copied).
    pub platform: Arc<InternedPlatform>,
}

impl Resolved {
    /// `name@version` plus short hash, for logs.
    pub fn pin(&self) -> String {
        format!(
            "{}@{} ({})",
            self.name,
            self.version,
            self.platform.hash().short()
        )
    }
}

/// The outcome of one publish call.
#[derive(Debug, Clone)]
pub struct PublishOutcome {
    /// Series name.
    pub name: String,
    /// Version the content is now available under.
    pub version: SemVer,
    /// Content address of the (canonicalized) descriptor.
    pub hash: ContentHash,
    /// Classification against the previous head, `None` for a first release.
    pub compat: Option<Compatibility>,
    /// `false` when the content was already the series head (idempotent
    /// republish — no new release was created).
    pub created: bool,
}

/// An immutable, consistent view of the whole catalog at one epoch.
#[derive(Debug, Default)]
pub struct Snapshot {
    epoch: u64,
    by_name: BTreeMap<String, Arc<Series>>,
    by_hash: BTreeMap<ContentHash, Arc<InternedPlatform>>,
}

impl Snapshot {
    /// The publish epoch this snapshot was taken at (0 = empty registry).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of release series (named platforms).
    pub fn len(&self) -> usize {
        self.by_name.len()
    }

    /// Whether the catalog holds no series.
    pub fn is_empty(&self) -> bool {
        self.by_name.is_empty()
    }

    /// Total number of releases across all series.
    pub fn total_releases(&self) -> usize {
        self.by_name.values().map(|s| s.releases().len()).sum()
    }

    /// The release series for a name.
    pub fn series(&self, name: &str) -> Option<&Arc<Series>> {
        self.by_name.get(name)
    }

    /// Resolves `name` at the newest version matching `req`.
    pub fn resolve(&self, name: &str, req: &VersionReq) -> Result<Resolved, RegistryError> {
        let series = self
            .by_name
            .get(name)
            .ok_or_else(|| RegistryError::UnknownPlatform(name.to_string()))?;
        let version =
            req.select(&series.versions())
                .ok_or_else(|| RegistryError::NoMatchingVersion {
                    name: name.to_string(),
                    req: req.to_string(),
                })?;
        let release = series.release(version).expect("selected from own versions");
        Ok(Resolved {
            name: name.to_string(),
            version,
            platform: Arc::clone(&release.platform),
        })
    }

    /// Resolves with a textual requirement (`"latest"`, `"^1.2"`, …).
    pub fn resolve_str(&self, name: &str, req: &str) -> Result<Resolved, RegistryError> {
        let req = VersionReq::parse(req).ok_or_else(|| RegistryError::BadVersionReq(req.into()))?;
        self.resolve(name, &req)
    }

    /// Capability selection: the newest release of every series whose
    /// platform satisfies the requirement set.
    pub fn select(&self, requirements: &RequirementSet) -> Vec<Resolved> {
        self.by_name
            .iter()
            .filter_map(|(name, series)| {
                let head = series.head();
                requirements
                    .supported_by(head.platform.platform())
                    .then(|| Resolved {
                        name: name.clone(),
                        version: head.version,
                        platform: Arc::clone(&head.platform),
                    })
            })
            .collect()
    }

    /// Structural diff between two releases of one series. Descriptors are
    /// stored canonicalized, so presentation differences never show up.
    pub fn diff(
        &self,
        name: &str,
        from: &VersionReq,
        to: &VersionReq,
    ) -> Result<Vec<Change>, RegistryError> {
        let a = self.resolve(name, from)?;
        let b = self.resolve(name, to)?;
        if a.platform.hash() == b.platform.hash() {
            return Ok(Vec::new());
        }
        Ok(diff(a.platform.platform(), b.platform.platform()))
    }
}

/// The versioned platform-model registry.
///
/// Cheap to share (`Registry` is `Sync`); see the module docs for the
/// concurrency model.
#[derive(Debug, Default)]
pub struct Registry {
    // Both locks ignore poison. `publish_lock` guards `()`, and `current`
    // only ever changes by one whole-`Arc` assignment, so a lock whose
    // holder panicked still holds a consistent snapshot.
    current: RwLock<Arc<Snapshot>>,
    publish_lock: Mutex<()>,
    epoch: AtomicU64,
}

impl Registry {
    /// An empty registry at epoch 0.
    pub fn new() -> Self {
        Registry {
            current: RwLock::new(Arc::new(Snapshot::default())),
            publish_lock: Mutex::new(()),
            epoch: AtomicU64::new(0),
        }
    }

    /// The current publish epoch, without taking the snapshot lock.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Takes a consistent, immutable view of the catalog. All queries on
    /// the returned [`Snapshot`] are synchronization-free.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.current.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Publishes a descriptor under its own platform name. The content is
    /// canonicalized, interned by content address, and versioned against
    /// the current series head (see [`crate::semver`] for the bump rules).
    /// Idempotent: republishing the series head returns the existing
    /// release with `created: false` and does not advance the epoch.
    pub fn publish(&self, platform: &Platform) -> PublishOutcome {
        // Canonicalization preserves the address, so the hash comes from
        // the caller's platform and only content the catalog does not hold
        // is rebuilt — before the lock, so concurrent publishers do not
        // queue behind it.
        let hash = content_hash(platform);
        let name = platform.name.clone();
        let held = self.snapshot().by_hash.get(&hash).cloned();
        let interned = held.unwrap_or_else(|| {
            Arc::new(InternedPlatform {
                hash,
                platform: canonicalize(platform),
            })
        });

        let _guard = self
            .publish_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let prev = self.snapshot();

        if let Some(series) = prev.by_name.get(&name) {
            let head = series.head();
            if head.platform.hash() == hash {
                return PublishOutcome {
                    name,
                    version: head.version,
                    hash,
                    compat: Some(Compatibility::Identical),
                    created: false,
                };
            }
        }

        // Intern (reuse an existing identical content from any series;
        // another publisher may have added it since the look above).
        let interned = prev.by_hash.get(&hash).cloned().unwrap_or(interned);

        let (version, compat, mut releases) = match prev.by_name.get(&name) {
            Some(series) => {
                let head = series.head();
                let changes = diff(head.platform.platform(), interned.platform());
                let compat = classify(&changes, false);
                (
                    head.version.bumped(compat),
                    Some(compat),
                    series.releases().to_vec(),
                )
            }
            None => (SemVer::INITIAL, None, Vec::new()),
        };
        releases.push(Release {
            version,
            compat,
            platform: Arc::clone(&interned),
        });

        let mut by_name = prev.by_name.clone();
        by_name.insert(name.clone(), Arc::new(Series { releases }));
        let mut by_hash = prev.by_hash.clone();
        by_hash.insert(hash, interned);

        let epoch = prev.epoch + 1;
        let next = Arc::new(Snapshot {
            epoch,
            by_name,
            by_hash,
        });
        *self.current.write().unwrap_or_else(PoisonError::into_inner) = next;
        self.epoch.store(epoch, Ordering::Release);

        PublishOutcome {
            name,
            version,
            hash,
            compat,
            created: true,
        }
    }

    /// Composes `base` with `layers` (order-insensitively) and publishes
    /// the result.
    pub fn publish_composed(&self, base: &Platform, layers: &[Layer]) -> PublishOutcome {
        self.publish(&compose(base, layers))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdl_core::prelude::*;

    fn plat(name: &str, cores: &str) -> Platform {
        let mut b = Platform::builder(name);
        let m = b.master("cpu");
        b.prop(m, Property::fixed("ARCHITECTURE", "x86"));
        b.prop(m, Property::fixed("CORES", cores));
        let w = b.worker(m, "gpu0").unwrap();
        b.prop(w, Property::fixed("ARCHITECTURE", "gpu"));
        b.interconnect(Interconnect::new("PCIe", "cpu", "gpu0"));
        b.build().unwrap()
    }

    #[test]
    fn first_publish_is_1_0_0() {
        let reg = Registry::new();
        let out = reg.publish(&plat("node", "8"));
        assert_eq!(out.version, SemVer::INITIAL);
        assert_eq!(out.compat, None);
        assert!(out.created);
        assert_eq!(reg.epoch(), 1);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap.total_releases(), 1);
        let r = snap.resolve("node", &VersionReq::Latest).unwrap();
        assert_eq!(r.version, SemVer::new(1, 0, 0));
        assert_eq!(r.platform.hash(), out.hash);
    }

    #[test]
    fn republish_is_idempotent() {
        let reg = Registry::new();
        reg.publish(&plat("node", "8"));
        let epoch = reg.epoch();
        // Same content, different property order: canonically identical.
        let mut b = Platform::builder("node");
        let m = b.master("cpu");
        b.prop(m, Property::fixed("CORES", "8"));
        b.prop(m, Property::fixed("ARCHITECTURE", "x86"));
        let w = b.worker(m, "gpu0").unwrap();
        b.prop(w, Property::fixed("ARCHITECTURE", "gpu"));
        b.interconnect(Interconnect::new("PCIe", "cpu", "gpu0"));
        let out = reg.publish(&b.build().unwrap());
        assert!(!out.created);
        assert_eq!(out.compat, Some(Compatibility::Identical));
        assert_eq!(reg.epoch(), epoch);
        assert_eq!(reg.snapshot().total_releases(), 1);
    }

    #[test]
    fn value_change_bumps_major() {
        let reg = Registry::new();
        reg.publish(&plat("node", "8"));
        let out = reg.publish(&plat("node", "16"));
        assert_eq!(out.compat, Some(Compatibility::Major));
        assert_eq!(out.version, SemVer::new(2, 0, 0));
        let snap = reg.snapshot();
        // Both releases remain resolvable.
        let v1 = snap.resolve_str("node", "^1").unwrap();
        let v2 = snap.resolve_str("node", "latest").unwrap();
        assert_eq!(v1.version, SemVer::new(1, 0, 0));
        assert_eq!(v2.version, SemVer::new(2, 0, 0));
        // A fourth field is refused, not dropped to pin 1.0.0.
        assert_eq!(
            snap.resolve_str("node", "1.0.0.4").map(|r| r.version),
            Err(RegistryError::BadVersionReq("1.0.0.4".into()))
        );
        assert_eq!(
            v1.platform.platform().pu_by_id("cpu").unwrap().1.cores(),
            Some(8)
        );
        assert_eq!(
            v2.platform.platform().pu_by_id("cpu").unwrap().1.cores(),
            Some(16)
        );
    }

    #[test]
    fn additive_change_bumps_minor() {
        let reg = Registry::new();
        reg.publish(&plat("node", "8"));
        let mut b = Platform::builder("node");
        let m = b.master("cpu");
        b.prop(m, Property::fixed("ARCHITECTURE", "x86"));
        b.prop(m, Property::fixed("CORES", "8"));
        b.prop(m, Property::fixed("VENDOR", "Intel")); // added
        let w = b.worker(m, "gpu0").unwrap();
        b.prop(w, Property::fixed("ARCHITECTURE", "gpu"));
        let w1 = b.worker(m, "gpu1").unwrap(); // added
        b.prop(w1, Property::fixed("ARCHITECTURE", "gpu"));
        b.interconnect(Interconnect::new("PCIe", "cpu", "gpu0"));
        b.interconnect(Interconnect::new("PCIe", "cpu", "gpu1"));
        let out = reg.publish(&b.build().unwrap());
        assert_eq!(out.compat, Some(Compatibility::Minor));
        assert_eq!(out.version, SemVer::new(1, 1, 0));
    }

    #[test]
    fn memory_region_change_is_a_patch() {
        let reg = Registry::new();
        let mut p = plat("node", "8");
        reg.publish(&p);
        // The structural diff does not model MR descriptors; only the
        // content address changes.
        let mut b = Platform::builder("node");
        let m = b.master("cpu");
        b.prop(m, Property::fixed("ARCHITECTURE", "x86"));
        b.prop(m, Property::fixed("CORES", "8"));
        b.memory(
            m,
            MemoryRegion::new("ram").with_descriptor(
                Descriptor::new().with(Property::fixed("SIZE", "24").with_unit(Unit::GibiByte)),
            ),
        );
        let w = b.worker(m, "gpu0").unwrap();
        b.prop(w, Property::fixed("ARCHITECTURE", "gpu"));
        b.interconnect(Interconnect::new("PCIe", "cpu", "gpu0"));
        p = b.build().unwrap();
        let out = reg.publish(&p);
        assert_eq!(out.compat, Some(Compatibility::Patch));
        assert_eq!(out.version, SemVer::new(1, 0, 1));
    }

    #[test]
    fn diff_of_same_release_is_empty() {
        let reg = Registry::new();
        reg.publish(&plat("node", "8"));
        reg.publish(&plat("node", "16"));
        let snap = reg.snapshot();
        let latest = VersionReq::Latest;
        assert!(snap.diff("node", &latest, &latest).unwrap().is_empty());
        let d = snap
            .diff(
                "node",
                &VersionReq::parse("^1").unwrap(),
                &VersionReq::parse("^2").unwrap(),
            )
            .unwrap();
        assert!(!d.is_empty());
    }

    #[test]
    fn interning_shares_content_across_series() {
        let reg = Registry::new();
        let mut a = plat("a", "8");
        reg.publish(&a);
        a.name = "b".into();
        reg.publish(&a);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 2);
        // Names participate in the hash, so these are distinct contents;
        // but republishing identical content under the same name reuses
        // the interned Arc.
        let r1 = snap.resolve_str("a", "latest").unwrap();
        let r2 = snap.resolve_str("a", "=1.0.0").unwrap();
        assert!(Arc::ptr_eq(&r1.platform, &r2.platform));
    }

    #[test]
    fn snapshot_isolation_from_later_publishes() {
        let reg = Registry::new();
        reg.publish(&plat("node", "8"));
        let old = reg.snapshot();
        reg.publish(&plat("node", "16"));
        assert_eq!(old.total_releases(), 1);
        assert_eq!(
            old.resolve_str("node", "latest").unwrap().version,
            SemVer::new(1, 0, 0)
        );
        assert_eq!(
            reg.snapshot()
                .resolve_str("node", "latest")
                .unwrap()
                .version,
            SemVer::new(2, 0, 0)
        );
    }

    #[test]
    fn unknown_lookups_error() {
        let reg = Registry::new();
        reg.publish(&plat("node", "8"));
        let snap = reg.snapshot();
        assert!(matches!(
            snap.resolve_str("nope", "latest"),
            Err(RegistryError::UnknownPlatform(_))
        ));
        assert!(matches!(
            snap.resolve_str("node", "^9"),
            Err(RegistryError::NoMatchingVersion { .. })
        ));
        assert!(matches!(
            snap.resolve_str("node", "??"),
            Err(RegistryError::BadVersionReq(_))
        ));
    }

    #[test]
    fn select_by_capability() {
        use pdl_query::capability::Requirement;
        let reg = Registry::new();
        reg.publish(&plat("gpu-node", "8"));
        let mut b = Platform::builder("cpu-node");
        let m = b.master("cpu");
        b.prop(m, Property::fixed("ARCHITECTURE", "x86"));
        reg.publish(&b.build().unwrap());
        let snap = reg.snapshot();
        let gpus = RequirementSet::new().with(Requirement::Architecture("gpu".into()));
        let hits: Vec<String> = snap.select(&gpus).into_iter().map(|r| r.name).collect();
        assert_eq!(hits, ["gpu-node"]);
        let all = snap.select(&RequirementSet::new());
        assert_eq!(all.len(), 2);
    }

    /// A thread that panics holding `publish_lock`, and one that panics
    /// holding `current` for writing, poison both locks; readers still see
    /// the last epoch and the next publish still advances it.
    #[test]
    fn poisoned_locks_keep_the_snapshot_and_publishing() {
        let reg = Registry::new();
        reg.publish(&plat("node", "8"));
        std::thread::scope(|s| {
            let publisher = s.spawn(|| {
                let _held = reg.publish_lock.lock();
                panic!("publisher died holding the publish lock");
            });
            assert!(publisher.join().is_err());
            let writer = s.spawn(|| {
                let _held = reg.current.write();
                panic!("writer died holding the snapshot lock");
            });
            assert!(writer.join().is_err());
        });
        assert!(reg.publish_lock.is_poisoned() && reg.current.is_poisoned());
        assert_eq!(reg.snapshot().epoch(), 1);
        assert!(reg.publish(&plat("node", "16")).created);
        assert_eq!(reg.epoch(), 2);
        let snap = reg.snapshot();
        assert_eq!(snap.epoch(), 2);
        assert_eq!(snap.series("node").unwrap().releases().len(), 2);
    }
}
