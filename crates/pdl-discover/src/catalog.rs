//! A descriptor catalog: named PDL descriptors, persisted as XML files.
//!
//! Figure 1 of the paper shows tools drawing on "PDL descriptors for
//! various platforms"; a real deployment needs somewhere to keep them. The
//! catalog stores platforms by name, persists each as one `<name>.pdl.xml`
//! file, and answers simple capability queries ("platforms with a GPU
//! worker") so tools can pick a target descriptor.

use pdl_core::platform::Platform;
use pdl_query::capability::RequirementSet;
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Catalog errors.
#[derive(Debug)]
pub enum CatalogError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// A stored document failed to parse/validate/decode.
    Xml {
        /// The offending file.
        file: PathBuf,
        /// The underlying error.
        source: pdl_xml::XmlError,
    },
    /// Name collision on insert.
    Duplicate(String),
    /// Lookup miss.
    NotFound(String),
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::Io(e) => write!(f, "catalog I/O error: {e}"),
            CatalogError::Xml { file, source } => {
                write!(f, "catalog entry {} is invalid: {source}", file.display())
            }
            CatalogError::Duplicate(n) => write!(f, "catalog already contains {n:?}"),
            CatalogError::NotFound(n) => write!(f, "catalog has no platform named {n:?}"),
        }
    }
}

impl std::error::Error for CatalogError {}

impl From<std::io::Error> for CatalogError {
    fn from(e: std::io::Error) -> Self {
        CatalogError::Io(e)
    }
}

/// File suffix of stored descriptors.
pub(crate) const FILE_SUFFIX: &str = ".pdl.xml";

/// An in-memory catalog of named platform descriptors.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    entries: BTreeMap<String, Platform>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// A catalog preloaded with the synthetic platform library.
    pub fn with_builtin_platforms() -> Self {
        let mut c = Self::new();
        for p in [
            crate::synthetic::xeon_x5550_host(),
            crate::synthetic::xeon_2gpu_testbed(),
            crate::synthetic::cell_be(),
            crate::synthetic::gpgpu_cluster(4, 2),
            crate::synthetic::numa_host(2, 4),
        ] {
            c.insert(p).expect("builtin names are unique");
        }
        c
    }

    /// Inserts a platform under its own name.
    pub fn insert(&mut self, platform: Platform) -> Result<(), CatalogError> {
        if self.entries.contains_key(&platform.name) {
            return Err(CatalogError::Duplicate(platform.name.clone()));
        }
        self.entries.insert(platform.name.clone(), platform);
        Ok(())
    }

    /// Replaces (or inserts) a platform under its own name, returning any
    /// previous entry.
    pub fn upsert(&mut self, platform: Platform) -> Option<Platform> {
        self.entries.insert(platform.name.clone(), platform)
    }

    /// Looks up by exact name.
    pub fn get(&self, name: &str) -> Option<&Platform> {
        self.entries.get(name)
    }

    /// Number of stored descriptors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Platform)> {
        self.entries.iter().map(|(n, p)| (n.as_str(), p))
    }

    /// Platforms on which the given requirement set is satisfiable by at
    /// least one PU — "which of my descriptors can run this variant?".
    pub fn supporting<'a>(
        &'a self,
        requirements: &'a RequirementSet,
    ) -> impl Iterator<Item = (&'a str, &'a Platform)> + 'a {
        self.iter().filter(|(_, p)| requirements.supported_by(p))
    }

    /// Publishes every entry into a registry (sorted by name, so version
    /// assignment is deterministic), returning the publish outcomes.
    /// Re-publishing an unchanged catalog is a no-op for every entry.
    pub fn publish_into(
        &self,
        registry: &pdl_registry::Registry,
    ) -> Vec<pdl_registry::PublishOutcome> {
        self.entries.values().map(|p| registry.publish(p)).collect()
    }

    /// Persists every entry as `<dir>/<name>.pdl.xml`.
    pub fn save_to_dir(&self, dir: &Path) -> Result<(), CatalogError> {
        std::fs::create_dir_all(dir)?;
        for (name, platform) in &self.entries {
            let file = dir.join(format!("{}{FILE_SUFFIX}", sanitize(name)));
            std::fs::write(&file, pdl_xml::to_xml(platform))?;
        }
        Ok(())
    }

    /// Loads every `*.pdl.xml` in a directory. Later duplicates (same
    /// platform name from different files) are rejected.
    pub fn load_from_dir(dir: &Path) -> Result<Self, CatalogError> {
        let mut c = Self::new();
        let mut files: Vec<PathBuf> = std::fs::read_dir(dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .map(|n| n.ends_with(FILE_SUFFIX))
                    .unwrap_or(false)
            })
            .collect();
        files.sort();
        for file in files {
            let xml = std::fs::read_to_string(&file)?;
            let platform = pdl_xml::from_xml(&xml).map_err(|source| CatalogError::Xml {
                file: file.clone(),
                source,
            })?;
            c.insert(platform)?;
        }
        Ok(c)
    }
}

/// A registry seeded with the synthetic platform library, each builtin at
/// version `1.0.0`.
pub fn builtin_registry() -> pdl_registry::Registry {
    let registry = pdl_registry::Registry::new();
    Catalog::with_builtin_platforms().publish_into(&registry);
    registry
}

/// Makes a platform name filesystem-safe.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '-' || c == '_' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdl_query::capability::{opencl_gpu_requirements, Requirement};

    #[test]
    fn builtin_catalog() {
        let c = Catalog::with_builtin_platforms();
        assert_eq!(c.len(), 5);
        assert!(c.get("cell-be").is_some());
        assert!(c.get("xeon-x5550-gtx480-gtx285").is_some());
        assert!(c.get("imaginary").is_none());
        let names: Vec<&str> = c.iter().map(|(name, _)| name).collect();
        assert!(names.windows(2).all(|w| w[0] < w[1])); // sorted
    }

    #[test]
    fn duplicate_insert_rejected_but_upsert_allowed() {
        let mut c = Catalog::new();
        let p = crate::synthetic::cell_be();
        c.insert(p.clone()).unwrap();
        assert!(matches!(
            c.insert(p.clone()),
            Err(CatalogError::Duplicate(_))
        ));
        assert!(c.upsert(p).is_some());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn capability_search() {
        let c = Catalog::with_builtin_platforms();
        // Platforms with an OpenCL GPU holding ≥ 1 GB.
        let gpu_reqs = opencl_gpu_requirements(1e9);
        let gpu_platforms: Vec<&str> = c.supporting(&gpu_reqs).map(|(n, _)| n).collect();
        assert!(gpu_platforms.contains(&"xeon-x5550-gtx480-gtx285"));
        assert!(!gpu_platforms.contains(&"cell-be"));
        assert!(!gpu_platforms.contains(&"xeon-x5550-8core"));

        // Platforms with SPE workers.
        let spe = RequirementSet::new().with(Requirement::Architecture("spe".into()));
        let spe_platforms: Vec<&str> = c.supporting(&spe).map(|(n, _)| n).collect();
        assert_eq!(spe_platforms, ["cell-be"]);
    }

    #[test]
    fn directory_round_trip() {
        let dir = std::env::temp_dir().join(format!("pdl-catalog-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let c = Catalog::with_builtin_platforms();
        c.save_to_dir(&dir).unwrap();
        let loaded = Catalog::load_from_dir(&dir).unwrap();
        assert_eq!(loaded.len(), c.len());
        for (name, p) in c.iter() {
            assert_eq!(loaded.get(name), Some(p), "{name}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_file_reported_with_path() {
        let dir = std::env::temp_dir().join(format!("pdl-catalog-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(format!("broken{FILE_SUFFIX}")), "<Master id=").unwrap();
        let err = Catalog::load_from_dir(&dir).unwrap_err();
        assert!(matches!(err, CatalogError::Xml { .. }));
        assert!(err.to_string().contains("broken"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn non_pdl_files_ignored() {
        let dir = std::env::temp_dir().join(format!("pdl-catalog-mixed-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("README.txt"), "not xml").unwrap();
        let c = Catalog::load_from_dir(&dir).unwrap();
        assert!(c.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn publish_into_registry_is_deterministic_and_idempotent() {
        let c = Catalog::with_builtin_platforms();
        let reg = pdl_registry::Registry::new();
        let first = c.publish_into(&reg);
        assert_eq!(first.len(), c.len());
        assert!(first.iter().all(|o| o.created));
        assert!(first
            .iter()
            .all(|o| o.version == pdl_registry::SemVer::INITIAL));
        // Publishing the same catalog again creates nothing new.
        let second = c.publish_into(&reg);
        assert!(second.iter().all(|o| !o.created));
        let snap = reg.snapshot();
        assert_eq!(snap.len(), c.len());
        assert_eq!(snap.total_releases(), c.len());
        for (name, _) in c.iter() {
            assert!(snap.resolve_str(name, "latest").is_ok(), "{name}");
        }
    }

    #[test]
    fn builtin_registry_matches_builtin_catalog() {
        let reg = builtin_registry();
        let snap = reg.snapshot();
        assert_eq!(snap.len(), Catalog::with_builtin_platforms().len());
        let cell = snap.resolve_str("cell-be", "^1").unwrap();
        assert_eq!(cell.name, "cell-be");
    }

    #[test]
    fn sanitize_names() {
        assert_eq!(sanitize("a/b c:d"), "a_b_c_d");
        assert_eq!(sanitize("ok-name_1.2"), "ok-name_1.2");
    }
}
