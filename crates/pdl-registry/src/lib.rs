//! # pdl-registry — versioned platform-model registry service
//!
//! Turns the platform catalog into a versioned, content-addressed
//! registry with concurrent snapshot reads:
//!
//! * **Content addressing** ([`hash`], [`canon`]) — every published
//!   descriptor is canonicalized (attribute order, whitespace, numeric
//!   rendering, edge direction all normalized) and interned under the
//!   SHA-256 of its canonical byte encoding. Semantically equal documents
//!   share one immutable [`InternedPlatform`].
//! * **Composable layers** ([`layers`]) — ISA / microarchitecture /
//!   environment property overlays refine a base structural description;
//!   composition is order-insensitive, so any permutation of a layer set
//!   produces the same content address.
//! * **Semver-style series** ([`semver`]) — publishes are diffed against
//!   the series head with `pdl-query::diff` and version-bumped by
//!   compatibility class; consumers resolve with requirements such as
//!   `"latest"`, `"^1.2"`, or `"=1.0.0"` and can query diffs and
//!   compatibility verdicts between any two releases.
//! * **Concurrent snapshots** ([`registry`]) — readers grab an immutable
//!   [`Snapshot`] `Arc` and run unlimited resolve/select/diff queries with
//!   no further synchronization while publishers swap in new snapshots
//!   behind their backs (RCU-style; see the module docs for exactly where
//!   the one short lock lives).
//!
//! See `docs/REGISTRY.md` for the full design narrative.

pub mod canon;
pub mod hash;
pub mod layers;
pub mod registry;
pub mod semver;

pub use canon::{canonical_bytes, canonicalize, content_hash, CANON_VERSION};
pub use hash::ContentHash;
pub use layers::{compose, Layer, LayerKind, Target};
pub use registry::{
    InternedPlatform, PublishOutcome, Registry, RegistryError, Release, Resolved, Series, Snapshot,
};
pub use semver::{Compatibility, SemVer, VersionReq};
