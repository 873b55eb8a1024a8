//! Semver-style descriptor versioning and compatibility classification.
//!
//! Every named platform in the registry carries a monotonically growing
//! release series. On publish, the new revision is structurally diffed
//! (via `pdl-query::diff` over canonicalized platforms) against the
//! current head and the version number is bumped by what the diff says:
//!
//! * **major** — something a consumer could already depend on went away or
//!   changed meaning: PU removed, class/parent changed, quantity lowered,
//!   a property value changed or disappeared, interconnect edges removed.
//! * **minor** — purely additive: new PUs, new properties, more
//!   interconnect edges, raised quantities.
//! * **patch** — no structural diff finding, but a different content
//!   address (e.g. memory-region descriptor tweaks, scheme annotations —
//!   facts the structural diff does not model).
//!
//! Identical content addresses never create a new release: publishing is
//! idempotent.

use pdl_query::diff::Change;
use std::fmt;

/// A `major.minor.patch` release number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SemVer {
    /// Incompatible-change counter.
    pub major: u32,
    /// Additive-change counter.
    pub minor: u32,
    /// Sub-structural-change counter.
    pub patch: u32,
}

impl SemVer {
    /// The first release of a series.
    pub const INITIAL: SemVer = SemVer::new(1, 0, 0);

    /// A version literal.
    pub const fn new(major: u32, minor: u32, patch: u32) -> Self {
        SemVer {
            major,
            minor,
            patch,
        }
    }

    /// The next version after applying a change of the given compatibility.
    pub(crate) fn bumped(self, compat: Compatibility) -> SemVer {
        match compat {
            Compatibility::Identical => self,
            Compatibility::Patch => SemVer::new(self.major, self.minor, self.patch + 1),
            Compatibility::Minor => SemVer::new(self.major, self.minor + 1, 0),
            Compatibility::Major => SemVer::new(self.major + 1, 0, 0),
        }
    }

    /// Parses `"1"`, `"1.2"` or `"1.2.3"` (missing fields are zero).
    pub(crate) fn parse(s: &str) -> Option<Self> {
        let (major, minor, patch) = fields(s)?;
        Some(SemVer::new(major, minor.unwrap_or(0), patch.unwrap_or(0)))
    }
}

/// The fields of `"1"`, `"1.2"` or `"1.2.3"`: `None` for a fourth field or
/// for any field that is not a `u32` written in decimal digits alone.
fn fields(s: &str) -> Option<(u32, Option<u32>, Option<u32>)> {
    // Digits only: `u32::from_str` also takes a leading `+`.
    fn field(p: &str) -> Option<u32> {
        if p.bytes().all(|b| b.is_ascii_digit()) {
            p.parse().ok()
        } else {
            None
        }
    }
    let mut it = s.trim().split('.');
    let major = field(it.next()?)?;
    let minor = match it.next() {
        Some(p) => Some(field(p)?),
        None => None,
    };
    let patch = match it.next() {
        Some(p) => Some(field(p)?),
        None => None,
    };
    if it.next().is_some() {
        return None;
    }
    Some((major, minor, patch))
}

impl fmt::Display for SemVer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}.{}", self.major, self.minor, self.patch)
    }
}

/// How a new revision relates to the one before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Compatibility {
    /// Same content address — not a new revision at all.
    Identical,
    /// Different address, empty structural diff.
    Patch,
    /// Purely additive structural changes.
    Minor,
    /// At least one breaking structural change.
    Major,
}

impl Compatibility {
    /// Stable lowercase label for reports.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Compatibility::Identical => "identical",
            Compatibility::Patch => "patch",
            Compatibility::Minor => "minor",
            Compatibility::Major => "major",
        }
    }
}

impl fmt::Display for Compatibility {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Whether one structural change is backward compatible (additive).
fn is_additive(change: &Change) -> bool {
    match change {
        Change::PuAdded(_) => true,
        Change::PuRemoved(_) => false,
        Change::ClassChanged { .. } | Change::ParentChanged { .. } => false,
        Change::QuantityChanged { old, new, .. } => new > old,
        Change::PropertyChanged { old, new, .. } => old.is_none() && new.is_some(),
        Change::InterconnectChanged { old, new, .. } => new > old,
    }
}

/// Classifies a structural diff (`pdl-query::diff` output) into a
/// compatibility verdict. `hashes_equal` short-circuits to
/// [`Compatibility::Identical`]; an empty diff with distinct hashes is a
/// [`Compatibility::Patch`].
pub(crate) fn classify(changes: &[Change], hashes_equal: bool) -> Compatibility {
    if hashes_equal {
        return Compatibility::Identical;
    }
    if changes.is_empty() {
        return Compatibility::Patch;
    }
    if changes.iter().all(is_additive) {
        Compatibility::Minor
    } else {
        Compatibility::Major
    }
}

/// A version requirement, resolved against a release series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VersionReq {
    /// The newest release (`"latest"` / `"*"`).
    Latest,
    /// Exactly one version (`"=1.2.3"`).
    Exact(SemVer),
    /// Newest release with the given major (and optionally minor) —
    /// `"^1"`, `"^1.2"`, or the bare `"1"` / `"1.2"` shorthand.
    Caret {
        /// Required major version.
        major: u32,
        /// Required minor version, if pinned.
        minor: Option<u32>,
    },
    /// Newest release `>=` the given version (`">=1.2.3"`).
    AtLeast(SemVer),
}

impl VersionReq {
    /// Parses the requirement syntax described on the variants.
    pub fn parse(s: &str) -> Option<Self> {
        let s = s.trim();
        match s {
            "" | "*" | "latest" => return Some(VersionReq::Latest),
            _ => {}
        }
        if let Some(rest) = s.strip_prefix(">=") {
            return SemVer::parse(rest).map(VersionReq::AtLeast);
        }
        if let Some(rest) = s.strip_prefix('=') {
            return SemVer::parse(rest).map(VersionReq::Exact);
        }
        let caret = s.strip_prefix('^');
        let (major, minor, patch) = fields(caret.unwrap_or(s))?;
        match (patch, minor) {
            // A full triple means an exact pin unless written with '^'.
            (Some(patch), Some(minor)) if caret.is_none() => {
                Some(VersionReq::Exact(SemVer::new(major, minor, patch)))
            }
            _ => Some(VersionReq::Caret { major, minor }),
        }
    }

    /// Whether a concrete version satisfies this requirement.
    pub(crate) fn matches(&self, v: SemVer) -> bool {
        match self {
            VersionReq::Latest => true,
            VersionReq::Exact(want) => v == *want,
            VersionReq::Caret { major, minor } => {
                v.major == *major && minor.map(|m| v.minor == m).unwrap_or(true)
            }
            VersionReq::AtLeast(min) => v >= *min,
        }
    }

    /// Picks the newest matching version out of a sorted-ascending list.
    pub(crate) fn select(&self, versions: &[SemVer]) -> Option<SemVer> {
        versions.iter().rev().copied().find(|v| self.matches(*v))
    }
}

impl fmt::Display for VersionReq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VersionReq::Latest => f.write_str("latest"),
            VersionReq::Exact(v) => write!(f, "={v}"),
            VersionReq::Caret { major, minor } => match minor {
                Some(m) => write!(f, "^{major}.{m}"),
                None => write!(f, "^{major}"),
            },
            VersionReq::AtLeast(v) => write!(f, ">={v}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn semver_parse_and_order() {
        assert_eq!(SemVer::parse("1.2.3"), Some(SemVer::new(1, 2, 3)));
        assert_eq!(SemVer::parse("2"), Some(SemVer::new(2, 0, 0)));
        assert_eq!(SemVer::parse("2.1"), Some(SemVer::new(2, 1, 0)));
        assert_eq!(SemVer::parse("1.2.3.4"), None);
        assert_eq!(SemVer::parse("x"), None);
        assert!(SemVer::new(2, 0, 0) > SemVer::new(1, 9, 9));
        assert_eq!(SemVer::new(1, 2, 3).to_string(), "1.2.3");
    }

    #[test]
    fn bumps() {
        let v = SemVer::new(1, 2, 3);
        assert_eq!(v.bumped(Compatibility::Identical), v);
        assert_eq!(v.bumped(Compatibility::Patch), SemVer::new(1, 2, 4));
        assert_eq!(v.bumped(Compatibility::Minor), SemVer::new(1, 3, 0));
        assert_eq!(v.bumped(Compatibility::Major), SemVer::new(2, 0, 0));
    }

    #[test]
    fn classification_rules() {
        assert_eq!(classify(&[], true), Compatibility::Identical);
        assert_eq!(classify(&[], false), Compatibility::Patch);
        assert_eq!(
            classify(&[Change::PuAdded("gpu1".into())], false),
            Compatibility::Minor
        );
        assert_eq!(
            classify(
                &[
                    Change::PuAdded("gpu1".into()),
                    Change::PuRemoved("gpu0".into())
                ],
                false
            ),
            Compatibility::Major
        );
        assert_eq!(
            classify(
                &[Change::QuantityChanged {
                    id: "w".into(),
                    old: 4,
                    new: 8
                }],
                false
            ),
            Compatibility::Minor
        );
        assert_eq!(
            classify(
                &[Change::QuantityChanged {
                    id: "w".into(),
                    old: 8,
                    new: 4
                }],
                false
            ),
            Compatibility::Major
        );
        assert_eq!(
            classify(
                &[Change::PropertyChanged {
                    id: "w".into(),
                    property: "CORES".into(),
                    old: None,
                    new: Some("8".into())
                }],
                false
            ),
            Compatibility::Minor
        );
        assert_eq!(
            classify(
                &[Change::PropertyChanged {
                    id: "w".into(),
                    property: "CORES".into(),
                    old: Some("8".into()),
                    new: Some("16".into())
                }],
                false
            ),
            Compatibility::Major
        );
    }

    #[test]
    fn req_parse_and_match() {
        let vs = [
            SemVer::new(1, 0, 0),
            SemVer::new(1, 1, 0),
            SemVer::new(1, 1, 2),
            SemVer::new(2, 0, 0),
        ];
        assert_eq!(
            VersionReq::parse("latest").unwrap().select(&vs),
            Some(SemVer::new(2, 0, 0))
        );
        assert_eq!(
            VersionReq::parse("*").unwrap().select(&vs),
            Some(SemVer::new(2, 0, 0))
        );
        assert_eq!(
            VersionReq::parse("1").unwrap().select(&vs),
            Some(SemVer::new(1, 1, 2))
        );
        assert_eq!(
            VersionReq::parse("^1.0").unwrap().select(&vs),
            Some(SemVer::new(1, 0, 0))
        );
        assert_eq!(
            VersionReq::parse("=1.1.0").unwrap().select(&vs),
            Some(SemVer::new(1, 1, 0))
        );
        assert_eq!(
            VersionReq::parse(">=1.1").unwrap().select(&vs),
            Some(SemVer::new(2, 0, 0))
        );
        assert_eq!(VersionReq::parse("3").unwrap().select(&vs), None);
        assert_eq!(VersionReq::parse("nope"), None);
        assert_eq!(
            VersionReq::parse("1.2.3"),
            Some(VersionReq::Exact(SemVer::new(1, 2, 3)))
        );
        assert_eq!(
            VersionReq::parse("^1.2.3"),
            Some(VersionReq::Caret {
                major: 1,
                minor: Some(2)
            })
        );
        // A fourth field is refused in every form, as `SemVer::parse` does.
        for s in ["1.2.3.4", "1.2.3.4.5", "^1.2.3.4", "=1.2.3.4", ">=1.2.3.4"] {
            assert_eq!(VersionReq::parse(s), None, "{s}");
        }
    }

    #[test]
    fn req_display_round_trips() {
        for s in ["latest", "=1.2.3", "^1", "^1.2", ">=2.0.0"] {
            let req = VersionReq::parse(s).unwrap();
            assert_eq!(VersionReq::parse(&req.to_string()), Some(req));
        }
    }
}
