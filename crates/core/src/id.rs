//! Identifier newtypes used throughout the machine model.
//!
//! The PDL identifies processing units, memory regions and logic groups by
//! string identifiers (Listing 1 of the paper uses `id="0"`, `id="1"`, …).
//! We keep identifiers as strings to stay faithful to the XML representation,
//! but wrap them in newtypes so the different id spaces cannot be confused.
//! The string is a shared [`Text`]: an interconnect endpoint and the PU it
//! names hold one allocation.

use crate::text::Text;
use std::borrow::Borrow;
use std::fmt;

macro_rules! string_id {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(Text);

        impl $name {
            /// Creates a new identifier from anything string-like.
            pub fn new(s: impl Into<Text>) -> Self {
                Self(s.into())
            }

            /// Returns the identifier as a string slice.
            pub fn as_str(&self) -> &str {
                &self.0
            }

            /// The shared text of the identifier.
            pub fn text(&self) -> &Text {
                &self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(&self.0)
            }
        }

        impl From<&str> for $name {
            fn from(s: &str) -> Self {
                Self::new(s)
            }
        }

        impl From<String> for $name {
            fn from(s: String) -> Self {
                Self::new(s)
            }
        }

        impl From<Text> for $name {
            fn from(s: Text) -> Self {
                Self(s)
            }
        }

        impl From<u64> for $name {
            fn from(n: u64) -> Self {
                Self::new(n.to_string())
            }
        }

        impl Borrow<str> for $name {
            fn borrow(&self) -> &str {
                &self.0
            }
        }

        impl AsRef<str> for $name {
            fn as_ref(&self) -> &str {
                &self.0
            }
        }

        impl PartialEq<str> for $name {
            fn eq(&self, other: &str) -> bool {
                self.0 == other
            }
        }

        impl PartialEq<&str> for $name {
            fn eq(&self, other: &&str) -> bool {
                self.0 == *other
            }
        }
    };
}

string_id! {
    /// Identifier of a processing unit (`<Master id="0">`).
    ///
    /// Unique within one [`Platform`](crate::platform::Platform).
    PuId
}

string_id! {
    /// Identifier of a memory region.
    ///
    /// Unique within the owning processing unit.
    MrId
}

string_id! {
    /// A logic-group name as introduced by the paper's
    /// `LogicGroupAttribute`: an arbitrary label shared by a sub-set of
    /// processing units, referenced by task `execute` annotations.
    GroupId
}

/// Index of a processing unit inside a [`Platform`](crate::platform::Platform)
/// arena. Stable for the lifetime of the platform value; invalidated by
/// structural mutation through [`PlatformBuilder`](crate::platform::PlatformBuilder).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PuIdx(pub(crate) u32);

impl PuIdx {
    /// Returns the raw arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    pub(crate) fn from_usize(i: usize) -> Self {
        debug_assert!(i <= u32::MAX as usize, "platform arena overflow");
        PuIdx(i as u32)
    }
}

impl fmt::Display for PuIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn display_round_trip() {
        let id = PuId::new("42");
        assert_eq!(id.to_string(), "42");
        assert_eq!(id.as_str(), "42");
    }

    #[test]
    fn from_u64() {
        assert_eq!(PuId::from(7u64), PuId::new("7"));
    }

    #[test]
    fn ids_hash_like_strings() {
        let mut set = HashSet::new();
        set.insert(PuId::new("a"));
        assert!(set.contains("a"));
        assert!(!set.contains("b"));
    }

    #[test]
    fn distinct_id_types_are_distinct() {
        // Compile-time property: PuId and GroupId cannot be compared.
        // We just check both construct fine from the same text.
        let p = PuId::new("gpu0");
        let g = GroupId::new("gpu0");
        assert_eq!(p.as_str(), g.as_str());
    }

    #[test]
    fn puidx_roundtrip() {
        let i = PuIdx::from_usize(5);
        assert_eq!(i.index(), 5);
        assert_eq!(i.to_string(), "#5");
    }

    #[test]
    fn ordering_is_lexicographic() {
        assert!(PuId::new("a") < PuId::new("b"));
        assert!(PuId::new("10") < PuId::new("9")); // string order, documented
    }
}
