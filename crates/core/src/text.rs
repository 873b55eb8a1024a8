//! Shared immutable text: the one string type of a [`Platform`].
//!
//! A platform description repeats a handful of strings many times: a
//! 48-descriptor catalog holds 24 036 properties but only 19 distinct
//! property names and 46 distinct values. Every id, property name and
//! value, subschema name and interconnect label is therefore a [`Text`],
//! an `Arc<str>` that clones by bumping a count. The builder interns what
//! a parser hands it ([`PlatformBuilder::intern`]), so equal text is stored
//! once per platform, an interconnect endpoint shares its PU's id, and
//! cloning, canonicalizing or composing a platform copies no text.
//!
//! [`Platform`]: crate::platform::Platform
//! [`PlatformBuilder::intern`]: crate::platform::PlatformBuilder::intern

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// An immutable, cheaply cloned string. Compares, orders and hashes as its
/// text, so a `Text` key is found by a `&str`.
#[derive(Clone)]
pub struct Text(Arc<str>);

impl Text {
    /// The text as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Whether two values share one allocation (equal text need not).
    pub fn ptr_eq(&self, other: &Text) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// The empty text: one allocation for the whole process, so the many empty
/// schemes and values allocate nothing.
impl Default for Text {
    fn default() -> Self {
        static EMPTY: OnceLock<Text> = OnceLock::new();
        EMPTY.get_or_init(|| Text(Arc::from(""))).clone()
    }
}

impl Deref for Text {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Text {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for Text {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Text {
    fn from(s: &str) -> Self {
        if s.is_empty() {
            Text::default()
        } else {
            Text(Arc::from(s))
        }
    }
}

impl From<String> for Text {
    fn from(s: String) -> Self {
        if s.is_empty() {
            Text::default()
        } else {
            Text(Arc::from(s))
        }
    }
}

impl PartialEq for Text {
    fn eq(&self, other: &Text) -> bool {
        self.ptr_eq(other) || self.0 == other.0
    }
}

impl Eq for Text {}

impl PartialOrd for Text {
    fn partial_cmp(&self, other: &Text) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Text {
    fn cmp(&self, other: &Text) -> Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl Hash for Text {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Must hash as `str` does, for `Borrow<str>` lookups.
        self.as_str().hash(state);
    }
}

macro_rules! eq_with {
    ($($other:ty),*) => {$(
        impl PartialEq<$other> for Text {
            fn eq(&self, other: &$other) -> bool {
                self.as_str() == AsRef::<str>::as_ref(other)
            }
        }

        impl PartialEq<Text> for $other {
            fn eq(&self, other: &Text) -> bool {
                AsRef::<str>::as_ref(self) == other.as_str()
            }
        }
    )*};
}

eq_with!(str, &str);

impl fmt::Display for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn compares_as_its_text() {
        let a = Text::from("gpu");
        let b = Text::from(String::from("gpu"));
        assert!(!a.ptr_eq(&b));
        assert_eq!(a, b);
        assert_eq!(a, "gpu");
        assert_eq!("gpu", a);
        let mut sorted = [Text::from("b"), Text::from("a")];
        sorted.sort();
        assert_eq!(sorted, ["a", "b"]);
        assert_eq!(format!("{a} {a:?}"), "gpu \"gpu\"");
    }

    #[test]
    fn found_by_str_in_a_hash_set() {
        let set: HashSet<Text> = ["x86".into(), "gpu".into()].into_iter().collect();
        assert!(set.contains("gpu"));
        assert!(!set.contains("spe"));
    }

    #[test]
    fn empty_text_is_shared() {
        assert!(Text::from("").ptr_eq(&Text::from(String::new())));
        assert!(Text::default().is_empty());
    }
}
