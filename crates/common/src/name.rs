//! [`Name`]: a short name held inline, a long one shared.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// The longest name kept inline, in bytes.
const INLINE: usize = 22;

/// An immutable name: a trigger's, or the event its action raises. Up to
/// 22 bytes it is held inline — no heap block, a clone is a copy and a
/// drop writes nothing — so a notification that carries its trigger's
/// names shares no cache line with the trigger or with other fires. A
/// longer name is one shared `Arc<str>`. Either way it is 24 bytes.
///
/// Equality and hashing read bytes: the inline bytes are checked as UTF-8
/// only when read as a `&str`. `Hash` agrees with `str`'s, so a map keyed
/// by `Name` is looked up by `&str`.
#[derive(Clone, PartialEq, Eq)]
pub struct Name(Repr);

/// A name of up to [`INLINE`] bytes is always `Inline` and a longer one
/// always `Shared`, so equal names have equal forms.
#[derive(Clone, PartialEq, Eq)]
enum Repr {
    /// The first `len` bytes of `bytes`, UTF-8; the rest are zero.
    Inline {
        len: u8,
        bytes: [u8; INLINE],
    },
    Shared(Arc<str>),
}

impl Name {
    /// The name's bytes, without a UTF-8 check.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Repr::Shared(s) => s.as_bytes(),
        }
    }

    /// The name.
    #[inline]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { .. } => {
                std::str::from_utf8(self.as_bytes()).expect("an inline name is the UTF-8 it copied")
            }
            Repr::Shared(s) => s,
        }
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Name {
        if s.len() > INLINE {
            return Name(Repr::Shared(s.into()));
        }
        let mut bytes = [0; INLINE];
        bytes[..s.len()].copy_from_slice(s.as_bytes());
        let len = u8::try_from(s.len()).expect("at most INLINE bytes");
        Name(Repr::Inline { len, bytes })
    }
}

impl From<String> for Name {
    fn from(s: String) -> Name {
        Name::from(s.as_str())
    }
}

impl Deref for Name {
    type Target = str;

    #[inline]
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl Hash for Name {
    /// What `str`'s `Hash` writes: the bytes, then `0xff`.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write(self.as_bytes());
        state.write_u8(0xff);
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fxhash::{hash_one, FxHashMap};
    use std::hash::BuildHasher;

    fn inline(name: &Name) -> bool {
        matches!(name.0, Repr::Inline { .. })
    }

    #[test]
    fn a_name_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Name>(), 24);
    }

    #[test]
    fn up_to_22_bytes_are_inline_and_longer_ones_shared() {
        for text in [
            "",
            "t1",
            "Matched",
            "exactly_twenty_two_byt",
            "Übergröße_Ölpreis",
        ] {
            assert!(text.len() <= INLINE, "{text}");
            let name = Name::from(text);
            assert!(inline(&name), "{text}");
            assert_eq!((name.as_str(), name.as_bytes()), (text, text.as_bytes()));
        }
        for text in [
            "twenty_three_bytes_long",
            "ÜberwachungsEreignisÄnderungÖlpreisÖl",
        ] {
            assert!(text.len() > INLINE, "{text}");
            let name = Name::from(text.to_string());
            assert!(!inline(&name), "{text}");
            assert_eq!(&*name, text);
            let copy = name.clone();
            assert!(
                matches!((&name.0, &copy.0), (Repr::Shared(a), Repr::Shared(b)) if Arc::ptr_eq(a, b))
            );
        }
    }

    #[test]
    fn equality_formatting_and_hashing_agree_with_str() {
        let texts = [
            "",
            "a",
            "Matched",
            "matched",
            "Ölpreis",
            "twenty_three_bytes_long",
        ];
        let std_hasher = std::collections::hash_map::RandomState::new();
        for a in texts {
            let name = Name::from(a);
            assert_eq!(format!("{name:?} {name}"), format!("{a:?} {a}"));
            assert_eq!(hash_one(&name), hash_one(&a));
            assert_eq!(std_hasher.hash_one(&name), std_hasher.hash_one(a));
            for b in texts {
                let other = Name::from(b);
                assert_eq!(name == other, a == b, "{a} = {b}");
                assert_eq!(name == b, a == b, "{a} = {b}");
            }
        }
        let map: FxHashMap<Name, usize> = texts.iter().map(|&t| t.into()).zip(0..).collect();
        for (at, text) in texts.iter().enumerate() {
            assert_eq!(map.get(*text), Some(&at));
        }
        assert_eq!(map.get("MATCHED"), None);
    }
}
