//! Strongly-typed identifiers.
//!
//! The paper's catalogs key everything by integer ids (`triggerID`, `sigID`,
//! `dataSrcID`, ...). Newtypes keep them from being mixed up across the nine
//! crates, at zero runtime cost.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $inner:ty) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
        pub struct $name(pub $inner);

        impl $name {
            /// Raw integer value (as stored in catalog tables).
            #[inline]
            pub fn raw(self) -> $inner {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }

        impl From<$inner> for $name {
            fn from(v: $inner) -> Self {
                $name(v)
            }
        }
    };
}

id_type!(
    /// Identifies a data source (normally a table; possibly a tuple stream).
    DataSourceId,
    u32
);
id_type!(
    /// Identifies a trigger (the catalog `trigger.triggerID` column).
    TriggerId,
    u64
);
id_type!(
    /// Identifies a trigger set (the catalog `trigger_set.tsID` column).
    TriggerSetId,
    u32
);
id_type!(
    /// Identifies an expression signature (`expression_signature.sigID`).
    SignatureId,
    u32
);
id_type!(
    /// Identifies one selection-predicate expression instance
    /// (`const_tableN.exprID`).
    ExprId,
    u64
);

/// Execution facts of one predicate-index entry ride in the top bits of
/// its id, which survives organization switches and the database row round
/// trip and comes back with every match: an entry with neither costs the
/// drain one branch, and the index counts what the bits imply.
impl ExprId {
    /// Tagged execution (Kim & Madden): the disjunct entries of one trigger
    /// variable share a tag, which a token's first matching entry claims.
    pub const TAGGED: u64 = 1 << 63;
    /// The entry's trigger has a windowed threshold: a claimed match
    /// observes the window and fires only at or over the threshold.
    pub const WINDOWED: u64 = 1 << 62;

    /// Is the [`TAGGED`](Self::TAGGED) bit set?
    #[inline]
    pub fn is_tagged(self) -> bool {
        self.0 & Self::TAGGED != 0
    }

    /// Is the [`WINDOWED`](Self::WINDOWED) bit set?
    #[inline]
    pub fn is_windowed(self) -> bool {
        self.0 & Self::WINDOWED != 0
    }
}

id_type!(
    /// Identifies a node in a trigger's discrimination network
    /// (`const_tableN.nextNetworkNode`).
    NodeId,
    u32
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_distinct_types_with_display() {
        let t = TriggerId(7);
        assert_eq!(t.raw(), 7);
        assert_eq!(t.to_string(), "TriggerId(7)");
        let s: SignatureId = 3u32.into();
        assert_eq!(s, SignatureId(3));
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(TriggerId(1) < TriggerId(2));
        assert_eq!(DataSourceId::default(), DataSourceId(0));
    }
}
