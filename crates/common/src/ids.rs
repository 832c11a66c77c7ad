//! Opaque identifiers shared across the workspace.
//!
//! All identifiers are small integer newtypes. Keeping them distinct at the
//! type level prevents, for example, indexing the per-tier statistics table
//! with an object id.

use std::fmt;

macro_rules! id_type {
    ($(#[$meta:meta])* $name:ident, $prefix:expr) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub u32);

        impl $name {
            /// The raw index value.
            pub const fn index(self) -> usize {
                self.0 as usize
            }

            /// Construct from a raw index.
            pub const fn from_index(i: usize) -> Self {
                Self(i as u32)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// Identifier of one memory tier (e.g. DDR = 0, MCDRAM = 1).
    TierId,
    "tier"
);

id_type!(
    /// Identifier of one live data object (one allocation) in the simulated
    /// address space.
    ObjectId,
    "obj"
);

impl TierId {
    /// Conventional id of the slow, large DDR tier.
    pub const DDR: TierId = TierId(0);
    /// Conventional id of the fast, small on-package MCDRAM tier.
    pub const MCDRAM: TierId = TierId(1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_round_trip_indices() {
        let o = ObjectId::from_index(42);
        assert_eq!(o.index(), 42);
        assert_eq!(format!("{o}"), "obj42");
        assert_eq!(format!("{o:?}"), "obj42");
    }

    #[test]
    fn tier_constants_are_distinct() {
        assert_ne!(TierId::DDR, TierId::MCDRAM);
        assert_eq!(TierId::DDR.index(), 0);
        assert_eq!(TierId::MCDRAM.index(), 1);
    }

    #[test]
    fn ids_usable_in_hash_sets() {
        let mut s = HashSet::new();
        s.insert(ObjectId(1));
        s.insert(ObjectId(2));
        s.insert(ObjectId(1));
        assert_eq!(s.len(), 2);
    }
}
