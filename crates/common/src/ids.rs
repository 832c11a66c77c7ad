//! Opaque identifiers shared across the workspace.
//!
//! All identifiers are small integer newtypes. Keeping them distinct at the
//! type level prevents, for example, indexing the per-tier statistics table
//! with an object id.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

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

/// A hash map keyed by one of these ids, hashed by [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A multiplicative (Fibonacci) hasher for the small integer ids above: one
/// multiply per key where SipHash runs its rounds. The product's low bits
/// are a bijection of the id's low bits, so dense ids spread evenly over
/// the table's buckets, and its high bits mix the whole id.
///
/// It does not resist keys crafted to collide, which only costs lookup time
/// (a trace file read from disk can name any ids). Keep the default hasher
/// for keys that are not ids.
///
/// Its users: the analyzer's live-object table, the heap registry's objects
/// by id, and the placement controller's per-object heat and move epochs.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

/// 2^64 divided by the golden ratio, rounded to odd.
const FIBONACCI: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0 ^ u64::from(n)).wrapping_mul(FIBONACCI);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(FIBONACCI);
        }
    }
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
    fn id_map_spreads_dense_ids_over_distinct_buckets() {
        let hash = |id: ObjectId| {
            let mut h = IdHasher::default();
            std::hash::Hash::hash(&id, &mut h);
            h.finish()
        };
        // The low bits pick the bucket: dense ids never share one.
        let buckets: HashSet<u64> = (0..1024).map(|i| hash(ObjectId(i)) & 1023).collect();
        assert_eq!(buckets.len(), 1024);
        let mut map: IdMap<ObjectId, u32> = IdMap::default();
        for i in 0..1000 {
            map.insert(ObjectId(i * 7), i);
        }
        assert!((0..1000).all(|i| map[&ObjectId(i * 7)] == i));
        assert_eq!(map.get(&ObjectId(1)), None);
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
