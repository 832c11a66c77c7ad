//! Data-object metadata.
//!
//! A *data object* is one allocation the framework can reason about: a
//! dynamically allocated buffer (identified by its allocation call-stack), a
//! static variable (identified by its symbol name) or an automatic/stack
//! region. Only dynamic objects can be promoted by `auto-hbwmalloc`; static
//! and stack objects can only move to MCDRAM wholesale via `numactl -p 1` or
//! implicitly via cache mode — a distinction that drives several of the
//! paper's results (BT, CGPOP, SNAP).

use hmsim_callstack::SiteKey;
use hmsim_common::{AddressRange, ByteSize, Nanos, ObjectId, TierId};

/// How a data object was created.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ObjectKind {
    /// Statically allocated (`.data`/`.bss`/COMMON); named, never freed.
    Static,
    /// Dynamically allocated through malloc/new/allocate; keyed by call-stack.
    Dynamic,
    /// Automatic (stack) storage, including register spill slots.
    Stack,
}

impl ObjectKind {
    /// Whether the interposition library can redirect this object to another
    /// tier (only dynamic allocations can be intercepted).
    pub fn promotable(self) -> bool {
        matches!(self, ObjectKind::Dynamic)
    }
}

/// One live data object of the simulated process.
#[derive(Clone, Debug)]
pub struct DataObject {
    /// Unique id of this allocation instance.
    pub id: ObjectId,
    /// Human-readable name: the variable name for static objects, a label
    /// derived from the allocation site for dynamic ones.
    pub name: String,
    /// How the object was created.
    pub kind: ObjectKind,
    /// Allocation call-stack key (dynamic objects only).
    pub site: Option<SiteKey>,
    /// The address range the object occupies.
    pub range: AddressRange,
    /// The tier its pages currently live in.
    pub tier: TierId,
    /// Allocation timestamp.
    pub allocated_at: Nanos,
}

impl DataObject {
    /// Size of the object.
    pub fn size(&self) -> ByteSize {
        self.range.len
    }

    /// Whether this object can be promoted by the interposition library.
    pub fn promotable(&self) -> bool {
        self.kind.promotable()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmsim_common::Address;

    fn obj(kind: ObjectKind) -> DataObject {
        DataObject {
            id: ObjectId(1),
            name: "x".to_string(),
            kind,
            site: None,
            range: AddressRange::new(Address(0x1000), ByteSize::from_kib(64)),
            tier: TierId::DDR,
            allocated_at: Nanos::from_millis(10.0),
        }
    }

    #[test]
    fn only_dynamic_objects_are_promotable() {
        assert!(ObjectKind::Dynamic.promotable());
        assert!(!ObjectKind::Static.promotable());
        assert!(!ObjectKind::Stack.promotable());
        assert!(obj(ObjectKind::Dynamic).promotable());
        assert!(!obj(ObjectKind::Static).promotable());
    }

    #[test]
    fn size_matches_range() {
        assert_eq!(obj(ObjectKind::Dynamic).size(), ByteSize::from_kib(64));
    }
}
