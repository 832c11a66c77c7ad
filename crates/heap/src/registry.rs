//! Registry of live data objects.
//!
//! This is the data structure behind Extrae's address-to-object correlation:
//! it "registers the allocated address range through the returned pointer and
//! the size of the allocation" and later matches sampled addresses "against
//! the previously allocated object's address ranges" (paper §III, step 1).

use crate::object::DataObject;
use hmsim_common::{Address, ByteSize, HmError, HmResult, IdMap, ObjectId};
use std::collections::BTreeMap;

/// Live-object registry with address-range lookup.
#[derive(Clone, Debug, Default)]
pub struct LiveObjectRegistry {
    /// Live objects by id. The registry assigns the ids itself, so they are
    /// hashed with [`IdHasher`](hmsim_common::IdHasher).
    objects: IdMap<ObjectId, DataObject>,
    /// Live objects ordered by start address (for range lookup).
    by_start: BTreeMap<u64, ObjectId>,
    next_id: u32,
}

impl LiveObjectRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserve the next object id.
    pub fn next_id(&mut self) -> ObjectId {
        let id = ObjectId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Register a new live object. Fails if its range overlaps a live object.
    pub fn insert(&mut self, object: DataObject) -> HmResult<()> {
        if self.find_containing(object.range.start).is_some() {
            return Err(HmError::InvalidState(format!(
                "object {} overlaps a live allocation at {}",
                object.name, object.range.start
            )));
        }
        self.by_start.insert(object.range.start.value(), object.id);
        self.objects.insert(object.id, object);
        Ok(())
    }

    /// Remove the live object starting at `addr` and return it.
    pub fn remove_by_start(&mut self, addr: Address) -> HmResult<DataObject> {
        let id = self
            .by_start
            .remove(&addr.value())
            .ok_or(HmError::UnknownAddress(addr.value()))?;
        Ok(self.objects.remove(&id).expect("indexed object exists"))
    }

    /// Find the live object whose range contains `addr`.
    pub fn find_containing(&self, addr: Address) -> Option<&DataObject> {
        // Candidate: the live object with the greatest start <= addr.
        let (_, id) = self.by_start.range(..=addr.value()).next_back()?;
        let obj = self.objects.get(id)?;
        obj.range.contains(addr).then_some(obj)
    }

    /// Get a live object by id.
    pub fn get(&self, id: ObjectId) -> Option<&DataObject> {
        self.objects.get(&id)
    }

    /// Record that the live object `id` now resides in `tier` (the page
    /// migration itself is the heap's job; this keeps the metadata in sync).
    pub fn set_tier(&mut self, id: ObjectId, tier: hmsim_common::TierId) -> HmResult<()> {
        let obj = self
            .objects
            .get_mut(&id)
            .ok_or_else(|| HmError::NotFound(format!("{id:?}")))?;
        obj.tier = tier;
        Ok(())
    }

    /// All live objects, in address order.
    pub fn live(&self) -> impl Iterator<Item = &DataObject> + '_ {
        self.by_start.values().map(|id| &self.objects[id])
    }

    /// Total size of live objects.
    pub fn live_bytes(&self) -> ByteSize {
        self.objects.values().map(|o| o.size()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::ObjectKind;
    use hmsim_common::{AddressRange, Nanos, TierId};

    fn make(reg: &mut LiveObjectRegistry, start: u64, size_kib: u64) -> ObjectId {
        let id = reg.next_id();
        reg.insert(DataObject {
            id,
            name: format!("obj{start:x}"),
            kind: ObjectKind::Dynamic,
            site: None,
            range: AddressRange::new(Address(start), ByteSize::from_kib(size_kib)),
            tier: TierId::DDR,
            allocated_at: Nanos::ZERO,
        })
        .unwrap();
        id
    }

    #[test]
    fn containing_lookup_finds_the_right_object() {
        let mut reg = LiveObjectRegistry::new();
        let a = make(&mut reg, 0x10000, 4);
        let b = make(&mut reg, 0x20000, 8);
        assert_eq!(reg.find_containing(Address(0x10000)).unwrap().id, a);
        assert_eq!(reg.find_containing(Address(0x10fff)).unwrap().id, a);
        assert!(reg.find_containing(Address(0x11000)).is_none());
        assert_eq!(reg.find_containing(Address(0x21000)).unwrap().id, b);
        assert!(reg.find_containing(Address(0x9000)).is_none());
        assert_eq!(reg.live().count(), 2);
        assert_eq!(reg.live_bytes(), ByteSize::from_kib(12));
    }

    #[test]
    fn remove_returns_the_object_and_forgets_it() {
        let mut reg = LiveObjectRegistry::new();
        let a = make(&mut reg, 0x10000, 4);
        let removed = reg.remove_by_start(Address(0x10000)).unwrap();
        assert_eq!(removed.id, a);
        assert_eq!(removed.size(), ByteSize::from_kib(4));
        assert!(reg.find_containing(Address(0x10000)).is_none());
        assert!(reg.get(a).is_none(), "freed objects are not kept");
        assert!(matches!(
            reg.set_tier(a, TierId::MCDRAM),
            Err(HmError::NotFound(_))
        ));
        assert_eq!(reg.live().count(), 0);
    }

    #[test]
    fn removing_unknown_address_fails() {
        let mut reg = LiveObjectRegistry::new();
        assert!(reg.remove_by_start(Address(0x999)).is_err());
    }

    #[test]
    fn address_reuse_after_free_is_allowed() {
        let mut reg = LiveObjectRegistry::new();
        make(&mut reg, 0x10000, 4);
        reg.remove_by_start(Address(0x10000)).unwrap();
        let b = make(&mut reg, 0x10000, 8);
        assert_eq!(reg.find_containing(Address(0x10400)).unwrap().id, b);
        assert_eq!(reg.live().count(), 1);
    }
}
