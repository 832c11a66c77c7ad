//! Streaming access-pattern generators for trace-driven runs.
//!
//! The trace engine's [`run_stream`](hmsim_machine::TraceEngine::run_stream)
//! consumes `Iterator<Item = MemoryAccess>` directly, so kernels here yield
//! accesses one at a time instead of materializing sweep vectors — a
//! paper-scale STREAM pass (three 1 GiB arrays, billions of accesses) costs
//! no memory beyond the iterator state.

use hmsim_common::{Address, AddressRange, ByteSize};
use hmsim_machine::MemoryAccess;

/// Lazy generator of the STREAM Triad access pattern
/// `a[i] = b[i] + scalar * c[i]`: per element, a load of `b[i]`, a load of
/// `c[i]` and a store to `a[i]` (the write-allocate read of `a[i]` is
/// modelled by the cache's write-allocate policy).
#[derive(Clone, Debug)]
pub struct TriadStream {
    a: AddressRange,
    b: AddressRange,
    c: AddressRange,
    element_size: u16,
    elements: u64,
    passes: u32,
    /// Current element within the pass.
    pos: u64,
    /// 0 = load b, 1 = load c, 2 = store a.
    lane: u8,
    /// Current pass.
    pass: u32,
}

impl TriadStream {
    /// Lay out three contiguous arrays of `array_size` starting at `base`
    /// and build a generator for `passes` full Triad passes over them.
    pub fn new(base: Address, array_size: ByteSize, element_size: u16, passes: u32) -> Self {
        let element_size = element_size.max(1);
        let a = AddressRange::new(base, array_size);
        let b = AddressRange::new(a.end(), array_size);
        let c = AddressRange::new(b.end(), array_size);
        TriadStream {
            a,
            b,
            c,
            element_size,
            elements: array_size.bytes() / u64::from(element_size),
            passes,
            pos: 0,
            lane: 0,
            pass: 0,
        }
    }

    /// The full working set (all three arrays).
    pub fn working_set(&self) -> AddressRange {
        AddressRange::new(self.a.start, ByteSize::from_bytes(self.a.len.bytes() * 3))
    }

    /// Total number of accesses this stream will yield.
    pub fn total_accesses(&self) -> u64 {
        self.elements * 3 * u64::from(self.passes)
    }
}

impl Iterator for TriadStream {
    type Item = MemoryAccess;

    #[inline]
    fn next(&mut self) -> Option<MemoryAccess> {
        if self.pass >= self.passes || self.elements == 0 {
            return None;
        }
        let offset = self.pos * u64::from(self.element_size);
        let acc = match self.lane {
            0 => MemoryAccess::load(self.b.start.offset(offset), self.element_size),
            1 => MemoryAccess::load(self.c.start.offset(offset), self.element_size),
            _ => MemoryAccess::store(self.a.start.offset(offset), self.element_size),
        };
        self.lane += 1;
        if self.lane == 3 {
            self.lane = 0;
            self.pos += 1;
            if self.pos == self.elements {
                self.pos = 0;
                self.pass += 1;
            }
        }
        Some(acc)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let done = (u64::from(self.pass) * self.elements + self.pos) * 3 + u64::from(self.lane);
        let remaining = self.total_accesses().saturating_sub(done) as usize;
        (remaining, Some(remaining))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmsim_machine::AccessKind;

    #[test]
    fn triad_yields_three_accesses_per_element_in_order() {
        let s = TriadStream::new(Address(0x1000), ByteSize::from_bytes(32), 8, 1);
        let acc: Vec<MemoryAccess> = s.collect();
        assert_eq!(acc.len(), 4 * 3);
        // First element: load b[0], load c[0], store a[0].
        assert_eq!(acc[0], MemoryAccess::load(Address(0x1000 + 32), 8));
        assert_eq!(acc[1], MemoryAccess::load(Address(0x1000 + 64), 8));
        assert_eq!(acc[2], MemoryAccess::store(Address(0x1000), 8));
        // Second element advances all three cursors by one element.
        assert_eq!(acc[3], MemoryAccess::load(Address(0x1000 + 32 + 8), 8));
    }

    #[test]
    fn triad_passes_repeat_the_pattern() {
        let one = TriadStream::new(Address(0), ByteSize::from_bytes(64), 8, 1);
        let two = TriadStream::new(Address(0), ByteSize::from_bytes(64), 8, 2);
        let a: Vec<MemoryAccess> = one.collect();
        let b: Vec<MemoryAccess> = two.collect();
        assert_eq!(b.len(), 2 * a.len());
        assert_eq!(&b[..a.len()], &a[..]);
        assert_eq!(&b[a.len()..], &a[..]);
    }

    #[test]
    fn triad_arrays_are_disjoint_and_cover_the_working_set() {
        let s = TriadStream::new(Address(0x10_0000), ByteSize::from_kib(64), 8, 1);
        assert!(!s.a.overlaps(&s.b));
        assert!(!s.b.overlaps(&s.c));
        assert_eq!(s.working_set().len, ByteSize::from_kib(192));
        assert_eq!(s.total_accesses(), (64 * 1024 / 8) * 3);
        let hint = s.size_hint();
        assert_eq!(hint.0 as u64, s.total_accesses());
    }

    #[test]
    fn triad_is_lazy_over_paper_scale_arrays() {
        // Three 1 GiB arrays: the iterator must be O(1) to build and step.
        let mut s = TriadStream::new(Address(0x1000_0000), ByteSize::from_gib(1), 8, 1);
        let first = s.next().unwrap();
        assert_eq!(first.kind, AccessKind::Load);
        assert!(s.b.contains(first.address));
        assert_eq!(s.total_accesses(), (1u64 << 30) / 8 * 3);
    }
}
