//! Memory access representation and synthetic access-stream generators.
//!
//! The trace-driven engine consumes a stream of [`MemoryAccess`]es. The
//! generators here produce the canonical HPC patterns the paper's workloads
//! exhibit: contiguous streaming (STREAM, vector updates), strided walks
//! (structured grids), and irregular gathers (sparse matrices, particle
//! codes).

use hmsim_common::{Address, AddressRange, DetRng};

/// Whether an access reads or writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load.
    Load,
    /// A store.
    Store,
}

/// One memory access issued by the simulated application.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MemoryAccess {
    /// Referenced virtual address.
    pub address: Address,
    /// Number of bytes touched (typically the element size).
    pub size: u16,
    /// Load or store.
    pub kind: AccessKind,
}

impl MemoryAccess {
    /// Convenience constructor for a load.
    pub fn load(address: Address, size: u16) -> Self {
        MemoryAccess {
            address,
            size,
            kind: AccessKind::Load,
        }
    }

    /// Convenience constructor for a store.
    pub fn store(address: Address, size: u16) -> Self {
        MemoryAccess {
            address,
            size,
            kind: AccessKind::Store,
        }
    }
}

/// High-level description of how a kernel walks a data object.
/// [`AccessStream`] expands it into the concrete address stream the
/// trace-driven engine consumes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AccessPattern {
    /// Contiguous, unit-stride streaming over the whole object.
    Sequential,
    /// Fixed stride in bytes between consecutive elements.
    Strided {
        /// Stride between consecutive accesses, in bytes.
        stride: u32,
    },
    /// Uniformly random (gather/scatter) accesses over the object.
    Random,
    /// Accesses restricted to a hot fraction of the object (the rest is
    /// touched rarely); models partially-hot structures such as halo regions.
    HotSpot {
        /// Fraction (0..=1) of the object that receives most accesses.
        hot_fraction: f32,
    },
}

/// Generator of concrete access streams over an address range.
#[derive(Clone, Debug)]
pub struct AccessStream {
    range: AddressRange,
    pattern: AccessPattern,
    element_size: u16,
    store_ratio: f64,
    cursor: u64,
    rng: DetRng,
}

impl AccessStream {
    /// Create a stream over `range` following `pattern`, touching
    /// `element_size`-byte elements, with `store_ratio` of accesses being
    /// stores.
    pub fn new(
        range: AddressRange,
        pattern: AccessPattern,
        element_size: u16,
        store_ratio: f64,
        rng: DetRng,
    ) -> Self {
        AccessStream {
            range,
            pattern,
            element_size: element_size.max(1),
            store_ratio: store_ratio.clamp(0.0, 1.0),
            cursor: 0,
            rng,
        }
    }

    /// Generate the next access in the stream.
    pub fn next_access(&mut self) -> MemoryAccess {
        let len = self.range.len.bytes().max(u64::from(self.element_size));
        let span = len - u64::from(self.element_size) + 1;
        let offset = match self.pattern {
            AccessPattern::Sequential => {
                let o = self.cursor % span;
                self.cursor += u64::from(self.element_size);
                o
            }
            AccessPattern::Strided { stride } => {
                let o = self.cursor % span;
                self.cursor += u64::from(stride.max(1));
                o
            }
            AccessPattern::Random => self.rng.uniform_range(0, span),
            AccessPattern::HotSpot { hot_fraction } => {
                let hf = f64::from(hot_fraction).clamp(0.01, 1.0);
                let hot_span = ((span as f64) * hf).max(1.0) as u64;
                if self.rng.chance(0.9) {
                    self.rng.uniform_range(0, hot_span)
                } else {
                    self.rng.uniform_range(0, span)
                }
            }
        };
        let address = self.range.start.offset(offset);
        let kind = if self.rng.chance(self.store_ratio) {
            AccessKind::Store
        } else {
            AccessKind::Load
        };
        MemoryAccess {
            address,
            size: self.element_size,
            kind,
        }
    }

    /// The address range this stream covers.
    pub fn range(&self) -> AddressRange {
        self.range
    }
}

/// `AccessStream` is an (infinite) iterator, so it can drive
/// [`TraceEngine::run_stream`](crate::engine::TraceEngine::run_stream)
/// directly — `stream.take(n)` style slicing comes from the iterator
/// adapters, with no materialized vector in between.
impl Iterator for AccessStream {
    type Item = MemoryAccess;

    #[inline]
    fn next(&mut self) -> Option<MemoryAccess> {
        Some(self.next_access())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmsim_common::ByteSize;

    fn range(start: u64, size: ByteSize) -> AddressRange {
        AddressRange::new(Address(start), size)
    }

    fn test_range() -> AddressRange {
        range(0x1000_0000, ByteSize::from_kib(64))
    }

    #[test]
    fn sequential_stream_walks_contiguously() {
        let s = AccessStream::new(
            test_range(),
            AccessPattern::Sequential,
            8,
            0.0,
            DetRng::new(1),
        );
        let acc: Vec<MemoryAccess> = s.take(10).collect();
        for (i, a) in acc.iter().enumerate() {
            assert_eq!(a.address.value(), 0x1000_0000 + 8 * i as u64);
            assert_eq!(a.kind, AccessKind::Load);
        }
    }

    #[test]
    fn sequential_stream_wraps_around() {
        let r = range(0, ByteSize::from_bytes(32));
        let s = AccessStream::new(r, AccessPattern::Sequential, 8, 0.0, DetRng::new(1));
        let acc: Vec<MemoryAccess> = s.take(10).collect();
        assert!(acc.iter().all(|a| r.contains(a.address)));
    }

    #[test]
    fn random_stream_stays_in_range() {
        let r = test_range();
        let s = AccessStream::new(r, AccessPattern::Random, 8, 0.5, DetRng::new(2));
        let acc: Vec<MemoryAccess> = s.take(1000).collect();
        assert!(acc.iter().all(|a| r.contains(a.address)));
        let stores = acc.iter().filter(|a| a.kind == AccessKind::Store).count();
        assert!(stores > 300 && stores < 700, "store count {stores}");
    }

    #[test]
    fn hotspot_concentrates_accesses() {
        let r = test_range();
        let s = AccessStream::new(
            r,
            AccessPattern::HotSpot { hot_fraction: 0.1 },
            8,
            0.0,
            DetRng::new(3),
        );
        let acc: Vec<MemoryAccess> = s.take(2000).collect();
        let hot_end = r.start.value() + r.len.bytes() / 10;
        let in_hot = acc.iter().filter(|a| a.address.value() < hot_end).count();
        assert!(in_hot as f64 / 2000.0 > 0.7, "hot fraction {in_hot}");
    }

    #[test]
    fn strided_stream_uses_stride() {
        let s = AccessStream::new(
            test_range(),
            AccessPattern::Strided { stride: 256 },
            8,
            0.0,
            DetRng::new(4),
        );
        let acc: Vec<MemoryAccess> = s.take(3).collect();
        assert_eq!(acc[1].address - acc[0].address, 256);
        assert_eq!(acc[2].address - acc[1].address, 256);
    }

    #[test]
    fn stream_iterator_matches_next_access() {
        let make = || {
            AccessStream::new(
                test_range(),
                AccessPattern::HotSpot { hot_fraction: 0.2 },
                8,
                0.3,
                DetRng::new(11),
            )
        };
        let mut a = make();
        let b = make();
        let explicit: Vec<MemoryAccess> = (0..100).map(|_| a.next_access()).collect();
        let iterated: Vec<MemoryAccess> = b.into_iter().take(100).collect();
        assert_eq!(explicit, iterated);
    }
}
