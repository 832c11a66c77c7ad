//! High-water-mark tracking.
//!
//! Backs the book-keeping that the paper's `auto-hbwmalloc` library performs
//! (the observed high-water mark per allocator) and the per-process HWM of
//! Table I.

use crate::units::ByteSize;

/// Tracks the current value and the highest value ever reached of a byte
/// quantity — the *high-water mark* (HWM) reported per allocator by
/// `auto-hbwmalloc` and per process in Table I of the paper.
#[derive(Clone, Copy, Debug, Default)]
pub struct HighWaterMark {
    current: u64,
    peak: u64,
}

impl HighWaterMark {
    /// New tracker at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Account for an allocation of `size` bytes.
    pub fn grow(&mut self, size: ByteSize) {
        self.current += size.bytes();
        if self.current > self.peak {
            self.peak = self.current;
        }
    }

    /// Account for a deallocation of `size` bytes.
    pub fn shrink(&mut self, size: ByteSize) {
        self.current = self.current.saturating_sub(size.bytes());
    }

    /// Currently live bytes.
    pub fn current(&self) -> ByteSize {
        ByteSize::from_bytes(self.current)
    }

    /// Highest number of live bytes observed.
    pub fn peak(&self) -> ByteSize {
        ByteSize::from_bytes(self.peak)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hwm_tracks_peak() {
        let mut h = HighWaterMark::new();
        h.grow(ByteSize::from_mib(10));
        h.grow(ByteSize::from_mib(20));
        h.shrink(ByteSize::from_mib(25));
        h.grow(ByteSize::from_mib(2));
        assert_eq!(h.peak(), ByteSize::from_mib(30));
        assert_eq!(h.current(), ByteSize::from_mib(7));
    }

    #[test]
    fn hwm_shrink_saturates() {
        let mut h = HighWaterMark::new();
        h.grow(ByteSize::from_kib(4));
        h.shrink(ByteSize::from_mib(1));
        assert_eq!(h.current(), ByteSize::ZERO);
    }
}
