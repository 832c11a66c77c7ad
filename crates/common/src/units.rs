//! Strongly-typed units used throughout the simulator.
//!
//! The simulator manipulates three families of quantities that are easy to
//! confuse when they are all `u64`: *sizes* (bytes), *addresses* (positions in
//! the simulated virtual address space) and *times* (nanoseconds).
//! Each gets a newtype with the arithmetic that makes sense for it and nothing
//! more.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Range, Sub, SubAssign};

/// Size of a simulated virtual-memory page in bytes (4 KiB, matching the
/// granularity at which `hmem_advisor` packs objects into memory tiers).
pub const PAGE_SIZE: u64 = 4096;

// ---------------------------------------------------------------------------
// ByteSize
// ---------------------------------------------------------------------------

/// A size in bytes.
///
/// ```
/// use hmsim_common::units::ByteSize;
/// let a = ByteSize::from_mib(64);
/// assert_eq!(a.bytes(), 64 * 1024 * 1024);
/// assert_eq!(ByteSize::parse("64M").unwrap(), a);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteSize(u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// Construct from a raw byte count.
    pub const fn from_bytes(b: u64) -> Self {
        ByteSize(b)
    }

    /// Construct from kibibytes.
    pub const fn from_kib(k: u64) -> Self {
        ByteSize(k * 1024)
    }

    /// Construct from mebibytes.
    pub const fn from_mib(m: u64) -> Self {
        ByteSize(m * 1024 * 1024)
    }

    /// Construct from gibibytes.
    pub const fn from_gib(g: u64) -> Self {
        ByteSize(g * 1024 * 1024 * 1024)
    }

    /// The raw number of bytes.
    pub const fn bytes(self) -> u64 {
        self.0
    }

    /// This size expressed in mebibytes (floating point).
    pub fn mib(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0)
    }

    /// This size expressed in gibibytes (floating point).
    pub fn gib(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0 * 1024.0)
    }

    /// Number of whole pages needed to hold this many bytes (rounded up).
    pub fn pages(self) -> u64 {
        self.0.div_ceil(PAGE_SIZE)
    }

    /// Round this size up to a whole number of pages.
    pub fn page_aligned(self) -> ByteSize {
        ByteSize(self.pages() * PAGE_SIZE)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(other.0))
    }

    /// `true` if this size is zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Parse a human-readable size such as `"4K"`, `"64M"`, `"16G"`, `"123"`
    /// or `"1.5K"`.
    ///
    /// Suffixes are case-insensitive and use binary (1024-based) multipliers,
    /// matching the conventions of `memkind`/`autohbw` configuration strings.
    /// Integer values are exact up to `u64::MAX` bytes; fractional values
    /// round to the nearest byte. A size beyond `u64::MAX` bytes is an error.
    pub fn parse(s: &str) -> Result<ByteSize, String> {
        let s = s.trim();
        if s.is_empty() {
            return Err("empty size string".to_string());
        }
        let (digits, suffix) = match s.find(|c: char| !c.is_ascii_digit() && c != '.') {
            Some(idx) => s.split_at(idx),
            None => (s, ""),
        };
        let mult: u64 = match suffix.trim().to_ascii_lowercase().as_str() {
            "" | "b" => 1,
            "k" | "kb" | "kib" => 1024,
            "m" | "mb" | "mib" => 1024 * 1024,
            "g" | "gb" | "gib" => 1024 * 1024 * 1024,
            "t" | "tb" | "tib" => 1024u64.pow(4),
            other => return Err(format!("unknown size suffix {other:?}")),
        };
        let invalid = |e: &dyn fmt::Display| format!("invalid size number {digits:?}: {e}");
        let bytes = if digits.contains('.') {
            let value: f64 = digits.parse().map_err(|e| invalid(&e))?;
            let bytes = (value * mult as f64).round();
            // `u64::MAX as f64` is 2^64, the first value that does not fit.
            (bytes < u64::MAX as f64).then_some(bytes as u64)
        } else {
            let value: u64 = digits.parse().map_err(|e| invalid(&e))?;
            value.checked_mul(mult)
        };
        bytes
            .map(ByteSize)
            .ok_or_else(|| format!("size {s:?} exceeds u64::MAX bytes"))
    }
}

impl fmt::Debug for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b >= 1024 * 1024 * 1024 && b.is_multiple_of(1024 * 1024 * 1024) {
            write!(f, "{}GiB", b / (1024 * 1024 * 1024))
        } else if b >= 1024 * 1024 && b.is_multiple_of(1024 * 1024) {
            write!(f, "{}MiB", b / (1024 * 1024))
        } else if b >= 1024 && b.is_multiple_of(1024) {
            write!(f, "{}KiB", b / 1024)
        } else {
            write!(f, "{b}B")
        }
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 + rhs.0)
    }
}

impl AddAssign for ByteSize {
    fn add_assign(&mut self, rhs: ByteSize) {
        self.0 += rhs.0;
    }
}

impl Sub for ByteSize {
    type Output = ByteSize;
    fn sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 - rhs.0)
    }
}

impl SubAssign for ByteSize {
    fn sub_assign(&mut self, rhs: ByteSize) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for ByteSize {
    type Output = ByteSize;
    fn mul(self, rhs: u64) -> ByteSize {
        ByteSize(self.0 * rhs)
    }
}

impl Div<u64> for ByteSize {
    type Output = ByteSize;
    fn div(self, rhs: u64) -> ByteSize {
        ByteSize(self.0 / rhs)
    }
}

impl std::iter::Sum for ByteSize {
    fn sum<I: Iterator<Item = ByteSize>>(iter: I) -> ByteSize {
        ByteSize(iter.map(|b| b.0).sum())
    }
}

// ---------------------------------------------------------------------------
// Address / AddressRange / Page
// ---------------------------------------------------------------------------

/// A virtual address in the simulated process address space.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Address(pub u64);

impl Address {
    /// The numeric value of the address.
    pub const fn value(self) -> u64 {
        self.0
    }

    /// The page this address falls in.
    pub const fn page(self) -> Page {
        Page(self.0 / PAGE_SIZE)
    }

    /// Offset of this address within its page.
    pub const fn page_offset(self) -> u64 {
        self.0 % PAGE_SIZE
    }

    /// Address advanced by `bytes`.
    pub fn offset(self, bytes: u64) -> Address {
        Address(self.0 + bytes)
    }
}

impl fmt::Debug for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:012x}", self.0)
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:012x}", self.0)
    }
}

impl Add<u64> for Address {
    type Output = Address;
    fn add(self, rhs: u64) -> Address {
        Address(self.0 + rhs)
    }
}

impl Sub<Address> for Address {
    type Output = u64;
    fn sub(self, rhs: Address) -> u64 {
        self.0 - rhs.0
    }
}

/// A half-open range `[start, start+len)` of the simulated address space,
/// typically the extent of one allocated data object.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct AddressRange {
    /// First address of the range.
    pub start: Address,
    /// Length of the range in bytes.
    pub len: ByteSize,
}

impl AddressRange {
    /// Create a new range.
    pub fn new(start: Address, len: ByteSize) -> Self {
        AddressRange { start, len }
    }

    /// One-past-the-end address.
    pub fn end(&self) -> Address {
        self.start.offset(self.len.bytes())
    }

    /// Whether `addr` falls inside this range.
    pub fn contains(&self, addr: Address) -> bool {
        addr >= self.start && addr < self.end()
    }

    /// Whether two ranges overlap.
    pub fn overlaps(&self, other: &AddressRange) -> bool {
        self.start < other.end() && other.start < self.end()
    }

    /// Iterator over all pages touched by this range.
    pub fn pages(&self) -> impl Iterator<Item = Page> {
        self.page_span().map(Page)
    }

    /// The half-open span of page numbers touched by this range. A
    /// zero-length range still touches the page holding `start`.
    pub fn page_span(&self) -> Range<u64> {
        let first = self.start.page().0;
        let last = if self.len.is_zero() {
            first
        } else {
            self.end()
                .offset(PAGE_SIZE - 1)
                .page()
                .0
                .saturating_sub(1)
                .max(first)
        };
        first..last + 1
    }

    /// The underlying `Range<u64>` of raw addresses.
    pub fn raw(&self) -> Range<u64> {
        self.start.0..self.end().0
    }
}

/// A virtual page number (address divided by [`PAGE_SIZE`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Page(pub u64);

impl Page {
    /// The first address of this page.
    pub const fn base(self) -> Address {
        Address(self.0 * PAGE_SIZE)
    }
}

// ---------------------------------------------------------------------------
// Time
// ---------------------------------------------------------------------------

/// A time duration or timestamp in nanoseconds (floating point so that
/// sub-nanosecond analytical costs accumulate without truncation).
#[derive(Clone, Copy, PartialEq, PartialOrd, Default, Debug)]
pub struct Nanos(pub f64);

impl Nanos {
    /// Zero duration.
    pub const ZERO: Nanos = Nanos(0.0);

    /// From seconds.
    pub fn from_secs(s: f64) -> Nanos {
        Nanos(s * 1e9)
    }

    /// From microseconds.
    pub fn from_micros(us: f64) -> Nanos {
        Nanos(us * 1e3)
    }

    /// From milliseconds.
    pub fn from_millis(ms: f64) -> Nanos {
        Nanos(ms * 1e6)
    }

    /// As seconds.
    pub fn secs(self) -> f64 {
        self.0 / 1e9
    }

    /// As microseconds.
    pub fn micros(self) -> f64 {
        self.0 / 1e3
    }

    /// As milliseconds.
    pub fn millis(self) -> f64 {
        self.0 / 1e6
    }

    /// Raw nanoseconds.
    pub fn nanos(self) -> f64 {
        self.0
    }

    /// Largest of two durations.
    pub fn max(self, other: Nanos) -> Nanos {
        Nanos(self.0.max(other.0))
    }

    /// Smallest of two durations.
    pub fn min(self, other: Nanos) -> Nanos {
        Nanos(self.0.min(other.0))
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e9 {
            write!(f, "{:.3}s", self.secs())
        } else if self.0 >= 1e6 {
            write!(f, "{:.3}ms", self.millis())
        } else if self.0 >= 1e3 {
            write!(f, "{:.3}us", self.micros())
        } else {
            write!(f, "{:.1}ns", self.0)
        }
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl Mul<f64> for Nanos {
    type Output = Nanos;
    fn mul(self, rhs: f64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

impl Div<f64> for Nanos {
    type Output = Nanos;
    fn div(self, rhs: f64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl std::iter::Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        Nanos(iter.map(|n| n.0).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytesize_constructors_agree() {
        assert_eq!(ByteSize::from_kib(1).bytes(), 1024);
        assert_eq!(ByteSize::from_mib(1).bytes(), 1024 * 1024);
        assert_eq!(ByteSize::from_gib(1).bytes(), 1024 * 1024 * 1024);
    }

    #[test]
    fn bytesize_parse_suffixes() {
        assert_eq!(ByteSize::parse("4096").unwrap().bytes(), 4096);
        assert_eq!(ByteSize::parse("4K").unwrap(), ByteSize::from_kib(4));
        assert_eq!(ByteSize::parse("64m").unwrap(), ByteSize::from_mib(64));
        assert_eq!(ByteSize::parse("16GiB").unwrap(), ByteSize::from_gib(16));
        assert_eq!(ByteSize::parse("1.5K").unwrap().bytes(), 1536);
        assert!(ByteSize::parse("").is_err());
        assert!(ByteSize::parse("12Q").is_err());
    }

    #[test]
    fn bytesize_parse_is_exact_at_u64_extremes() {
        assert_eq!(ByteSize::parse("96KiB").unwrap(), ByteSize::from_kib(96));
        assert_eq!(
            ByteSize::parse("268435456").unwrap(),
            ByteSize::from_mib(256)
        );
        let max = ByteSize::from_bytes(u64::MAX);
        assert_eq!(ByteSize::parse(&max.to_string()).unwrap(), max);
        let odd = ByteSize::from_bytes((1 << 60) + 3);
        assert_eq!(ByteSize::parse(&odd.to_string()).unwrap(), odd);
        assert!(ByteSize::parse("99999999999GiB").is_err(), "overflow");
        assert!(ByteSize::parse("20000000TiB").is_err(), "overflow");
        // A fractional size beyond u64::MAX bytes is refused like its
        // integer spelling, not saturated to u64::MAX.
        assert!(ByteSize::parse("20000000.5TiB").is_err());
        assert!(ByteSize::parse("18446744073709551616.0").is_err());
    }

    #[test]
    fn bytesize_display_round_trips_units() {
        assert_eq!(ByteSize::from_mib(64).to_string(), "64MiB");
        assert_eq!(ByteSize::from_bytes(100).to_string(), "100B");
        assert_eq!(ByteSize::from_gib(16).to_string(), "16GiB");
    }

    #[test]
    fn bytesize_pages_round_up() {
        assert_eq!(ByteSize::from_bytes(1).pages(), 1);
        assert_eq!(ByteSize::from_bytes(4096).pages(), 1);
        assert_eq!(ByteSize::from_bytes(4097).pages(), 2);
        assert_eq!(ByteSize::ZERO.pages(), 0);
        assert_eq!(ByteSize::from_bytes(5000).page_aligned().bytes(), 8192);
    }

    #[test]
    fn address_page_arithmetic() {
        let a = Address(PAGE_SIZE * 3 + 17);
        assert_eq!(a.page(), Page(3));
        assert_eq!(a.page_offset(), 17);
        assert_eq!(a.offset(10).value(), PAGE_SIZE * 3 + 27);
    }

    #[test]
    fn address_range_contains_and_overlaps() {
        let r = AddressRange::new(Address(1000), ByteSize::from_bytes(100));
        assert!(r.contains(Address(1000)));
        assert!(r.contains(Address(1099)));
        assert!(!r.contains(Address(1100)));
        assert!(!r.contains(Address(999)));

        let r2 = AddressRange::new(Address(1050), ByteSize::from_bytes(10));
        let r3 = AddressRange::new(Address(1100), ByteSize::from_bytes(10));
        assert!(r.overlaps(&r2));
        assert!(!r.overlaps(&r3));
    }

    #[test]
    fn address_range_page_iteration() {
        let r = AddressRange::new(Address(0), ByteSize::from_bytes(PAGE_SIZE * 2 + 1));
        let pages: Vec<Page> = r.pages().collect();
        assert_eq!(pages, vec![Page(0), Page(1), Page(2)]);

        let single = AddressRange::new(Address(10), ByteSize::from_bytes(8));
        assert_eq!(single.pages().count(), 1);
    }

    #[test]
    fn nanos_conversions() {
        let t = Nanos::from_secs(1.5);
        assert!((t.millis() - 1500.0).abs() < 1e-9);
        assert!((t.micros() - 1.5e6).abs() < 1e-6);
        assert_eq!(format!("{}", Nanos::from_micros(12.0)), "12.000us");
    }
}
