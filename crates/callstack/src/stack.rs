//! Raw and translated call-stacks, and the allocation-site identity key.

use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};

use hmsim_common::Address;

/// One raw frame: a return address as `backtrace()` would report it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Frame {
    /// The runtime return address.
    pub return_address: Address,
}

impl Frame {
    /// Construct a frame.
    pub fn new(return_address: Address) -> Self {
        Frame { return_address }
    }
}

/// A raw call-stack: return addresses ordered innermost (the allocation call)
/// first, exactly as glibc's `backtrace()` fills its buffer.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct CallStack {
    frames: Vec<Frame>,
}

impl CallStack {
    /// Build from frames (innermost first).
    pub fn new(frames: Vec<Frame>) -> Self {
        CallStack { frames }
    }

    /// Build from raw addresses (innermost first).
    pub fn from_addresses(addrs: impl IntoIterator<Item = u64>) -> Self {
        CallStack {
            frames: addrs.into_iter().map(|a| Frame::new(Address(a))).collect(),
        }
    }

    /// The frames, innermost first.
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }

    /// Call-stack depth.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Whether there are no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// A 64-bit hash of the raw addresses — the key of the allocation-site
    /// cache (Algorithm 1 line 5 of the paper), which must be computable
    /// *without* translating the stack.
    pub fn raw_hash(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.frames.hash(&mut h);
        h.finish()
    }
}

impl fmt::Display for CallStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let addrs: Vec<String> = self
            .frames
            .iter()
            .map(|fr| format!("{}", fr.return_address))
            .collect();
        write!(f, "[{}]", addrs.join(" < "))
    }
}

/// One translated frame: module + symbol + source location.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TranslatedFrame {
    /// Module name the frame belongs to.
    pub module: String,
    /// Function name (or `"??"` if the address had no covering symbol).
    pub function: String,
    /// Offset of the return address within the function.
    pub offset_in_function: u64,
    /// Source file.
    pub source_file: String,
    /// Source line.
    pub line: u64,
}

/// A translated call-stack (innermost first), suitable for matching against
/// the advisor's human-readable report regardless of ASLR.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct TranslatedCallStack {
    frames: Vec<TranslatedFrame>,
}

impl TranslatedCallStack {
    /// Build from translated frames (innermost first).
    pub fn new(frames: Vec<TranslatedFrame>) -> Self {
        TranslatedCallStack { frames }
    }

    /// The frames, innermost first.
    pub fn frames(&self) -> &[TranslatedFrame] {
        &self.frames
    }

    /// Depth.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Whether there are no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// The stable site key for this stack.
    pub fn site_key(&self) -> SiteKey {
        SiteKey::from_frames(
            self.frames
                .iter()
                .map(|f| format!("{}!{}+0x{:x}", f.module, f.function, f.offset_in_function)),
        )
    }
}

impl fmt::Display for TranslatedCallStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, fr) in self.frames.iter().enumerate() {
            if i > 0 {
                write!(f, " < ")?;
            }
            write!(f, "{}({}:{})", fr.function, fr.source_file, fr.line)?;
        }
        Ok(())
    }
}

/// Stable identity of an allocation site, independent of ASLR and of the
/// process instance: derived from the translated frames. The advisor's
/// report, the profiler's object naming and `auto-hbwmalloc`'s matching all
/// speak in terms of `SiteKey`s.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteKey(String);

impl SiteKey {
    /// Build from an iterator of per-frame descriptions (innermost first).
    pub fn from_frames<S: AsRef<str>>(frames: impl IntoIterator<Item = S>) -> Self {
        let joined = frames
            .into_iter()
            .map(|s| s.as_ref().to_string())
            .collect::<Vec<_>>()
            .join("|");
        SiteKey(joined)
    }

    /// Build directly from a textual key (used when parsing reports).
    pub fn from_text(text: impl Into<String>) -> Self {
        SiteKey(text.into())
    }

    /// The textual form written into reports and traces.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Debug for SiteKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SiteKey({})", self.0)
    }
}

impl fmt::Display for SiteKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_hash_distinguishes_stacks() {
        let a = CallStack::from_addresses([0x1000, 0x2000, 0x3000]);
        let b = CallStack::from_addresses([0x1000, 0x2000, 0x3001]);
        let c = CallStack::from_addresses([0x1000, 0x2000, 0x3000]);
        assert_ne!(a.raw_hash(), b.raw_hash());
        assert_eq!(a.raw_hash(), c.raw_hash());
        assert_eq!(a.depth(), 3);
        assert!(!a.is_empty());
    }

    #[test]
    fn display_formats() {
        let a = CallStack::from_addresses([0x1000, 0x2000]);
        let s = format!("{a}");
        assert!(s.contains("0x000000001000"));
        assert!(s.contains(" < "));
    }

    fn tframe(module: &str, function: &str, off: u64) -> TranslatedFrame {
        TranslatedFrame {
            module: module.to_string(),
            function: function.to_string(),
            offset_in_function: off,
            source_file: "x.c".to_string(),
            line: 1,
        }
    }

    #[test]
    fn site_key_is_stable_and_aslr_independent() {
        let t1 = TranslatedCallStack::new(vec![
            tframe("libc.so.6", "malloc", 0x10),
            tframe("app", "allocate_state", 0x40),
            tframe("app", "main", 0x8),
        ]);
        let t2 = t1.clone();
        assert_eq!(t1.site_key(), t2.site_key());
        assert!(t1.site_key().as_str().contains("allocate_state"));
    }

    #[test]
    fn site_key_round_trips_text() {
        let k = SiteKey::from_frames(["a!f+0x1", "a!g+0x2"]);
        let k2 = SiteKey::from_text(k.as_str().to_string());
        assert_eq!(k, k2);
        assert_eq!(format!("{k}"), "a!f+0x1|a!g+0x2");
    }
}
