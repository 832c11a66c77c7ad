//! The allocation-site decision cache of Algorithm 1.
//!
//! `auto-hbwmalloc` keeps "a small cache indexed by the unwound addresses
//! that keep\[s\] whether an allocation invoked in that position shall or shall
//! not be allocated using the alternate allocator" (paper §III, step 4).
//! Hitting this cache skips the expensive translation step entirely.

use crate::stack::CallStack;
use std::collections::HashMap;

/// Most sites the cache holds. Applications have at most a few hundred
/// allocation sites (Table I reports 6–312 allocation statements); 4096
/// entries is generous.
const CAPACITY: usize = 4096;

/// A bounded cache mapping raw call-stack hashes to whether the site was
/// selected by the advisor (should go to the alternate, fast-memory
/// allocator).
#[derive(Clone, Debug, Default)]
pub struct SiteCache {
    map: HashMap<u64, bool>,
}

impl SiteCache {
    /// Look up the decision for a raw call-stack (Algorithm 1 line 5).
    pub fn lookup(&self, stack: &CallStack) -> Option<bool> {
        self.map.get(&stack.raw_hash()).copied()
    }

    /// Record a decision for a raw call-stack (Algorithm 1 line 9). When the
    /// cache holds 4096 sites the insertion is dropped — allocation sites are
    /// few and stable, so simple is fine; the capacity exists only to bound
    /// memory.
    pub fn annotate(&mut self, stack: &CallStack, promote: bool) {
        if self.map.len() >= CAPACITY && !self.map.contains_key(&stack.raw_hash()) {
            return;
        }
        self.map.insert(stack.raw_hash(), promote);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stack(tag: u64) -> CallStack {
        CallStack::from_addresses([0x1000 + tag, 0x2000, 0x3000])
    }

    #[test]
    fn lookup_miss_then_hit() {
        let mut c = SiteCache::default();
        let s = stack(1);
        assert_eq!(c.lookup(&s), None);
        c.annotate(&s, true);
        assert_eq!(c.lookup(&s), Some(true));
    }

    #[test]
    fn capacity_bounds_insertions() {
        let mut c = SiteCache::default();
        let n = CAPACITY as u64;
        for i in 0..=n {
            c.annotate(&stack(i), false);
        }
        assert_eq!(c.map.len(), CAPACITY);
        assert_eq!(
            c.lookup(&stack(n)),
            None,
            "the insertion past capacity is dropped"
        );
        // Existing entries can still be refreshed when at capacity.
        c.annotate(&stack(0), true);
        assert_eq!(c.map.len(), CAPACITY);
        assert_eq!(c.lookup(&stack(0)), Some(true));
    }

    #[test]
    fn distinct_stacks_do_not_collide() {
        let mut c = SiteCache::default();
        c.annotate(&stack(1), true);
        assert_eq!(c.lookup(&stack(2)), None);
    }
}
