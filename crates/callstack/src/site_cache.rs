//! The allocation-site decision cache of Algorithm 1.
//!
//! `auto-hbwmalloc` keeps "a small cache indexed by the unwound addresses
//! that keep\[s\] whether an allocation invoked in that position shall or shall
//! not be allocated using the alternate allocator" (paper §III, step 4).
//! Hitting this cache skips the expensive translation step entirely.

use crate::stack::CallStack;
use std::collections::HashMap;

/// The cached decision for one raw call-stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SiteDecision {
    /// Whether the site was selected by the advisor (should go to the
    /// alternate, fast-memory allocator).
    pub promote: bool,
    /// Index of the allocator object to use when `promote` is true.
    pub allocator: usize,
}

/// A bounded cache mapping raw call-stack hashes to decisions.
#[derive(Clone, Debug)]
pub struct SiteCache {
    map: HashMap<u64, SiteDecision>,
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl SiteCache {
    /// Create a cache bounded to `capacity` entries (0 means unbounded).
    pub fn new(capacity: usize) -> Self {
        SiteCache {
            map: HashMap::new(),
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    /// Look up the decision for a raw call-stack, updating hit/miss counters.
    pub fn lookup(&mut self, stack: &CallStack) -> Option<SiteDecision> {
        match self.map.get(&stack.raw_hash()) {
            Some(d) => {
                self.hits += 1;
                Some(*d)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Record a decision for a raw call-stack (Algorithm 1 line 9). When the
    /// cache is full the insertion is dropped — allocation sites are few and
    /// stable, so simple is fine; the capacity exists only to bound memory.
    pub fn annotate(&mut self, stack: &CallStack, decision: SiteDecision) {
        if self.capacity > 0
            && self.map.len() >= self.capacity
            && !self.map.contains_key(&stack.raw_hash())
        {
            return;
        }
        self.map.insert(stack.raw_hash(), decision);
    }

    /// Number of cached sites.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Clear all entries and counters.
    pub fn clear(&mut self) {
        self.map.clear();
        self.hits = 0;
        self.misses = 0;
    }
}

impl Default for SiteCache {
    fn default() -> Self {
        // Applications have at most a few hundred allocation sites (Table I
        // reports 6–312 allocation statements); 4096 entries is generous.
        SiteCache::new(4096)
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
        c.annotate(
            &s,
            SiteDecision {
                promote: true,
                allocator: 0,
            },
        );
        let d = c.lookup(&s).unwrap();
        assert!(d.promote);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn capacity_bounds_insertions() {
        let mut c = SiteCache::new(2);
        for i in 0..5 {
            c.annotate(
                &stack(i),
                SiteDecision {
                    promote: false,
                    allocator: 0,
                },
            );
        }
        assert_eq!(c.len(), 2);
        // Existing entries can still be refreshed when at capacity.
        c.annotate(
            &stack(0),
            SiteDecision {
                promote: true,
                allocator: 1,
            },
        );
        assert_eq!(c.len(), 2);
        assert_eq!(c.lookup(&stack(0)).unwrap().allocator, 1);
    }

    #[test]
    fn clear_resets_everything() {
        let mut c = SiteCache::default();
        c.annotate(
            &stack(1),
            SiteDecision {
                promote: true,
                allocator: 0,
            },
        );
        c.lookup(&stack(1));
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 0);
    }

    #[test]
    fn distinct_stacks_do_not_collide() {
        let mut c = SiteCache::default();
        c.annotate(
            &stack(1),
            SiteDecision {
                promote: true,
                allocator: 0,
            },
        );
        assert_eq!(c.lookup(&stack(2)), None);
    }
}
