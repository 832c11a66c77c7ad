//! Per-object statistics and the report consumed by the advisor.

use hmsim_callstack::SiteKey;
use hmsim_common::ByteSize;

/// Object kind as reported to the advisor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReportedKind {
    /// Statically allocated variable (cannot be promoted automatically).
    Static,
    /// Dynamically allocated object (promotable by `auto-hbwmalloc`).
    Dynamic,
    /// Stack storage (cannot be promoted automatically).
    Stack,
}

impl ReportedKind {
    /// Short name, as printed in reports.
    pub fn code(self) -> &'static str {
        match self {
            ReportedKind::Static => "static",
            ReportedKind::Dynamic => "dynamic",
            ReportedKind::Stack => "stack",
        }
    }
}

/// Aggregated statistics of one data object (one allocation *site* for
/// dynamic objects, one named variable for static/stack ones).
#[derive(Clone, Debug, PartialEq)]
pub struct ObjectStats {
    /// Human-readable name (variable name or site label).
    pub name: String,
    /// Allocation call-stack key, for dynamic objects.
    pub site: Option<SiteKey>,
    /// Object kind.
    pub kind: ReportedKind,
    /// Maximum requested size observed for this site/variable.
    pub max_size: ByteSize,
    /// Smallest requested size observed (used by `auto-hbwmalloc` to derive
    /// its lb_size/ub_size fast filters).
    pub min_size: ByteSize,
    /// LLC misses attributed to the object (sample weights summed).
    pub llc_misses: u64,
    /// Raw PEBS samples attributed to the object.
    pub samples: u64,
    /// Number of distinct allocations observed for this site.
    pub allocation_count: u64,
}

impl ObjectStats {
    /// Whether the automatic framework can promote this object.
    pub fn promotable(&self) -> bool {
        self.kind == ReportedKind::Dynamic
    }
}

/// The full per-object report for one profiled run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ObjectReport {
    /// Application the report belongs to.
    pub application: String,
    /// Per-object statistics, sorted by descending LLC misses.
    pub objects: Vec<ObjectStats>,
    /// Total LLC misses represented in the trace (including unattributed).
    pub total_misses: u64,
    /// Misses that could not be attributed to any object.
    pub unattributed_misses: u64,
}

impl ObjectReport {
    /// Sort objects by descending miss count (the advisor expects this).
    pub fn sort_by_misses(&mut self) {
        self.objects.sort_by(|a, b| {
            b.llc_misses
                .cmp(&a.llc_misses)
                .then_with(|| a.name.cmp(&b.name))
        });
    }

    /// Look up an object by name.
    pub fn by_name(&self, name: &str) -> Option<&ObjectStats> {
        self.objects.iter().find(|o| o.name == name)
    }

    /// Only the promotable (dynamic) objects.
    pub fn promotable(&self) -> impl Iterator<Item = &ObjectStats> {
        self.objects.iter().filter(|o| o.promotable())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(name: &str, kind: ReportedKind, misses: u64, mib: u64) -> ObjectStats {
        ObjectStats {
            name: name.to_string(),
            site: None,
            kind,
            max_size: ByteSize::from_mib(mib),
            min_size: ByteSize::from_mib(mib),
            llc_misses: misses,
            samples: misses / 1000,
            allocation_count: 1,
        }
    }

    #[test]
    fn report_sorting_and_lookup() {
        let mut r = ObjectReport {
            application: "x".to_string(),
            objects: vec![
                stats("cold", ReportedKind::Dynamic, 100, 1),
                stats("hot", ReportedKind::Dynamic, 900, 1),
            ],
            total_misses: 1000,
            unattributed_misses: 0,
        };
        r.sort_by_misses();
        assert_eq!(r.objects[0].name, "hot");
        assert_eq!(r.by_name("cold").unwrap().llc_misses, 100);
    }

    #[test]
    fn promotable_filters_static_and_stack() {
        let r = ObjectReport {
            application: "x".to_string(),
            objects: vec![
                stats("d", ReportedKind::Dynamic, 10, 1),
                stats("s", ReportedKind::Static, 20, 1),
                stats("k", ReportedKind::Stack, 30, 1),
            ],
            total_misses: 60,
            unattributed_misses: 0,
        };
        let names: Vec<&str> = r.promotable().map(|o| o.name.as_str()).collect();
        assert_eq!(names, vec!["d"]);
        assert!(!r.objects[1].promotable());
    }
}
