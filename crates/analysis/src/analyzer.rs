//! Trace analysis: attribute samples to objects and aggregate per-site
//! statistics.
//!
//! The analysis is stream-native: [`ObjectStatsBuilder`] consumes one event
//! at a time in a single forward pass, so it can run over an in-memory
//! [`TraceFile`] or a [`TraceReader`](hmsim_trace::TraceReader) streaming
//! an on-disk binary trace, with identical results. [`analyze_trace`] and
//! [`analyze_stream`] are thin wrappers.
//!
//! It is also an [`EventSink`], so the profiler can emit straight into it
//! and the framework pipeline never materialises the trace. The profiler
//! hands over an interval's samples object by object rather than in time
//! order; that order does not change the report, because a sample is
//! attributed by the object id the profiler recorded (or by address among
//! the objects live at the time, which no event inside an interval
//! changes) and its weight is summed as an integer.
//!
//! Groups live in a vector in order of first allocation. The group key (a
//! call-stack string or a name) is hashed only when an `Alloc` event
//! arrives; live objects and address ranges carry the group's index, so a
//! sample costs one object-id lookup (a multiply, through [`IdMap`]) and
//! one indexed add.

use crate::object_stats::{ObjectReport, ObjectStats, ReportedKind};
use hmsim_callstack::SiteKey;
use hmsim_common::{Address, AddressRange, ByteSize, IdMap, ObjectId};
use hmsim_trace::{EventSink, ObjectClass, SampleRecord, TraceEvent, TraceFile};
use std::borrow::Borrow;
use std::collections::HashMap;

struct LiveObject {
    group: usize,
    range: AddressRange,
}

/// Objects are grouped by allocation site (dynamic) or by name (static and
/// stack), matching Paramedir's behaviour of collapsing repeated allocations
/// from the same call-stack into one reported object.
#[derive(PartialEq, Eq, Hash)]
enum GroupKey {
    Site(SiteKey),
    Name(String),
}

struct Group {
    name: String,
    site: Option<SiteKey>,
    kind: ReportedKind,
    max_size: ByteSize,
    min_size: ByteSize,
    llc_misses: u64,
    samples: u64,
    allocation_count: u64,
}

/// Streaming per-object aggregation: an [`EventSink`] that consumes events
/// one at a time; [`finish`](Self::finish) turns them into an
/// [`ObjectReport`].
///
/// Sample attribution prefers the object id recorded by the profiler; samples
/// lacking one are matched against the address ranges of objects live at the
/// sample's timestamp (which is how the real Extrae/Paramedir pipeline works,
/// since PEBS only reports an address).
pub struct ObjectStatsBuilder {
    application: String,
    /// Groups in order of first allocation.
    groups: Vec<Group>,
    /// Index into `groups` of each key, consulted only on allocation.
    group_of: HashMap<GroupKey, usize>,
    by_id: IdMap<ObjectId, LiveObject>,
    // Live address index (linear scan on fallback attribution is fine at the
    // trace sizes the paper reports: tens of thousands of samples).
    live: Vec<(AddressRange, usize)>,
    total_misses: u64,
    unattributed: u64,
    events_seen: u64,
}

impl ObjectStatsBuilder {
    /// Start a report for the named application.
    pub fn new(application: impl Into<String>) -> Self {
        ObjectStatsBuilder {
            application: application.into(),
            groups: Vec::new(),
            group_of: HashMap::new(),
            by_id: IdMap::default(),
            live: Vec::new(),
            total_misses: 0,
            unattributed: 0,
            events_seen: 0,
        }
    }

    fn sample(&mut self, s: &SampleRecord) {
        self.total_misses += s.weight;
        let index = match s.object.and_then(|id| self.by_id.get(&id)) {
            Some(obj) => Some(obj.group),
            None => lookup_by_address(&self.live, s.address),
        };
        match index {
            Some(index) => {
                let group = &mut self.groups[index];
                group.llc_misses += s.weight;
                group.samples += 1;
            }
            None => self.unattributed += s.weight,
        }
    }

    /// Events consumed so far.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// Finalise the per-object report, sorted by descending miss count;
    /// objects tied on misses and name keep their order of first allocation.
    pub fn finish(self) -> ObjectReport {
        let mut report = ObjectReport {
            application: self.application,
            objects: self
                .groups
                .into_iter()
                .map(|g| ObjectStats {
                    name: g.name,
                    site: g.site,
                    kind: g.kind,
                    max_size: g.max_size,
                    min_size: if g.min_size.bytes() == u64::MAX {
                        ByteSize::ZERO
                    } else {
                        g.min_size
                    },
                    llc_misses: g.llc_misses,
                    samples: g.samples,
                    allocation_count: g.allocation_count,
                })
                .collect(),
            total_misses: self.total_misses,
            unattributed_misses: self.unattributed,
        };
        report.sort_by_misses();
        report
    }
}

impl EventSink for ObjectStatsBuilder {
    fn event(&mut self, event: &TraceEvent) {
        self.events_seen += 1;
        match event {
            TraceEvent::Alloc(a) => {
                let (key, kind) = match (a.class, &a.site) {
                    (ObjectClass::Dynamic, Some(site)) => {
                        (GroupKey::Site(site.clone()), ReportedKind::Dynamic)
                    }
                    (ObjectClass::Dynamic, None) => {
                        (GroupKey::Name(a.name.clone()), ReportedKind::Dynamic)
                    }
                    (ObjectClass::Static, _) => {
                        (GroupKey::Name(a.name.clone()), ReportedKind::Static)
                    }
                    (ObjectClass::Stack, _) => {
                        (GroupKey::Name(a.name.clone()), ReportedKind::Stack)
                    }
                };
                let groups = &mut self.groups;
                let index = *self.group_of.entry(key).or_insert_with(|| {
                    groups.push(Group {
                        name: a.name.clone(),
                        site: a.site.clone(),
                        kind,
                        max_size: ByteSize::ZERO,
                        min_size: ByteSize::from_bytes(u64::MAX),
                        llc_misses: 0,
                        samples: 0,
                        allocation_count: 0,
                    });
                    groups.len() - 1
                });
                let group = &mut self.groups[index];
                group.allocation_count += 1;
                group.max_size = group.max_size.max(a.size);
                group.min_size = group.min_size.min(a.size);
                let range = AddressRange::new(a.address, a.size);
                self.by_id.insert(
                    a.object,
                    LiveObject {
                        group: index,
                        range,
                    },
                );
                self.live.push((range, index));
            }
            TraceEvent::Free { object, .. } => {
                if let Some(obj) = self.by_id.remove(object) {
                    self.live.retain(|(range, _)| *range != obj.range);
                }
            }
            TraceEvent::Sample(s) => self.sample(s),
            _ => {}
        }
    }

    fn samples(&mut self, samples: &[SampleRecord]) {
        self.events_seen += samples.len() as u64;
        for s in samples {
            self.sample(s);
        }
    }
}

/// Analyse an in-memory trace into a per-object report (single forward pass
/// over [`ObjectStatsBuilder`]).
pub fn analyze_trace(trace: &TraceFile) -> ObjectReport {
    analyze_stream(trace.metadata.application.clone(), trace.events())
}

/// Analyse any infallible event stream (e.g. an iterator over in-memory
/// events) without materialising it. A fallible source such as a
/// [`TraceReader`](hmsim_trace::TraceReader) feeds an [`ObjectStatsBuilder`]
/// through [`EventSink::event`] instead, stopping at its first error.
pub fn analyze_stream<E: Borrow<TraceEvent>>(
    application: impl Into<String>,
    events: impl IntoIterator<Item = E>,
) -> ObjectReport {
    let mut builder = ObjectStatsBuilder::new(application);
    for e in events {
        builder.event(e.borrow());
    }
    builder.finish()
}

fn lookup_by_address(live: &[(AddressRange, usize)], addr: Address) -> Option<usize> {
    live.iter()
        .find(|(range, _)| range.contains(addr))
        .map(|&(_, index)| index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmsim_common::Nanos;
    use hmsim_trace::{AllocationRecord, SampleRecord, TraceMetadata};

    #[allow(clippy::too_many_arguments)]
    fn alloc(
        t: &mut TraceFile,
        id: u32,
        name: &str,
        class: ObjectClass,
        site: Option<&str>,
        start: u64,
        size: ByteSize,
        time_ms: f64,
    ) {
        t.push(TraceEvent::Alloc(AllocationRecord {
            time: Nanos::from_millis(time_ms),
            object: ObjectId(id),
            class,
            name: name.to_string(),
            site: site.map(SiteKey::from_text),
            address: Address(start),
            size,
        }));
    }

    fn sample(t: &mut TraceFile, addr: u64, obj: Option<u32>, weight: u64, time_ms: f64) {
        t.push(TraceEvent::Sample(SampleRecord {
            time: Nanos::from_millis(time_ms),
            address: Address(addr),
            object: obj.map(ObjectId),
            weight,
            latency_cycles: None,
        }));
    }

    #[test]
    fn samples_are_attributed_and_sorted() {
        let mut t = TraceFile::new(TraceMetadata::default());
        alloc(
            &mut t,
            0,
            "matrix",
            ObjectClass::Dynamic,
            Some("app!m+0x1"),
            0x100000,
            ByteSize::from_mib(8),
            0.0,
        );
        alloc(
            &mut t,
            1,
            "vector",
            ObjectClass::Dynamic,
            Some("app!v+0x2"),
            0x900000,
            ByteSize::from_mib(1),
            0.0,
        );
        for i in 0..9 {
            sample(&mut t, 0x100000 + i * 64, Some(0), 1000, 1.0 + i as f64);
        }
        sample(&mut t, 0x900040, Some(1), 1000, 10.0);
        let report = analyze_trace(&t);
        assert_eq!(report.objects.len(), 2);
        assert_eq!(report.objects[0].name, "matrix");
        assert_eq!(report.objects[0].llc_misses, 9000);
        assert_eq!(report.objects[0].samples, 9);
        assert_eq!(report.objects[1].llc_misses, 1000);
        assert_eq!(report.total_misses, 10_000);
        assert_eq!(report.unattributed_misses, 0);
    }

    #[test]
    fn address_fallback_attribution_works_without_object_ids() {
        let mut t = TraceFile::new(TraceMetadata::default());
        alloc(
            &mut t,
            0,
            "grid",
            ObjectClass::Dynamic,
            Some("app!g+0x1"),
            0x200000,
            ByteSize::from_mib(4),
            0.0,
        );
        sample(&mut t, 0x200000 + 4096, None, 500, 1.0);
        sample(&mut t, 0xdead0000, None, 500, 2.0);
        let report = analyze_trace(&t);
        assert_eq!(report.objects[0].llc_misses, 500);
        assert_eq!(report.unattributed_misses, 500);
        assert_eq!(report.total_misses, 1000);
    }

    #[test]
    fn repeated_allocations_from_one_site_report_max_size() {
        let mut t = TraceFile::new(TraceMetadata::default());
        // A loop allocating/freeing from the same site with growing sizes.
        for (i, mib) in [1u64, 8, 4].iter().enumerate() {
            let id = i as u32;
            alloc(
                &mut t,
                id,
                "workbuf",
                ObjectClass::Dynamic,
                Some("app!loop_alloc+0x10"),
                0x300000 + i as u64 * 0x100_0000,
                ByteSize::from_mib(*mib),
                i as f64,
            );
            t.push(TraceEvent::Free {
                time: Nanos::from_millis(i as f64 + 0.5),
                object: ObjectId(id),
                address: Address(0x300000 + i as u64 * 0x100_0000),
            });
        }
        let report = analyze_trace(&t);
        assert_eq!(report.objects.len(), 1, "one site -> one reported object");
        let o = &report.objects[0];
        assert_eq!(o.allocation_count, 3);
        assert_eq!(o.max_size, ByteSize::from_mib(8));
        assert_eq!(o.min_size, ByteSize::from_mib(1));
    }

    #[test]
    fn static_objects_group_by_name_and_are_not_promotable() {
        let mut t = TraceFile::new(TraceMetadata::default());
        alloc(
            &mut t,
            0,
            "common_u",
            ObjectClass::Static,
            None,
            0x600000,
            ByteSize::from_mib(64),
            0.0,
        );
        sample(&mut t, 0x600000 + 100, Some(0), 2000, 1.0);
        let report = analyze_trace(&t);
        assert_eq!(report.objects[0].kind, ReportedKind::Static);
        assert!(!report.objects[0].promotable());
        assert_eq!(report.objects[0].llc_misses, 2000);
    }

    #[test]
    fn samples_after_free_are_unattributed() {
        let mut t = TraceFile::new(TraceMetadata::default());
        alloc(
            &mut t,
            0,
            "temp",
            ObjectClass::Dynamic,
            Some("app!t+0x1"),
            0x400000,
            ByteSize::from_mib(1),
            0.0,
        );
        t.push(TraceEvent::Free {
            time: Nanos::from_millis(5.0),
            object: ObjectId(0),
            address: Address(0x400000),
        });
        sample(&mut t, 0x400100, None, 700, 6.0);
        let report = analyze_trace(&t);
        assert_eq!(report.unattributed_misses, 700);
        assert_eq!(report.objects[0].llc_misses, 0);
    }

    #[test]
    fn empty_trace_gives_empty_report() {
        let report = analyze_trace(&TraceFile::new(TraceMetadata::default()));
        assert!(report.objects.is_empty());
        assert_eq!(report.total_misses, 0);
    }

    #[test]
    fn ties_on_misses_and_name_keep_allocation_order() {
        // Two call sites allocate objects of one name and draw equal misses,
        // so only the order of first allocation can separate them.
        let sites = ["app!solve+0x20", "app!setup+0x10", "app!halo+0x30"];
        let mut t = TraceFile::new(TraceMetadata::default());
        for (i, site) in sites.iter().enumerate() {
            let start = 0x100_0000 * (i as u64 + 1);
            alloc(
                &mut t,
                i as u32,
                "buffer",
                ObjectClass::Dynamic,
                Some(site),
                start,
                ByteSize::from_mib(1),
                0.0,
            );
            sample(&mut t, start + 64, Some(i as u32), 1000, 1.0);
        }
        for _ in 0..50 {
            let report = analyze_trace(&t);
            let order: Vec<_> = report
                .objects
                .iter()
                .map(|o| o.site.as_ref().unwrap().as_str())
                .collect();
            assert_eq!(order, sites);
        }
    }
}
