//! Trace analysis: attribute samples to objects and aggregate per-site
//! statistics.
//!
//! The analysis is stream-native: [`ObjectStatsBuilder`] consumes one event
//! at a time in a single forward pass, so it can run over an in-memory
//! [`TraceFile`] or a [`TraceReader`](hmsim_trace::TraceReader) streaming
//! an on-disk binary trace, with identical results. [`analyze_trace`] and
//! [`analyze_stream`] are thin wrappers.

use crate::object_stats::{ObjectReport, ObjectStats, ReportedKind};
use hmsim_callstack::SiteKey;
use hmsim_common::{Address, AddressRange, ByteSize, HmResult, ObjectId};
use hmsim_trace::{ObjectClass, TraceEvent, TraceFile};
use std::borrow::Borrow;
use std::collections::HashMap;

#[derive(Clone)]
struct LiveObject {
    key: GroupKey,
    range: AddressRange,
}

/// Objects are grouped by allocation site (dynamic) or by name (static and
/// stack), matching Paramedir's behaviour of collapsing repeated allocations
/// from the same call-stack into one reported object.
#[derive(Clone, PartialEq, Eq, Hash)]
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

/// Streaming per-object aggregation: push events one at a time, then
/// [`finish`](Self::finish) into an [`ObjectReport`].
///
/// Sample attribution prefers the object id recorded by the profiler; samples
/// lacking one are matched against the address ranges of objects live at the
/// sample's timestamp (which is how the real Extrae/Paramedir pipeline works,
/// since PEBS only reports an address).
pub struct ObjectStatsBuilder {
    application: String,
    groups: HashMap<GroupKey, Group>,
    by_id: HashMap<ObjectId, LiveObject>,
    // Live address index (linear scan on fallback attribution is fine at the
    // trace sizes the paper reports: tens of thousands of samples).
    live: Vec<(AddressRange, GroupKey)>,
    total_misses: u64,
    unattributed: u64,
    events_seen: u64,
}

impl ObjectStatsBuilder {
    /// Start a report for the named application.
    pub fn new(application: impl Into<String>) -> Self {
        ObjectStatsBuilder {
            application: application.into(),
            groups: HashMap::new(),
            by_id: HashMap::new(),
            live: Vec::new(),
            total_misses: 0,
            unattributed: 0,
            events_seen: 0,
        }
    }

    /// Consume one event.
    pub fn push(&mut self, event: &TraceEvent) {
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
                let range = AddressRange::new(a.address, a.size);
                let group = self.groups.entry(key.clone()).or_insert_with(|| Group {
                    name: a.name.clone(),
                    site: a.site.clone(),
                    kind,
                    max_size: ByteSize::ZERO,
                    min_size: ByteSize::from_bytes(u64::MAX),
                    llc_misses: 0,
                    samples: 0,
                    allocation_count: 0,
                });
                group.allocation_count += 1;
                group.max_size = group.max_size.max(a.size);
                group.min_size = group.min_size.min(a.size);
                self.by_id.insert(
                    a.object,
                    LiveObject {
                        key: key.clone(),
                        range,
                    },
                );
                self.live.push((range, key));
            }
            TraceEvent::Free { object, .. } => {
                if let Some(obj) = self.by_id.remove(object) {
                    self.live.retain(|(range, _)| *range != obj.range);
                }
            }
            TraceEvent::Sample(s) => {
                self.total_misses += s.weight;
                let key = match s.object.and_then(|id| self.by_id.get(&id)) {
                    Some(obj) => Some(obj.key.clone()),
                    None => lookup_by_address(&self.live, s.address),
                };
                match key {
                    Some(key) => {
                        if let Some(group) = self.groups.get_mut(&key) {
                            group.llc_misses += s.weight;
                            group.samples += 1;
                        } else {
                            self.unattributed += s.weight;
                        }
                    }
                    None => self.unattributed += s.weight,
                }
            }
            _ => {}
        }
    }

    /// Events consumed so far.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// Finalise the per-object report (sorted by descending miss count).
    pub fn finish(self) -> ObjectReport {
        let mut report = ObjectReport {
            application: self.application,
            objects: self
                .groups
                .into_values()
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

/// Analyse an in-memory trace into a per-object report (single forward pass
/// over [`ObjectStatsBuilder`]).
pub fn analyze_trace(trace: &TraceFile) -> ObjectReport {
    analyze_stream(trace.metadata.application.clone(), trace.events())
}

/// Analyse any infallible event stream (e.g. an iterator over in-memory
/// events) without materialising it. For a fallible source such as a
/// [`TraceReader`](hmsim_trace::TraceReader), use [`analyze_try_stream`].
pub fn analyze_stream<E: Borrow<TraceEvent>>(
    application: impl Into<String>,
    events: impl IntoIterator<Item = E>,
) -> ObjectReport {
    let mut builder = ObjectStatsBuilder::new(application);
    for e in events {
        builder.push(e.borrow());
    }
    builder.finish()
}

/// Analyse a fallible event stream — e.g. a
/// [`TraceReader`](hmsim_trace::TraceReader) streaming an on-disk binary
/// trace — stopping at the first error.
pub fn analyze_try_stream(
    application: impl Into<String>,
    events: impl IntoIterator<Item = HmResult<TraceEvent>>,
) -> HmResult<ObjectReport> {
    let mut builder = ObjectStatsBuilder::new(application);
    for e in events {
        builder.push(&e?);
    }
    Ok(builder.finish())
}

fn lookup_by_address(live: &[(AddressRange, GroupKey)], addr: Address) -> Option<GroupKey> {
    live.iter()
        .find(|(range, _)| range.contains(addr))
        .map(|(_, key)| key.clone())
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
}
