//! The indexed-group analyzer against the string-keyed builder it replaced.
//!
//! `ObjectStatsBuilder` keeps its groups in a vector and resolves a sample
//! through the live object's group index. The oracle below is the earlier
//! builder: every sample clones its group's key (a call-stack string or a
//! name) and looks the group up in a `HashMap` by that key. Both must give
//! equal reports on the profiled trace of every registered application and
//! on a trace that exercises the address fallback, frees and re-allocation.

use auto_hbwmalloc::PlacementApproach;
use hmem_core::{AppRun, RunConfig};
use hmsim_analysis::{analyze_trace, ObjectReport, ObjectStats, ReportedKind};
use hmsim_apps::all_apps;
use hmsim_callstack::SiteKey;
use hmsim_common::{Address, AddressRange, ByteSize, Nanos, ObjectId};
use hmsim_profiler::ProfilerConfig;
use hmsim_trace::{
    AllocationRecord, ObjectClass, SampleRecord, TraceEvent, TraceFile, TraceMetadata,
};
use std::collections::HashMap;

mod oracle {
    use super::*;

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

    /// The string-keyed single pass, event for event.
    pub fn analyze(trace: &TraceFile) -> ObjectReport {
        let mut groups: HashMap<GroupKey, Group> = HashMap::new();
        let mut by_id: HashMap<ObjectId, (GroupKey, AddressRange)> = HashMap::new();
        let mut live: Vec<(AddressRange, GroupKey)> = Vec::new();
        let (mut total, mut unattributed) = (0, 0);
        for event in trace.events() {
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
                    let group = groups.entry(key.clone()).or_insert_with(|| Group {
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
                    by_id.insert(a.object, (key.clone(), range));
                    live.push((range, key));
                }
                TraceEvent::Free { object, .. } => {
                    if let Some((_, freed)) = by_id.remove(object) {
                        live.retain(|(range, _)| *range != freed);
                    }
                }
                TraceEvent::Sample(s) => {
                    total += s.weight;
                    let key = match s.object.and_then(|id| by_id.get(&id)) {
                        Some((key, _)) => Some(key.clone()),
                        None => live
                            .iter()
                            .find(|(range, _)| range.contains(s.address))
                            .map(|(_, key)| key.clone()),
                    };
                    match key.and_then(|key| groups.get_mut(&key)) {
                        Some(group) => {
                            group.llc_misses += s.weight;
                            group.samples += 1;
                        }
                        None => unattributed += s.weight,
                    }
                }
                _ => {}
            }
        }
        let mut report = ObjectReport {
            application: trace.metadata.application.clone(),
            objects: groups
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
            total_misses: total,
            unattributed_misses: unattributed,
        };
        report.sort_by_misses();
        report
    }
}

/// The oracle reads its groups out of a `HashMap`, so its order is only
/// defined where no two objects tie on both misses and name.
fn assert_no_ties(report: &ObjectReport) {
    for w in report.objects.windows(2) {
        assert!(
            (w[0].llc_misses, &w[0].name) != (w[1].llc_misses, &w[1].name),
            "{}: `{}` ties, so the oracle's order is undefined",
            report.application,
            w[0].name
        );
    }
}

#[test]
fn indexed_groups_match_the_string_keyed_oracle_on_every_app() {
    let apps = all_apps();
    assert_eq!(apps.len(), 8);
    for spec in &apps {
        let cfg = RunConfig::flat(ByteSize::ZERO).with_profiling(ProfilerConfig::default());
        let router = PlacementApproach::DdrOnly.router().unwrap();
        let trace = AppRun::new(spec, cfg)
            .execute(router)
            .unwrap()
            .trace
            .expect("a profiled run yields a trace");
        let expected = oracle::analyze(&trace);
        assert_no_ties(&expected);
        assert!(expected.total_misses > 0, "{}: no samples", spec.name);
        assert_eq!(analyze_trace(&trace), expected, "{}", spec.name);
    }
}

#[test]
fn address_fallback_free_and_reallocation_match_the_oracle() {
    let events = [
        alloc(0, "grid", Some("app!alloc_grid+0x10"), 0x100_0000, 4),
        alloc(1, "coef", None, 0x900_0000, 2),
        sample(0x100_0040, None, 300),
        sample(0x900_0040, None, 200),
        sample(0x100_0080, Some(0), 100),
        TraceEvent::Free {
            time: Nanos::ZERO,
            object: ObjectId(0),
            address: Address(0x100_0000),
        },
        // Freed memory: the address fallback finds nothing.
        sample(0x100_00c0, None, 50),
        // The same site allocates again, larger and elsewhere.
        alloc(2, "grid", Some("app!alloc_grid+0x10"), 0x1000_0000, 8),
        sample(0x1000_0040, None, 400),
        sample(0x1000_0080, Some(2), 400),
        sample(0xdead_0000, None, 25),
    ];
    let mut t = TraceFile::new(TraceMetadata::default());
    for (i, mut event) in events.into_iter().enumerate() {
        let time = Nanos::from_millis(i as f64);
        match &mut event {
            TraceEvent::Alloc(a) => a.time = time,
            TraceEvent::Sample(s) => s.time = time,
            TraceEvent::Free { time: t, .. } => *t = time,
            _ => {}
        }
        t.push(event);
    }
    let expected = oracle::analyze(&t);
    assert_no_ties(&expected);
    let report = analyze_trace(&t);
    assert_eq!(report, expected);
    let grid = report.by_name("grid").unwrap();
    assert_eq!((grid.llc_misses, grid.allocation_count), (1200, 2));
    assert_eq!(grid.max_size, ByteSize::from_mib(8));
    assert_eq!(report.unattributed_misses, 75);
}

/// An allocation: dynamic with a call-stack site, or a named static.
fn alloc(id: u32, name: &str, site: Option<&str>, start: u64, mib: u64) -> TraceEvent {
    TraceEvent::Alloc(AllocationRecord {
        time: Nanos::ZERO,
        object: ObjectId(id),
        class: if site.is_some() {
            ObjectClass::Dynamic
        } else {
            ObjectClass::Static
        },
        name: name.to_string(),
        site: site.map(SiteKey::from_text),
        address: Address(start),
        size: ByteSize::from_mib(mib),
    })
}

fn sample(address: u64, object: Option<u32>, weight: u64) -> TraceEvent {
    TraceEvent::Sample(SampleRecord {
        time: Nanos::ZERO,
        address: Address(address),
        object: object.map(ObjectId),
        weight,
        latency_cycles: None,
    })
}
