//! The profiler itself: allocation hooks, PEBS wiring and event emission.
//!
//! The profiler writes to the [`EventSink`] it is built with
//! ([`Profiler::with_sink`]); there is no default sink, so a caller that
//! wants the trace passes a [`TraceFile`](hmsim_trace::TraceFile) whose
//! metadata it chose. It emits
//! events in time order as long as the caller records allocations, phases
//! and intervals as simulated time advances. One interval's samples go to
//! the sink in a single batch, object after object, each object's samples in
//! time order; putting them in time order is the sink's business. The trace
//! and the binary writer merge them as they store them, so a finished trace
//! is sorted without a final sort, while the framework's analysis stage
//! counts them in the order they come (see `hmsim_analysis::analyzer`).

use crate::config::{ProfilerConfig, MIN_ALLOC_SIZE};
use crate::overhead::OverheadModel;
use hmsim_common::{Address, DetRng, Nanos, ObjectId};
use hmsim_heap::{DataObject, ObjectKind};
use hmsim_pebs::{PebsEvent, PebsSampler, ProcessorFamily};
use hmsim_trace::{
    AllocationRecord, CounterSnapshot, EventSink, ObjectClass, SampleRecord, TraceEvent,
    TraceMetadata,
};

/// The Extrae-like profiler attached to one simulated process, emitting
/// into the sink `S`.
#[derive(Clone, Debug)]
pub struct Profiler<S> {
    config: ProfilerConfig,
    sink: S,
    sampler: PebsSampler,
    overhead_model: OverheadModel,
    /// Allocation/deallocation events actually instrumented.
    alloc_events: u64,
    /// Counter snapshots emitted.
    snapshots: u64,
    /// Instructions and misses accumulated since the last snapshot.
    pending_instructions: u64,
    pending_misses: u64,
    last_snapshot: Nanos,
    /// The latest timestamp emitted so far.
    last_time: Nanos,
    /// One interval's samples, object after object, reused across intervals.
    batch: Vec<SampleRecord>,
}

impl<S: EventSink> Profiler<S> {
    /// Attach a profiler for the process `metadata` names, emitting into
    /// `sink`. The application and rank seed the sampler, so every sink
    /// receives the same events.
    pub fn with_sink(metadata: &TraceMetadata, config: ProfilerConfig, sink: S) -> Self {
        let rng = DetRng::new(config.seed).derive(&format!(
            "profiler/{}/{}",
            metadata.application, metadata.rank
        ));
        let sampler = PebsSampler::new(
            ProcessorFamily::KnightsLanding,
            PebsEvent::LlcLoadMiss,
            config.sampling_period,
            rng.derive("pebs"),
        );
        Profiler {
            config,
            sink,
            sampler,
            overhead_model: OverheadModel::default(),
            alloc_events: 0,
            snapshots: 0,
            pending_instructions: 0,
            pending_misses: 0,
            last_snapshot: Nanos::ZERO,
            last_time: Nanos::ZERO,
            batch: Vec::new(),
        }
    }

    /// The profiler configuration.
    pub fn config(&self) -> &ProfilerConfig {
        &self.config
    }

    fn emit(&mut self, event: TraceEvent) {
        self.last_time = self.last_time.max(event.time());
        self.sink.event(&event);
    }

    /// Record an allocation (or a static/stack definition). Dynamic
    /// allocations below the minimum size are skipped, exactly like Extrae's
    /// size filter. Returns whether the event was recorded.
    pub fn record_alloc(&mut self, object: &DataObject, time: Nanos) -> bool {
        if object.kind == ObjectKind::Dynamic && object.size() < MIN_ALLOC_SIZE {
            return false;
        }
        let class = match object.kind {
            ObjectKind::Static => ObjectClass::Static,
            ObjectKind::Dynamic => ObjectClass::Dynamic,
            ObjectKind::Stack => ObjectClass::Stack,
        };
        self.emit(TraceEvent::Alloc(AllocationRecord {
            time,
            object: object.id,
            class,
            name: object.name.clone(),
            site: object.site.clone(),
            address: object.range.start,
            size: object.size(),
        }));
        self.alloc_events += 1;
        true
    }

    /// Record a deallocation.
    pub fn record_free(&mut self, object: ObjectId, address: Address, time: Nanos) {
        self.emit(TraceEvent::Free {
            time,
            object,
            address,
        });
        self.alloc_events += 1;
    }

    /// Record entry into a named phase.
    pub fn phase_begin(&mut self, name: impl Into<String>, time: Nanos) {
        self.emit(TraceEvent::PhaseBegin {
            time,
            name: name.into(),
        });
    }

    /// Record exit from a named phase.
    pub fn phase_end(&mut self, name: impl Into<String>, time: Nanos) {
        self.emit(TraceEvent::PhaseEnd {
            time,
            name: name.into(),
        });
    }

    /// Record the memory behaviour of one execution interval: per-object LLC
    /// misses over `[start, start + duration)` plus the instructions retired.
    /// PEBS samples are generated according to the configured period, with
    /// sampled addresses drawn uniformly from each object's address range,
    /// and counter snapshots are emitted at the configured cadence.
    pub fn record_interval(
        &mut self,
        start: Nanos,
        duration: Nanos,
        instructions: u64,
        object_misses: &[(&DataObject, u64)],
    ) {
        for (object, misses) in object_misses {
            if *misses == 0 {
                continue;
            }
            let (range, id) = (object.range, object.id);
            let (batch, last_time) = (&mut self.batch, &mut self.last_time);
            self.sampler.observe_bulk_with(
                start,
                duration,
                *misses,
                |rng| {
                    let span = range.len.bytes().max(1);
                    range.start.offset(rng.uniform_range(0, span))
                },
                |s| {
                    *last_time = last_time.max(s.time);
                    batch.push(SampleRecord {
                        time: s.time,
                        address: s.address,
                        object: Some(id),
                        weight: s.weight,
                        latency_cycles: None,
                    })
                },
            );
            self.pending_misses += *misses;
        }
        if !self.batch.is_empty() {
            self.sink.samples(&self.batch);
            self.batch.clear();
        }
        self.pending_instructions += instructions;

        // Emit counter snapshots covering the interval.
        let end = start + duration;
        let interval = self.config.counter_snapshot_interval;
        if interval.nanos() > 0.0 && end - self.last_snapshot >= interval {
            self.emit(TraceEvent::Counters(CounterSnapshot {
                time: end,
                instructions: self.pending_instructions,
                llc_misses: self.pending_misses,
            }));
            self.snapshots += 1;
            self.pending_instructions = 0;
            self.pending_misses = 0;
            self.last_snapshot = end;
        }
    }

    /// Number of samples emitted so far.
    pub fn samples(&self) -> u64 {
        self.sampler.total_samples()
    }

    /// Number of instrumented allocation/deallocation events so far.
    pub fn alloc_events(&self) -> u64 {
        self.alloc_events
    }

    /// The modelled monitoring overhead relative to an uninstrumented run of
    /// `base_time`.
    pub fn overhead_fraction(&self, base_time: Nanos) -> f64 {
        self.overhead_model.overhead_fraction(
            self.alloc_events,
            self.sampler.total_samples(),
            self.snapshots,
            base_time,
        )
    }

    /// Finish profiling and hand over the sink.
    pub fn finish(mut self) -> S {
        // Flush a final counter snapshot if anything is pending.
        if self.pending_instructions > 0 || self.pending_misses > 0 {
            self.emit(TraceEvent::Counters(CounterSnapshot {
                time: self.last_time,
                instructions: self.pending_instructions,
                llc_misses: self.pending_misses,
            }));
        }
        self.sink
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmsim_apps::{all_apps, AllocTiming, AppSpec, KernelSpec, ObjectSpec};
    use hmsim_callstack::SiteKey;
    use hmsim_common::{AddressRange, ByteSize, TierId};
    use hmsim_trace::TraceFile;

    fn object(id: u32, start: u64, size: ByteSize, kind: ObjectKind) -> DataObject {
        DataObject {
            id: ObjectId(id),
            name: format!("obj{id}"),
            kind,
            site: Some(SiteKey::from_text(format!("app!site{id}+0x10"))),
            range: AddressRange::new(Address(start), size),
            tier: TierId::DDR,
            allocated_at: Nanos::ZERO,
        }
    }

    /// A profiler recording a trace whose header names `application` and
    /// carries `config`'s period.
    fn recording(application: &str, config: ProfilerConfig) -> Profiler<TraceFile> {
        let metadata = TraceMetadata {
            application: application.to_string(),
            sampling_period: config.sampling_period,
            min_alloc_size: MIN_ALLOC_SIZE.bytes(),
            ..Default::default()
        };
        Profiler::with_sink(&metadata, config, TraceFile::new(metadata.clone()))
    }

    fn profiler(period: u64) -> Profiler<TraceFile> {
        recording("unit", ProfilerConfig::dense(period))
    }

    #[test]
    fn size_filter_skips_small_dynamic_allocations() {
        let mut p = profiler(100);
        let small = object(0, 0x1000, ByteSize::from_bytes(512), ObjectKind::Dynamic);
        let big = object(1, 0x2000, ByteSize::from_mib(1), ObjectKind::Dynamic);
        let small_static = object(2, 0x3000, ByteSize::from_bytes(512), ObjectKind::Static);
        assert!(!p.record_alloc(&small, Nanos::ZERO));
        assert!(p.record_alloc(&big, Nanos::ZERO));
        assert!(
            p.record_alloc(&small_static, Nanos::ZERO),
            "statics bypass the filter"
        );
        assert_eq!(p.alloc_events(), 2);
    }

    #[test]
    fn samples_are_attributed_to_objects_and_land_in_their_ranges() {
        let mut p = profiler(1000);
        let a = object(0, 0x10_0000, ByteSize::from_mib(4), ObjectKind::Dynamic);
        let b = object(1, 0x90_0000, ByteSize::from_mib(4), ObjectKind::Dynamic);
        p.record_alloc(&a, Nanos::ZERO);
        p.record_alloc(&b, Nanos::ZERO);
        p.record_interval(
            Nanos::ZERO,
            Nanos::from_millis(100.0),
            50_000_000,
            &[(&a, 80_000), (&b, 20_000)],
        );
        let trace = p.finish();
        let mut per_object = std::collections::HashMap::new();
        for e in trace.events() {
            if let TraceEvent::Sample(s) = e {
                *per_object.entry(s.object).or_insert(0u64) += 1;
                let obj = if s.object == Some(ObjectId(0)) {
                    &a
                } else {
                    &b
                };
                assert!(obj.range.contains(s.address), "sample outside object range");
            }
        }
        let a_samples = per_object.get(&Some(ObjectId(0))).copied().unwrap_or(0);
        let b_samples = per_object.get(&Some(ObjectId(1))).copied().unwrap_or(0);
        // 80k misses at period 1000 ≈ 80 samples; 20k ≈ 20. Allow slack for
        // the randomised counter offset.
        assert!((70..=90).contains(&a_samples), "a got {a_samples}");
        assert!((10..=30).contains(&b_samples), "b got {b_samples}");
        assert!(a_samples > 2 * b_samples);
    }

    #[test]
    fn sampling_rate_matches_period() {
        let mut p = profiler(37_589);
        let a = object(0, 0x10_0000, ByteSize::from_mib(64), ObjectKind::Dynamic);
        p.record_alloc(&a, Nanos::ZERO);
        // 37,589 * 100 misses -> ~100 samples.
        p.record_interval(
            Nanos::ZERO,
            Nanos::from_secs(1.0),
            1_000_000_000,
            &[(&a, 37_589 * 100)],
        );
        let n = p.samples();
        assert!((99..=101).contains(&n), "got {n}");
    }

    #[test]
    fn counter_snapshots_and_phases_are_recorded() {
        let mut p = profiler(1000);
        let a = object(0, 0x10_0000, ByteSize::from_mib(1), ObjectKind::Dynamic);
        p.record_alloc(&a, Nanos::ZERO);
        p.phase_begin("iteration", Nanos::ZERO);
        for i in 0..10 {
            let start = Nanos::from_millis(i as f64 * 20.0);
            p.record_interval(start, Nanos::from_millis(20.0), 1_000_000, &[(&a, 5_000)]);
        }
        p.phase_end("iteration", Nanos::from_millis(200.0));
        let trace = p.finish();
        let snapshots = trace
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::Counters(_)))
            .count();
        assert!(
            snapshots >= 3,
            "expected several snapshots, got {snapshots}"
        );
        assert!(trace
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::PhaseBegin { .. })));
        // Events are time sorted after finish().
        assert!(trace
            .events()
            .windows(2)
            .all(|w| w[0].time() <= w[1].time()));
    }

    #[test]
    fn overhead_grows_with_allocation_rate() {
        let mut light = profiler(37_589);
        let mut heavy = profiler(37_589);
        let a = object(0, 0x10_0000, ByteSize::from_mib(1), ObjectKind::Dynamic);
        light.record_alloc(&a, Nanos::ZERO);
        for _ in 0..5_000 {
            heavy.record_alloc(&a, Nanos::ZERO);
        }
        let base = Nanos::from_secs(100.0);
        assert!(heavy.overhead_fraction(base) > light.overhead_fraction(base));
        assert!(light.overhead_fraction(base) < 0.01);
    }

    #[test]
    fn free_events_are_recorded() {
        let mut p = profiler(100);
        p.record_free(ObjectId(3), Address(0x1234), Nanos::from_millis(1.0));
        let trace = p.finish();
        assert_eq!(trace.events().len(), 1);
        assert!(matches!(trace.events()[0], TraceEvent::Free { .. }));
    }

    /// The emission that `record_interval` replaced, kept as the oracle:
    /// each object's samples emitted as single events one object after
    /// another, leaving the interval out of time order for a stable sort of
    /// the whole trace after `finish` (`sorted_finish`).
    fn oracle_record_interval(
        p: &mut Profiler<TraceFile>,
        start: Nanos,
        duration: Nanos,
        instructions: u64,
        object_misses: &[(&DataObject, u64)],
    ) {
        for (object, misses) in object_misses {
            if *misses == 0 {
                continue;
            }
            let range = object.range;
            let id = object.id;
            let samples = p.sampler.observe_bulk(start, duration, *misses, |rng| {
                let span = range.len.bytes().max(1);
                range.start.offset(rng.uniform_range(0, span))
            });
            for s in samples {
                p.emit(TraceEvent::Sample(SampleRecord {
                    time: s.time,
                    address: s.address,
                    object: Some(id),
                    weight: s.weight,
                    latency_cycles: None,
                }));
            }
            p.pending_misses += *misses;
        }
        p.pending_instructions += instructions;
        let end = start + duration;
        let interval = p.config.counter_snapshot_interval;
        if interval.nanos() > 0.0 && end - p.last_snapshot >= interval {
            p.emit(TraceEvent::Counters(CounterSnapshot {
                time: end,
                instructions: p.pending_instructions,
                llc_misses: p.pending_misses,
            }));
            p.snapshots += 1;
            p.pending_instructions = 0;
            p.pending_misses = 0;
            p.last_snapshot = end;
        }
    }

    /// The oracle's trace: finished, then stably sorted by time.
    fn sorted_finish(oracle: Profiler<TraceFile>) -> TraceFile {
        let mut trace = oracle.finish();
        trace.sort_by_time();
        trace
    }

    type RecordInterval = fn(&mut Profiler<TraceFile>, Nanos, Nanos, u64, &[(&DataObject, u64)]);

    /// Profile `iterations` of `spec` in the order the analytic run records
    /// them: definitions and init allocations, then per iteration the churn
    /// allocations, every kernel as one interval over its objects' share of
    /// the monitored thread's misses, and the churn frees. A kernel lasts in
    /// proportion to its instructions; the emission only needs time to
    /// advance. Returns the profiler before `finish`.
    fn profile_app(
        spec: &AppSpec,
        iterations: u32,
        config: ProfilerConfig,
        record_interval: RecordInterval,
    ) -> Profiler<TraceFile> {
        let mut p = recording(spec.name, config);
        let mut next_id = 0u32;
        let mut allocate = |o: &ObjectSpec, size: ByteSize| {
            next_id += 1;
            DataObject {
                id: ObjectId(next_id),
                name: o.name.to_string(),
                kind: o.kind,
                site: (!o.site.is_empty()).then(|| SiteKey::from_text(o.site.join("|"))),
                range: AddressRange::new(Address(u64::from(next_id) << 36), size),
                tier: TierId::DDR,
                allocated_at: Nanos::ZERO,
            }
        };
        let mut now = Nanos::ZERO;
        let mut live: Vec<Option<DataObject>> = spec
            .objects
            .iter()
            .map(|o| {
                (o.timing == AllocTiming::Init || o.kind != ObjectKind::Dynamic).then(|| {
                    let obj = allocate(o, o.size);
                    // Stack storage is defined without an allocation event.
                    if o.kind != ObjectKind::Stack {
                        p.record_alloc(&obj, now);
                    }
                    obj
                })
            })
            .collect();
        now += spec.init_time;
        let whole = [KernelSpec {
            name: "iteration",
            instruction_share: 1.0,
            miss_share: 1.0,
            object_weights: &[],
        }];
        let kernels = if spec.kernels.is_empty() {
            &whole[..]
        } else {
            &spec.kernels[..]
        };
        for _ in 0..iterations {
            p.phase_begin("iteration", now);
            let mut churn = Vec::new();
            for (slot, o) in spec.objects.iter().enumerate() {
                if let AllocTiming::PerIteration {
                    allocs_per_iteration,
                } = o.timing
                {
                    for i in 0..allocs_per_iteration {
                        let obj = allocate(o, if i == 0 { o.size } else { o.min_size });
                        p.record_alloc(&obj, now);
                        churn.push((obj.id, obj.range.start));
                        if i == 0 {
                            live[slot] = Some(obj);
                        }
                    }
                }
            }
            for k in kernels {
                let misses = (spec.misses_per_iteration as f64 * k.miss_share
                    / f64::from(spec.threads_per_rank.max(1))) as u64;
                let weights: Vec<(usize, f64)> = if k.object_weights.is_empty() {
                    spec.objects
                        .iter()
                        .map(|o| o.miss_share)
                        .enumerate()
                        .collect()
                } else {
                    k.object_weights
                        .iter()
                        .filter_map(|&(n, w)| {
                            Some((spec.objects.iter().position(|o| o.name == n)?, w))
                        })
                        .collect()
                };
                let total: f64 = weights.iter().map(|(_, w)| w).sum();
                let refs: Vec<(&DataObject, u64)> = weights
                    .iter()
                    .filter_map(|&(slot, w)| {
                        let share = (misses as f64 * w / total.max(1e-12)) as u64;
                        Some((live[slot].as_ref()?, share))
                    })
                    .collect();
                let instructions =
                    (spec.instructions_per_iteration as f64 * k.instruction_share) as u64;
                let duration = Nanos(instructions as f64 * 0.3);
                p.phase_begin(k.name, now);
                record_interval(&mut p, now, duration, instructions, &refs);
                p.phase_end(k.name, now + duration);
                now += duration;
            }
            for (id, address) in churn {
                p.record_free(id, address, now);
            }
            p.phase_end("iteration", now);
        }
        p
    }

    #[test]
    fn time_ordered_emission_matches_the_sorted_per_object_oracle_on_every_app() {
        let apps = all_apps();
        assert_eq!(apps.len(), 8);
        for spec in &apps {
            for config in [ProfilerConfig::default(), ProfilerConfig::dense(2_000)] {
                let p = profile_app(spec, 10, config.clone(), Profiler::record_interval);
                assert!(
                    p.sink
                        .events()
                        .windows(2)
                        .all(|w| w[0].time() <= w[1].time()),
                    "{}: emission out of time order before finish",
                    spec.name
                );
                let oracle = profile_app(spec, 10, config, oracle_record_interval);
                assert_eq!(p.samples(), oracle.samples());
                assert!(p.samples() > 0, "{}: no samples", spec.name);
                let (trace, expected) = (p.finish(), sorted_finish(oracle));
                assert_eq!(trace.events(), expected.events(), "{}", spec.name);
                assert_eq!(trace.metadata, expected.metadata);
            }
        }
    }

    #[test]
    fn samples_sharing_an_instant_keep_object_order() {
        // An interval a few ulps long stamps hundreds of samples on a handful
        // of instants, so the merge must break every tie by the order the
        // objects were passed in, as the stable sort of the whole trace did.
        let a = object(0, 0x10_0000, ByteSize::from_mib(1), ObjectKind::Dynamic);
        let b = object(1, 0x90_0000, ByteSize::from_mib(1), ObjectKind::Dynamic);
        let interval: &[(&DataObject, u64)] = &[(&b, 300_000), (&a, 200_000)];
        let start = Nanos::from_millis(1.0);
        let duration = Nanos(4.0 * f64::EPSILON * start.nanos());
        let mut p = profiler(1000);
        p.record_interval(start, duration, 10, interval);
        let mut oracle = profiler(1000);
        oracle_record_interval(&mut oracle, start, duration, 10, interval);
        let mut instants: Vec<u64> = p
            .sink
            .events()
            .iter()
            .map(|e| e.time().nanos().to_bits())
            .collect();
        instants.dedup();
        assert!(instants.len() < 10, "{} instants", instants.len());
        assert_eq!(p.finish().events(), sorted_finish(oracle).events());
    }
}
