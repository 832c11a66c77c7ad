//! Folding: reconstructing a fine-grained timeline from coarse samples.
//!
//! The BSC Folding technique combines the samples collected across many
//! executions of a repetitive region (e.g. the main solver iteration) into a
//! single synthetic instance with much finer effective resolution. The
//! paper's Figure 5 uses it to show, for SNAP's main iteration, which routine
//! executes, which addresses are referenced and the achieved MIPS over the
//! iteration — revealing that `outer_src_calc` drops in MIPS under the
//! framework because its register spills stay in DDR.
//!
//! Folding is stream-native: [`FoldAccumulator`] consumes events one at a
//! time in a single forward pass (O(events) total work, memory bounded by
//! the largest single instance), so it can fold a
//! [`TraceReader`](hmsim_trace::TraceReader) stream directly without ever
//! materialising the trace. It folds one rank's time-ordered stream, the
//! single representative process the pipeline profiles.
//! [`FoldedTimeline::fold`] and [`FoldedTimeline::fold_stream`] are thin
//! wrappers over it. Events are strictly filtered to each instance's
//! `[start, end)` window — routines executing before/after an instance
//! contribute nothing (they previously leaked into the edge bins).

use hmsim_common::{Address, HmResult, Nanos};
use hmsim_trace::{TraceEvent, TraceFile};
use std::borrow::Borrow;

/// One bin of the folded timeline.
#[derive(Clone, Debug, PartialEq)]
pub struct FoldedBin {
    /// Normalised position of the bin centre within the folded region (0..1).
    pub position: f64,
    /// Achieved MIPS in this bin (averaged over instances).
    pub mips: f64,
    /// LLC misses per second in this bin.
    pub miss_rate: f64,
    /// The routine most often active in this bin, if phase markers allow
    /// telling.
    pub dominant_routine: Option<String>,
    /// Sampled addresses falling into this bin (across all instances).
    pub sampled_addresses: Vec<Address>,
}

/// A folded timeline of one repetitive region.
#[derive(Clone, Debug, PartialEq)]
pub struct FoldedTimeline {
    /// Name of the folded region.
    pub region: String,
    /// Number of instances folded together.
    pub instances: usize,
    /// Mean duration of one instance.
    pub mean_duration: Nanos,
    /// The folded bins, in position order.
    pub bins: Vec<FoldedBin>,
}

/// The subset of an event the folding pass needs while an instance is open.
/// Buffering this instead of the full event keeps the per-instance window
/// small (no allocation-record names/sites).
enum Buffered {
    RoutineBegin {
        time: Nanos,
        name: String,
    },
    RoutineEnd {
        time: Nanos,
    },
    Sample {
        time: Nanos,
        address: Address,
        weight: u64,
    },
    Counters {
        time: Nanos,
        instructions: u64,
        llc_misses: u64,
    },
}

impl Buffered {
    fn time(&self) -> Nanos {
        match self {
            Buffered::RoutineBegin { time, .. }
            | Buffered::RoutineEnd { time }
            | Buffered::Sample { time, .. }
            | Buffered::Counters { time, .. } => *time,
        }
    }

    fn of(event: &TraceEvent) -> Option<Buffered> {
        match event {
            TraceEvent::PhaseBegin { time, name } => Some(Buffered::RoutineBegin {
                time: *time,
                name: name.clone(),
            }),
            TraceEvent::PhaseEnd { time, .. } => Some(Buffered::RoutineEnd { time: *time }),
            TraceEvent::Sample(s) => Some(Buffered::Sample {
                time: s.time,
                address: s.address,
                weight: s.weight,
            }),
            TraceEvent::Counters(c) => Some(Buffered::Counters {
                time: c.time,
                instructions: c.instructions,
                llc_misses: c.llc_misses,
            }),
            _ => None,
        }
    }
}

struct OpenInstance {
    start: Nanos,
    buffered: Vec<Buffered>,
}

/// Instance-tracking state: the currently open instance plus the run of
/// events seen while closed that share the latest timestamp. A
/// time-sorted stream can interleave events with the region markers at
/// identical timestamps (the profiler emits counter snapshots exactly at
/// iteration boundaries, before the next `PhaseBegin` in stream order); such
/// events belong to an instance that starts at that same timestamp, so they
/// are kept until the clock moves past them.
#[derive(Default)]
struct InstanceState {
    open: Option<OpenInstance>,
    pending: Vec<Buffered>,
    pending_time: Option<Nanos>,
}

/// Streaming accumulator behind [`FoldedTimeline::fold`].
///
/// Feed one rank's events in time order with [`push`](Self::push), then call
/// [`finish`](Self::finish) to obtain the folded timeline. Each pushed event
/// is examined exactly once on arrival (see
/// [`events_visited`](Self::events_visited)); events inside an open instance
/// are buffered until the instance's `PhaseEnd` fixes its duration, then
/// binned — so the whole fold is one forward pass over the trace instead of
/// one rescan per instance.
pub struct FoldAccumulator {
    region: String,
    nbins: usize,
    bins: Vec<FoldedBinAccum>,
    instances: usize,
    total_duration: Nanos,
    state: InstanceState,
    events_visited: u64,
}

impl FoldAccumulator {
    /// Start folding executions of phase `region` into `nbins` bins.
    pub fn new(region: impl Into<String>, nbins: usize) -> Self {
        let nbins = nbins.max(1);
        FoldAccumulator {
            region: region.into(),
            nbins,
            bins: (0..nbins).map(|_| FoldedBinAccum::default()).collect(),
            instances: 0,
            total_duration: Nanos::ZERO,
            state: InstanceState::default(),
            events_visited: 0,
        }
    }

    /// Consume the next event of the stream.
    pub fn push(&mut self, event: &TraceEvent) {
        self.events_visited += 1;
        let state = &mut self.state;
        let mut to_close: Option<(OpenInstance, Nanos)> = None;
        match event {
            TraceEvent::PhaseBegin { time, name } if *name == self.region => {
                // Seed the new instance with the events that share its start
                // timestamp: they fall inside `[start, end)` even though they
                // preceded the marker in stream order.
                let buffered = if let Some(prev) = state.open.take() {
                    let mut b = prev.buffered;
                    b.retain(|e| e.time() == *time);
                    b
                } else if state.pending_time == Some(*time) {
                    std::mem::take(&mut state.pending)
                } else {
                    Vec::new()
                };
                state.pending.clear();
                state.pending_time = None;
                state.open = Some(OpenInstance {
                    start: *time,
                    buffered,
                });
            }
            TraceEvent::PhaseEnd { time, name } if *name == self.region => {
                if let Some(mut instance) = state.open.take() {
                    // Events stamped exactly at the end fall outside this
                    // instance's `[start, end)` but inside a follow-on
                    // instance beginning at the same timestamp — carry them
                    // over (the buffer is time-ordered, so they form its
                    // tail).
                    let split = instance.buffered.partition_point(|b| b.time() < *time);
                    state.pending = instance.buffered.split_off(split);
                    state.pending_time = Some(*time);
                    if *time > instance.start {
                        to_close = Some((instance, *time));
                    }
                }
            }
            other => {
                if let Some(buffered) = Buffered::of(other) {
                    match state.open.as_mut() {
                        Some(instance) => instance.buffered.push(buffered),
                        None => {
                            // Keep only the run of events at the newest
                            // timestamp — candidates for an instance opening
                            // at exactly that time.
                            if state.pending_time != Some(buffered.time()) {
                                state.pending.clear();
                                state.pending_time = Some(buffered.time());
                            }
                            state.pending.push(buffered);
                        }
                    }
                }
            }
        }
        if let Some((instance, end)) = to_close {
            self.close_instance(instance, end);
        }
    }

    /// Number of events pushed so far. A fold of an n-event trace visits
    /// exactly n events — the regression guard against the old
    /// one-rescan-per-instance behaviour.
    pub fn events_visited(&self) -> u64 {
        self.events_visited
    }

    /// Bin the buffered events of a completed instance `[start, end)`.
    fn close_instance(&mut self, instance: OpenInstance, end: Nanos) {
        let start = instance.start;
        let duration = end - start;
        self.instances += 1;
        self.total_duration += duration;
        let nbins = self.nbins;
        let in_window = |t: Nanos| t >= start && t < end;
        let locate = |t: Nanos| -> Option<usize> {
            if !in_window(t) {
                return None;
            }
            let frac = (t - start).nanos() / duration.nanos();
            Some(((frac * nbins as f64) as usize).min(nbins - 1))
        };

        // Routine tracking within this instance: innermost nested phase. The
        // stack starts empty at the instance boundary and every span is
        // confined to [start, end) by construction.
        let mut routine_stack: Vec<&str> = Vec::new();
        let mut last_routine_change = start;
        for buffered in &instance.buffered {
            match buffered {
                Buffered::RoutineBegin { time, name } => {
                    if !in_window(*time) {
                        continue;
                    }
                    if let Some(routine) = routine_stack.last() {
                        if let Some(range) =
                            span_bins(last_routine_change, *time, start, duration, nbins)
                        {
                            for b in range {
                                self.bins[b].routine_time(routine, 1.0);
                            }
                        }
                    }
                    routine_stack.push(name.as_str());
                    last_routine_change = *time;
                }
                Buffered::RoutineEnd { time } => {
                    if !in_window(*time) {
                        continue;
                    }
                    if let Some(routine) = routine_stack.last() {
                        if let Some(range) =
                            span_bins(last_routine_change, *time, start, duration, nbins)
                        {
                            for b in range {
                                self.bins[b].routine_time(routine, 1.0);
                            }
                        }
                    }
                    routine_stack.pop();
                    last_routine_change = *time;
                }
                Buffered::Sample {
                    time,
                    address,
                    weight,
                } => {
                    if let Some(b) = locate(*time) {
                        self.bins[b].samples.push(*address);
                        self.bins[b].misses += *weight as f64;
                    }
                }
                Buffered::Counters {
                    time,
                    instructions,
                    llc_misses,
                } => {
                    if let Some(b) = locate(*time) {
                        self.bins[b].instructions += *instructions as f64;
                        self.bins[b].counter_misses += *llc_misses as f64;
                    }
                }
            }
        }
    }

    /// Finalise the folded timeline.
    pub fn finish(self) -> FoldedTimeline {
        let nbins = self.nbins;
        let instances = self.instances;
        let mean_duration = if instances > 0 {
            self.total_duration / instances as f64
        } else {
            Nanos::ZERO
        };
        let bin_time = mean_duration / nbins as f64;

        let bins = self
            .bins
            .into_iter()
            .enumerate()
            .map(|(i, acc)| {
                let seconds = (bin_time.secs() * instances as f64).max(1e-12);
                FoldedBin {
                    position: (i as f64 + 0.5) / nbins as f64,
                    mips: acc.instructions / seconds / 1e6,
                    miss_rate: (acc.misses.max(acc.counter_misses)) / seconds,
                    dominant_routine: acc.dominant_routine(),
                    sampled_addresses: acc.samples,
                }
            })
            .collect();

        FoldedTimeline {
            region: self.region,
            instances,
            mean_duration,
            bins,
        }
    }
}

impl FoldedTimeline {
    /// Fold every execution of phase `region` found in `trace` into `nbins`
    /// bins. Single forward pass over the events.
    pub fn fold(trace: &TraceFile, region: &str, nbins: usize) -> FoldedTimeline {
        Self::fold_stream(trace.events(), region, nbins)
    }

    /// Fold an arbitrary infallible event stream without materialising it.
    /// For a fallible source such as a
    /// [`TraceReader`](hmsim_trace::TraceReader), use
    /// [`fold_try_stream`](Self::fold_try_stream).
    pub fn fold_stream<E: Borrow<TraceEvent>>(
        events: impl IntoIterator<Item = E>,
        region: &str,
        nbins: usize,
    ) -> FoldedTimeline {
        let mut acc = FoldAccumulator::new(region, nbins);
        for e in events {
            acc.push(e.borrow());
        }
        acc.finish()
    }

    /// Fold a fallible event stream — e.g. a
    /// [`TraceReader`](hmsim_trace::TraceReader) streaming an on-disk binary
    /// trace — stopping at the first error.
    pub fn fold_try_stream(
        events: impl IntoIterator<Item = HmResult<TraceEvent>>,
        region: &str,
        nbins: usize,
    ) -> HmResult<FoldedTimeline> {
        let mut acc = FoldAccumulator::new(region, nbins);
        for e in events {
            acc.push(&e?);
        }
        Ok(acc.finish())
    }

    /// The bin positions and MIPS values, ready for plotting (Figure 5,
    /// bottom panel).
    pub fn mips_series(&self) -> Vec<(f64, f64)> {
        self.bins.iter().map(|b| (b.position, b.mips)).collect()
    }

    /// Position of the bin with the lowest MIPS (ignoring empty bins).
    pub fn slowest_bin(&self) -> Option<&FoldedBin> {
        self.bins
            .iter()
            .filter(|b| b.mips > 0.0)
            .min_by(|a, b| a.mips.partial_cmp(&b.mips).expect("MIPS not NaN"))
    }
}

fn span_bins(
    from: Nanos,
    to: Nanos,
    start: Nanos,
    duration: Nanos,
    nbins: usize,
) -> Option<std::ops::RangeInclusive<usize>> {
    if to <= from || duration.nanos() <= 0.0 {
        return None;
    }
    let clamp = |t: Nanos| ((t - start).nanos() / duration.nanos()).clamp(0.0, 1.0);
    let a = (clamp(from) * nbins as f64) as usize;
    let b = ((clamp(to) * nbins as f64) as usize).min(nbins - 1);
    (a <= b).then_some(a..=b)
}

#[derive(Clone, Debug, Default)]
struct FoldedBinAccum {
    instructions: f64,
    misses: f64,
    counter_misses: f64,
    samples: Vec<Address>,
    routines: std::collections::HashMap<String, f64>,
}

impl FoldedBinAccum {
    fn routine_time(&mut self, routine: &str, weight: f64) {
        *self.routines.entry(routine.to_string()).or_insert(0.0) += weight;
    }

    /// The heaviest routine; equal weights go to the first name in
    /// lexicographic order, so the answer never depends on map order.
    fn dominant_routine(&self) -> Option<String> {
        self.routines
            .iter()
            .max_by(|a, b| {
                a.1.partial_cmp(b.1)
                    .expect("weights not NaN")
                    .then_with(|| b.0.cmp(a.0))
            })
            .map(|(name, _)| name.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmsim_common::ObjectId;
    use hmsim_trace::{CounterSnapshot, SampleRecord, TraceMetadata};

    /// Build a trace with 4 iterations; in each, the routine "slow_kernel"
    /// occupies the middle 40%–60% with far fewer instructions per unit time.
    fn repetitive_trace() -> TraceFile {
        let mut t = TraceFile::new(TraceMetadata::default());
        let iter_len = 100.0; // ms
        for i in 0..4 {
            let base = i as f64 * iter_len;
            t.push(TraceEvent::PhaseBegin {
                time: Nanos::from_millis(base),
                name: "iteration".to_string(),
            });
            t.push(TraceEvent::PhaseBegin {
                time: Nanos::from_millis(base + 40.0),
                name: "slow_kernel".to_string(),
            });
            t.push(TraceEvent::PhaseEnd {
                time: Nanos::from_millis(base + 60.0),
                name: "slow_kernel".to_string(),
            });
            // Counter snapshots every 10 ms: 10 per iteration. The middle two
            // (covering 40-60 ms) retire far fewer instructions.
            for s in 0..10 {
                let at = base + 10.0 * s as f64 + 5.0;
                let slow = (40.0..60.0).contains(&(10.0 * s as f64 + 5.0));
                t.push(TraceEvent::Counters(CounterSnapshot {
                    time: Nanos::from_millis(at),
                    instructions: if slow { 2_000_000 } else { 20_000_000 },
                    llc_misses: if slow { 50_000 } else { 5_000 },
                }));
                if slow {
                    t.push(TraceEvent::Sample(SampleRecord {
                        time: Nanos::from_millis(at),
                        address: Address(0x7ffd_0000_1000),
                        object: Some(ObjectId(9)),
                        weight: 1000,
                        latency_cycles: None,
                    }));
                }
            }
            t.push(TraceEvent::PhaseEnd {
                time: Nanos::from_millis(base + iter_len),
                name: "iteration".to_string(),
            });
        }
        t
    }

    #[test]
    fn equal_weight_routines_resolve_to_the_first_name() {
        let mut t = TraceFile::new(TraceMetadata::default());
        let at = Nanos::from_millis;
        let phase = |t: &mut TraceFile, name: &str, from: f64, to: f64| {
            t.push(TraceEvent::PhaseBegin {
                time: at(from),
                name: name.to_string(),
            });
            t.push(TraceEvent::PhaseEnd {
                time: at(to),
                name: name.to_string(),
            });
        };
        t.push(TraceEvent::PhaseBegin {
            time: at(0.0),
            name: "iteration".to_string(),
        });
        phase(&mut t, "zeta", 10.0, 40.0);
        phase(&mut t, "alpha", 50.0, 90.0);
        t.push(TraceEvent::PhaseEnd {
            time: at(100.0),
            name: "iteration".to_string(),
        });
        // Every fold builds fresh, differently seeded routine maps.
        for _ in 0..32 {
            let timeline = FoldedTimeline::fold(&t, "iteration", 1);
            assert_eq!(timeline.bins[0].dominant_routine.as_deref(), Some("alpha"));
        }
    }

    #[test]
    fn folding_finds_instances_and_duration() {
        let timeline = FoldedTimeline::fold(&repetitive_trace(), "iteration", 10);
        assert_eq!(timeline.instances, 4);
        assert!((timeline.mean_duration.millis() - 100.0).abs() < 1e-6);
        assert_eq!(timeline.bins.len(), 10);
    }

    #[test]
    fn mips_dip_appears_in_the_slow_region() {
        let timeline = FoldedTimeline::fold(&repetitive_trace(), "iteration", 10);
        let series = timeline.mips_series();
        // Bins around position 0.45-0.55 must be the slowest.
        let slowest = timeline.slowest_bin().unwrap();
        assert!(
            (0.4..0.6).contains(&slowest.position),
            "slowest bin at {}",
            slowest.position
        );
        // Fast bins achieve roughly 10x the slow bins' MIPS.
        let fast = series
            .iter()
            .filter(|(p, _)| *p < 0.3)
            .map(|(_, m)| *m)
            .fold(0.0f64, f64::max);
        assert!(
            fast > slowest.mips * 5.0,
            "fast {fast} slow {}",
            slowest.mips
        );
    }

    #[test]
    fn dominant_routine_and_samples_land_in_slow_bins() {
        let timeline = FoldedTimeline::fold(&repetitive_trace(), "iteration", 10);
        let mid = &timeline.bins[4];
        assert_eq!(mid.dominant_routine.as_deref(), Some("slow_kernel"));
        assert!(!mid.sampled_addresses.is_empty());
        let early = &timeline.bins[0];
        assert!(early.sampled_addresses.is_empty());
        assert!(mid.miss_rate > early.miss_rate);
        // The instance-window filter keeps slow_kernel spans from other
        // iterations out of the edge bins entirely.
        assert_eq!(early.dominant_routine, None);
        assert_eq!(timeline.bins[9].dominant_routine, None);
    }

    #[test]
    fn folding_unknown_region_is_empty() {
        let timeline = FoldedTimeline::fold(&repetitive_trace(), "nope", 5);
        assert_eq!(timeline.instances, 0);
        assert_eq!(timeline.mean_duration, Nanos::ZERO);
        assert!(timeline.slowest_bin().is_none());
    }

    /// Regression for the instance-window bug: with asymmetric iterations and
    /// a routine running entirely *between* them, the old implementation
    /// rescanned the whole trace per instance and clamped out-of-window
    /// routine spans into bin 0 / the last bin, so "ghost" became the
    /// dominant routine of the edge bins. Events must be filtered to
    /// `[start, end)`.
    #[test]
    fn routines_outside_the_instance_window_do_not_pollute_edge_bins() {
        let mut t = TraceFile::new(TraceMetadata::default());
        // A routine that runs entirely before the first instance...
        t.push(TraceEvent::PhaseBegin {
            time: Nanos::from_millis(0.0),
            name: "ghost".to_string(),
        });
        t.push(TraceEvent::PhaseEnd {
            time: Nanos::from_millis(50.0),
            name: "ghost".to_string(),
        });
        // ...a first, short iteration with a real routine in its middle...
        t.push(TraceEvent::PhaseBegin {
            time: Nanos::from_millis(100.0),
            name: "iteration".to_string(),
        });
        t.push(TraceEvent::PhaseBegin {
            time: Nanos::from_millis(120.0),
            name: "kernel".to_string(),
        });
        t.push(TraceEvent::PhaseEnd {
            time: Nanos::from_millis(140.0),
            name: "kernel".to_string(),
        });
        t.push(TraceEvent::PhaseEnd {
            time: Nanos::from_millis(150.0),
            name: "iteration".to_string(),
        });
        // ...another out-of-instance routine in the gap...
        t.push(TraceEvent::PhaseBegin {
            time: Nanos::from_millis(160.0),
            name: "ghost".to_string(),
        });
        t.push(TraceEvent::PhaseEnd {
            time: Nanos::from_millis(190.0),
            name: "ghost".to_string(),
        });
        // ...and a second, 4x longer iteration (asymmetric on purpose).
        t.push(TraceEvent::PhaseBegin {
            time: Nanos::from_millis(200.0),
            name: "iteration".to_string(),
        });
        t.push(TraceEvent::PhaseBegin {
            time: Nanos::from_millis(280.0),
            name: "kernel".to_string(),
        });
        t.push(TraceEvent::PhaseEnd {
            time: Nanos::from_millis(360.0),
            name: "kernel".to_string(),
        });
        t.push(TraceEvent::PhaseEnd {
            time: Nanos::from_millis(400.0),
            name: "iteration".to_string(),
        });

        let timeline = FoldedTimeline::fold(&t, "iteration", 5);
        assert_eq!(timeline.instances, 2);
        for bin in &timeline.bins {
            assert_ne!(
                bin.dominant_routine.as_deref(),
                Some("ghost"),
                "out-of-window routine leaked into bin at {}",
                bin.position
            );
        }
        // The real routine still dominates the middle: instance 1 has kernel
        // over [0.4, 0.8] of its window, instance 2 over [0.4, 0.8] too.
        assert_eq!(timeline.bins[2].dominant_routine.as_deref(), Some("kernel"));
        // And the edge bins saw no routine at all.
        assert_eq!(timeline.bins[0].dominant_routine, None);
    }

    /// The profiler stamps counter snapshots exactly at iteration
    /// boundaries, and stream order can place them before the `PhaseEnd` /
    /// `PhaseBegin` markers sharing that timestamp. Such an event belongs to
    /// the *next* instance's bin 0 (`t == start`), and the streaming fold
    /// must bin it there just like the old two-pass window filter did.
    #[test]
    fn boundary_timestamp_events_land_in_the_next_instances_first_bin() {
        let mut t = TraceFile::new(TraceMetadata::default());
        for i in 0..3 {
            let start = Nanos::from_millis(i as f64 * 100.0);
            let end = Nanos::from_millis((i + 1) as f64 * 100.0);
            t.push(TraceEvent::PhaseBegin {
                time: start,
                name: "iteration".to_string(),
            });
            // The boundary snapshot: stamped at `end`, pushed before the
            // markers (the order Profiler::record_interval emits them in).
            t.push(TraceEvent::Counters(CounterSnapshot {
                time: end,
                instructions: 8_000_000,
                llc_misses: 1_000,
            }));
            t.push(TraceEvent::PhaseEnd {
                time: end,
                name: "iteration".to_string(),
            });
        }
        let timeline = FoldedTimeline::fold(&t, "iteration", 10);
        assert_eq!(timeline.instances, 3);
        // Iterations 1 and 2 each start at the previous one's end timestamp
        // and inherit its boundary snapshot into bin 0.
        assert!(
            timeline.bins[0].mips > 0.0,
            "boundary snapshot lost: {:?}",
            timeline.mips_series()
        );
        assert!(timeline.bins[1..].iter().all(|b| b.mips == 0.0));
    }

    /// The fold is a single forward pass: an n-event trace is visited exactly
    /// n times, independent of how many instances it contains (the old code
    /// visited instances × n events).
    #[test]
    fn fold_visits_each_event_exactly_once() {
        let trace = repetitive_trace();
        let mut acc = FoldAccumulator::new("iteration", 10);
        for e in trace.events() {
            acc.push(e);
        }
        assert_eq!(acc.events_visited(), trace.len() as u64);
        let timeline = acc.finish();
        assert_eq!(timeline.instances, 4);
        assert_eq!(timeline, FoldedTimeline::fold(&trace, "iteration", 10));
    }

    #[test]
    fn fold_stream_matches_fold() {
        let trace = repetitive_trace();
        let streamed = FoldedTimeline::fold_stream(trace.events().iter().cloned(), "iteration", 10);
        assert_eq!(streamed, FoldedTimeline::fold(&trace, "iteration", 10));
    }
}
