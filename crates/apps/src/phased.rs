//! Phase-shifting trace workloads for the online migration runtime.
//!
//! The paper's pipeline decides placement *once*, offline; these workloads
//! are built so that no single static placement is optimal for the whole
//! run — the property the epoch-driven runtime (`hmsim-runtime`) exploits.
//! Each workload declares named data objects and a schedule: segments (one
//! object swept, or three interleaved as a triad) repeated for some rounds.
//! Over the heap's ranges for the objects it yields a [`PhasedStream`]: the
//! flat `Iterator<Item = MemoryAccess>` `run_stream` takes, in O(objects) state.
//!
//! Four reference workloads are registered:
//!
//! * **rotating-triad** — a STREAM Triad whose three hot arrays rotate
//!   between groups every phase (the hot working set *moves*);
//! * **sweeping-stencil** — an out-of-core plane-by-plane stencil whose hot
//!   plane sweeps across a working set far larger than fast memory;
//! * **steady-triad** — a stationary Triad (the hot set never moves): the
//!   parity control for the online-vs-static comparison;
//! * **uniform-scan** — a uniform sweep over everything with no hot subset:
//!   the thrash control (a migrating runtime should do *nothing* here).

use hmsim_common::{Address, AddressRange, ByteSize};
use hmsim_machine::MemoryAccess;
use std::sync::Arc;

/// One registered phased workload: an object inventory plus a schedule,
/// `rounds` repetitions of a list of segments over object indices.
#[derive(Clone, Debug)]
pub struct PhasedWorkload {
    /// Workload name (stable identifier used by benches and reports).
    pub name: &'static str,
    /// Whether the hot working set is stationary over the whole run. The
    /// online runtime must stay within a few percent of the best static
    /// placement on stationary workloads; it should win on the others.
    pub stationary: bool,
    /// Per-array size (all objects of a workload share it).
    pub array_size: ByteSize,
    /// Arrays in the hot set (see [`hot_set_size`](Self::hot_set_size)).
    hot_arrays: u64,
    /// The name of object `i`; every object appears in `segments`.
    object_name: fn(usize) -> String,
    rounds: u32,
    /// Shared with clones and streams, so ranks replicating one workload
    /// hold one copy.
    segments: Arc<[Segment]>,
}

type Builder = fn(ByteSize) -> PhasedWorkload;

/// Element size every workload touches (double precision).
const ELEMENT: u16 = 8;

/// One step of a schedule: `passes` sweeps over the elements of one object,
/// or of three objects interleaved as a triad.
#[derive(Clone, Copy, Debug)]
struct Segment {
    /// The objects in access order: a sweep's object, or a triad's b, c and
    /// a (load b, load c, store a). Only the first `width` are read.
    lanes: [u32; 3],
    width: u32,
    passes: u32,
}

impl Segment {
    fn sweep(object: u32, passes: u32) -> Self {
        Segment {
            lanes: [object; 3],
            width: 1,
            passes,
        }
    }

    /// The triad `a = b + c` over objects `a`, `a + 1` (b) and `a + 2` (c).
    fn triad(a: u32, passes: u32) -> Self {
        Segment {
            lanes: [a + 1, a + 2, a],
            width: 3,
            passes,
        }
    }
}

/// The access stream of one [`PhasedWorkload`]: its schedule walked by a
/// (round, segment, pass, element, lane) cursor over the heap's addresses.
/// Its state is O(objects), whatever the number of passes.
#[derive(Clone, Debug, Default)]
pub struct PhasedStream {
    schedule: Arc<[Segment]>,
    /// Each object's base address.
    starts: Vec<Address>,
    /// Elements per lane (every object of a workload has the same size).
    elements: u64,
    rounds: u32,
    /// The segment being walked, its lanes resolved to base addresses.
    lanes: [Address; 3],
    width: u32,
    passes: u32,
    round: u32,
    /// Segments of this round loaded so far.
    segment: usize,
    pass: u32,
    element: u64,
    lane: u32,
}

impl Iterator for PhasedStream {
    type Item = MemoryAccess;

    #[inline]
    fn next(&mut self) -> Option<MemoryAccess> {
        // A pass is over: start the next, of this segment, of the next one or
        // of the next round's first.
        while self.element == self.elements {
            self.pass += 1;
            if self.pass >= self.passes {
                if self.segment == self.schedule.len() {
                    self.segment = 0;
                    self.round += 1;
                }
                let s = *self.schedule.get(self.segment)?;
                self.lanes = s.lanes.map(|i| self.starts[i as usize]);
                (self.width, self.passes) = (s.width, s.passes);
                self.segment += 1;
                self.pass = 0;
            }
            // Past the last round the stream stays exhausted.
            (self.round < self.rounds).then(|| self.element = 0)?;
        }
        let lane = self.lane;
        let address = self.lanes[lane as usize].offset(self.element * u64::from(ELEMENT));
        self.lane += 1;
        if self.lane == self.width {
            self.lane = 0;
            self.element += 1;
        }
        // Only a triad has a third lane: its store.
        Some(if lane == 2 {
            MemoryAccess::store(address, ELEMENT)
        } else {
            MemoryAccess::load(address, ELEMENT)
        })
    }
}

impl PhasedWorkload {
    /// The registered workloads, by name. The stationary runs are long
    /// enough that the online runtime's one-off costs (cold first epoch,
    /// initial fill migrations) stay within the parity band against the
    /// best static placement.
    const REGISTERED: [(&'static str, Builder); 4] = [
        ("rotating-triad", |s| Self::rotating_triad(s, 3, 12, 2)),
        ("sweeping-stencil", |s| Self::sweeping_stencil(s, 6, 12, 2)),
        ("steady-triad", |s| Self::steady_triad(s, 80)),
        ("uniform-scan", |s| Self::uniform_scan(s, 6, 20)),
    ];

    /// A triad whose hot array triple rotates between `groups` groups: the
    /// hot triple advances every `passes_per_phase` passes, for `rounds`
    /// full rotations.
    pub fn rotating_triad(
        array_size: ByteSize,
        groups: u32,
        passes_per_phase: u32,
        rounds: u32,
    ) -> Self {
        PhasedWorkload {
            name: "rotating-triad",
            stationary: false,
            array_size,
            hot_arrays: 3,
            object_name: |i| format!("rot.g{}.{}", i / 3, ["a", "b", "c"][i % 3]),
            rounds: rounds.max(1),
            segments: (0..groups.max(2))
                .map(|g| Segment::triad(3 * g, passes_per_phase.max(1)))
                .collect(),
        }
    }

    /// An out-of-core stencil whose hot plane sweeps over `planes` planes:
    /// each phase runs `hot_passes` sweeps over the hot plane plus one pass
    /// over each neighbour, then the hot plane advances, `sweeps` times.
    pub fn sweeping_stencil(
        array_size: ByteSize,
        planes: u32,
        hot_passes: u32,
        sweeps: u32,
    ) -> Self {
        let (planes, hot_passes) = (planes.max(3), hot_passes.max(1));
        // Each phase: the hot plane, then each neighbour that exists.
        let mut segments = Vec::with_capacity(3 * planes as usize);
        for p in 0..planes {
            segments.push(Segment::sweep(p, hot_passes));
            segments.extend(p.checked_sub(1).map(|q| Segment::sweep(q, 1)));
            segments.extend((p + 1 < planes).then(|| Segment::sweep(p + 1, 1)));
        }
        PhasedWorkload {
            name: "sweeping-stencil",
            stationary: false,
            array_size,
            hot_arrays: 1,
            object_name: |i| format!("plane{i}"),
            rounds: sweeps.max(1),
            segments: segments.into(),
        }
    }

    /// A stationary triad over one fixed triple, `passes` times.
    pub fn steady_triad(array_size: ByteSize, passes: u32) -> Self {
        PhasedWorkload {
            name: "steady-triad",
            stationary: true,
            array_size,
            hot_arrays: 3,
            object_name: |i| format!("triad.{}", ["a", "b", "c"][i]),
            rounds: 1,
            segments: Arc::new([Segment::triad(0, passes.max(1))]),
        }
    }

    /// `passes` uniform sweeps over `segments` equally-cold objects.
    pub fn uniform_scan(array_size: ByteSize, segments: u32, passes: u32) -> Self {
        PhasedWorkload {
            name: "uniform-scan",
            stationary: true,
            array_size,
            // No hot subset: give the runtime room for two of the segments so
            // a thrashing policy would have something to thrash with.
            hot_arrays: 2,
            object_name: |i| format!("seg{i}"),
            rounds: passes.max(1),
            segments: (0..segments.max(2)).map(|i| Segment::sweep(i, 1)).collect(),
        }
    }

    /// How many objects the schedule touches: all of them.
    fn object_count(&self) -> usize {
        let lanes = self.segments.iter().flat_map(|s| s.lanes);
        lanes.max().map_or(0, |i| i as usize + 1)
    }

    /// The named data objects (name, size) the harness must allocate, in the
    /// order [`stream`](Self::stream) expects their ranges.
    pub fn objects(&self) -> Vec<(String, ByteSize)> {
        (0..self.object_count())
            .map(|i| ((self.object_name)(i), self.array_size))
            .collect()
    }

    /// Size of the hot working set at any single instant — what a fast-tier
    /// budget must hold for the workload's current phase to run fast. This is
    /// the budget the benches hand to both the static advisor and the online
    /// runtime, so neither side can fit *everything*.
    pub fn hot_set_size(&self) -> ByteSize {
        self.array_size * self.hot_arrays
    }

    /// Total accesses the stream will yield (for throughput accounting).
    ///
    /// # Panics
    ///
    /// Panics if the count overflows `u64` (see
    /// [`checked_total_accesses`](Self::checked_total_accesses)).
    pub fn total_accesses(&self) -> u64 {
        self.checked_total_accesses()
            .expect("access count overflows u64")
    }

    /// [`total_accesses`](Self::total_accesses), or `None` if the count
    /// overflows `u64`. Sums the schedule [`stream`](Self::stream) walks.
    pub fn checked_total_accesses(&self) -> Option<u64> {
        let elements = self.array_size.bytes() / u64::from(ELEMENT);
        // A segment adds at most 3 * u32::MAX: no schedule that fits in
        // memory overflows the sum.
        let accesses = |s: &Segment| u64::from(s.width) * u64::from(s.passes);
        let per_round = elements.checked_mul(self.segments.iter().map(accesses).sum())?;
        per_round.checked_mul(u64::from(self.rounds))
    }

    /// The access stream over the ranges the heap assigned to
    /// [`objects`](Self::objects) (same order): a [`PhasedStream`], built in
    /// O(objects) and holding O(objects) state regardless of the number of
    /// passes.
    ///
    /// # Panics
    ///
    /// Panics if `ranges` does not have one range per declared object.
    pub fn stream(&self, ranges: &[AddressRange]) -> PhasedStream {
        assert_eq!(
            ranges.len(),
            self.object_count(),
            "{}: expected one range per object",
            self.name
        );
        let elements = self.array_size.bytes() / u64::from(ELEMENT);
        PhasedStream {
            schedule: Arc::clone(&self.segments),
            starts: ranges.iter().map(|r| r.start).collect(),
            elements,
            // An array smaller than one element yields nothing.
            rounds: if elements == 0 { 0 } else { self.rounds },
            // A finished pass of no segment: the first call loads the first.
            element: elements,
            ..PhasedStream::default()
        }
    }
}

/// The registered phased workloads at a given per-array scale. Benches use a
/// few hundred KiB per array; tests shrink it to keep debug builds quick.
pub fn phased_workloads(array_size: ByteSize) -> Vec<PhasedWorkload> {
    Vec::from(PhasedWorkload::REGISTERED.map(|(_, b)| b(array_size)))
}

/// Look a phased workload up by name at the given scale, building only it.
pub fn phased_workload_by_name(name: &str, array_size: ByteSize) -> Option<PhasedWorkload> {
    let mut registered = PhasedWorkload::REGISTERED.into_iter();
    let (_, build) = registered.find(|(n, _)| n.eq_ignore_ascii_case(name))?;
    Some(build(array_size))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmsim_machine::AccessKind;

    fn triad_iter(
        a: AddressRange,
        b: AddressRange,
        c: AddressRange,
        passes: u32,
    ) -> impl Iterator<Item = MemoryAccess> {
        let elements = a.len.bytes() / u64::from(ELEMENT);
        (0..passes).flat_map(move |_| {
            (0..elements).flat_map(move |i| {
                let off = i * u64::from(ELEMENT);
                [
                    MemoryAccess::load(b.start.offset(off), ELEMENT),
                    MemoryAccess::load(c.start.offset(off), ELEMENT),
                    MemoryAccess::store(a.start.offset(off), ELEMENT),
                ]
            })
        })
    }

    fn sweep_iter(range: AddressRange, passes: u32) -> impl Iterator<Item = MemoryAccess> {
        let elements = range.len.bytes() / u64::from(ELEMENT);
        (0..passes).flat_map(move |_| {
            (0..elements).map(move |i| {
                MemoryAccess::load(range.start.offset(i * u64::from(ELEMENT)), ELEMENT)
            })
        })
    }

    fn lay_out(objects: &[(String, ByteSize)]) -> Vec<AddressRange> {
        let mut next = Address(0x4000_0000);
        objects
            .iter()
            .map(|(_, size)| {
                let r = AddressRange::new(next, *size);
                next = r.end().offset(hmsim_common::PAGE_SIZE);
                r
            })
            .collect()
    }

    /// A workload's parameters as its constructor takes them.
    #[derive(Clone, Copy, Debug)]
    enum Params {
        RotatingTriad(u32, u32, u32),
        SweepingStencil(u32, u32, u32),
        SteadyTriad(u32),
        UniformScan(u32, u32),
    }

    fn build(params: Params, array_size: ByteSize) -> PhasedWorkload {
        match params {
            Params::RotatingTriad(g, p, r) => PhasedWorkload::rotating_triad(array_size, g, p, r),
            Params::SweepingStencil(n, h, s) => {
                PhasedWorkload::sweeping_stencil(array_size, n, h, s)
            }
            Params::SteadyTriad(p) => PhasedWorkload::steady_triad(array_size, p),
            Params::UniformScan(n, p) => PhasedWorkload::uniform_scan(array_size, n, p),
        }
    }

    /// The nested `flat_map` generator the flat [`PhasedStream`] replaced,
    /// kept as its oracle.
    fn oracle(params: Params, r: &[AddressRange]) -> Box<dyn Iterator<Item = MemoryAccess>> {
        let r: Vec<AddressRange> = r.to_vec();
        match params {
            Params::RotatingTriad(groups, passes_per_phase, rounds) => {
                Box::new((0..rounds).flat_map(move |_| {
                    let r = r.clone();
                    (0..groups).flat_map(move |g| {
                        let base = (g as usize) * 3;
                        triad_iter(r[base], r[base + 1], r[base + 2], passes_per_phase)
                    })
                }))
            }
            Params::SweepingStencil(planes, hot_passes, sweeps) => {
                Box::new((0..sweeps).flat_map(move |_| {
                    let r = r.clone();
                    (0..planes as usize).flat_map(move |p: usize| {
                        let prev = p
                            .checked_sub(1)
                            .map(|q| sweep_iter(r[q], 1))
                            .into_iter()
                            .flatten();
                        let next = (p + 1 < planes as usize)
                            .then(|| sweep_iter(r[p + 1], 1))
                            .into_iter()
                            .flatten();
                        sweep_iter(r[p], hot_passes).chain(prev).chain(next)
                    })
                }))
            }
            Params::SteadyTriad(passes) => Box::new(triad_iter(r[0], r[1], r[2], passes)),
            Params::UniformScan(segments, passes) => Box::new((0..passes).flat_map(move |_| {
                let r = r.clone();
                (0..segments as usize).flat_map(move |i| sweep_iter(r[i], 1))
            })),
        }
    }

    #[test]
    fn registry_has_shifting_and_stationary_entries() {
        let ws = phased_workloads(ByteSize::from_kib(64));
        assert_eq!(ws.len(), 4);
        assert!(ws.iter().filter(|w| !w.stationary).count() >= 2);
        assert!(ws.iter().filter(|w| w.stationary).count() >= 2);
        assert!(phased_workload_by_name("Rotating-Triad", ByteSize::from_kib(64)).is_some());
        assert!(phased_workload_by_name("nope", ByteSize::from_kib(64)).is_none());
        for (name, build) in PhasedWorkload::REGISTERED {
            assert_eq!(build(ByteSize::from_kib(64)).name, name);
        }
    }

    #[test]
    fn streams_yield_exactly_total_accesses_within_declared_objects() {
        for w in phased_workloads(ByteSize::from_kib(16)) {
            let objects = w.objects();
            let ranges = lay_out(&objects);
            let mut n = 0u64;
            for acc in w.stream(&ranges) {
                assert!(
                    ranges.iter().any(|r| r.contains(acc.address)),
                    "{}: stray access {:?}",
                    w.name,
                    acc.address
                );
                n += 1;
            }
            assert_eq!(n, w.total_accesses(), "{}", w.name);
        }
    }

    #[test]
    fn stream_matches_the_nested_generator_access_for_access() {
        // The registry's parameters, then each constructor's minimum.
        let all = [
            Params::RotatingTriad(3, 12, 2),
            Params::SweepingStencil(6, 12, 2),
            Params::SteadyTriad(80),
            Params::UniformScan(6, 20),
            Params::RotatingTriad(2, 1, 1),
            Params::SweepingStencil(3, 1, 1),
            Params::SteadyTriad(1),
            Params::UniformScan(2, 1),
        ];
        // 4 bytes holds no element; 1001 bytes is not a multiple of 8.
        for bytes in [4, 8, 1001, 4096] {
            for params in all {
                let w = build(params, ByteSize::from_bytes(bytes));
                let at = format!("{params:?} at {bytes} B");
                let ranges = lay_out(&w.objects());
                let mut expected = oracle(params, &ranges);
                let mut n = 0u64;
                let mut stream = w.stream(&ranges);
                for acc in stream.by_ref() {
                    assert_eq!(Some(acc), expected.next(), "{at}, access {n}");
                    n += 1;
                }
                assert_eq!(stream.next(), None, "{at}: the stream resumes");
                assert_eq!(expected.next(), None, "{at}: the stream ends early");
                assert_eq!(n, w.total_accesses(), "{at}");
            }
        }
        let registered: Vec<&str> = phased_workloads(ByteSize::from_kib(1))
            .iter()
            .map(|w| w.name)
            .collect();
        let built: Vec<&str> = all[..4]
            .iter()
            .map(|p| build(*p, ByteSize::from_kib(1)).name)
            .collect();
        assert_eq!(registered, built);
    }

    #[test]
    fn objects_are_named_per_workload() {
        let names = |w: PhasedWorkload| -> Vec<String> {
            w.objects().into_iter().map(|(name, _)| name).collect()
        };
        let s = ByteSize::from_kib(1);
        assert_eq!(
            names(PhasedWorkload::rotating_triad(s, 2, 1, 1)),
            ["rot.g0.a", "rot.g0.b", "rot.g0.c", "rot.g1.a", "rot.g1.b", "rot.g1.c"]
        );
        assert_eq!(
            names(PhasedWorkload::sweeping_stencil(s, 3, 1, 1)),
            ["plane0", "plane1", "plane2"]
        );
        assert_eq!(
            names(PhasedWorkload::steady_triad(s, 1)),
            ["triad.a", "triad.b", "triad.c"]
        );
        assert_eq!(
            names(PhasedWorkload::uniform_scan(s, 2, 1)),
            ["seg0", "seg1"]
        );
    }

    #[test]
    fn stream_state_does_not_grow_with_passes() {
        let w = PhasedWorkload::steady_triad(ByteSize::from_kib(16), u32::MAX);
        let ranges = lay_out(&w.objects());
        let stream = w.stream(&ranges);
        assert_eq!((stream.schedule.len(), stream.starts.len()), (1, 3));
        assert_eq!(PhasedStream::default().next(), None);
        let first: Vec<MemoryAccess> = stream.take(3).collect();
        assert_eq!(
            first,
            [
                MemoryAccess::load(ranges[1].start, ELEMENT),
                MemoryAccess::load(ranges[2].start, ELEMENT),
                MemoryAccess::store(ranges[0].start, ELEMENT),
            ]
        );
    }

    #[test]
    fn rotating_triad_hot_set_moves_between_phases() {
        let w = PhasedWorkload::rotating_triad(ByteSize::from_kib(16), 3, 2, 1);
        let ranges = lay_out(&w.objects());
        let per_phase = w.total_accesses() / 3;
        let acc: Vec<MemoryAccess> = w.stream(&ranges).collect();
        // Phase 0 touches only group 0's arrays, phase 1 only group 1's.
        let group = |idx: usize| &ranges[idx * 3..idx * 3 + 3];
        assert!(acc[..per_phase as usize]
            .iter()
            .all(|a| group(0).iter().any(|r| r.contains(a.address))));
        assert!(acc[per_phase as usize..2 * per_phase as usize]
            .iter()
            .all(|a| group(1).iter().any(|r| r.contains(a.address))));
    }

    #[test]
    fn steady_triad_mixes_loads_and_stores() {
        let w = PhasedWorkload::steady_triad(ByteSize::from_kib(16), 1);
        let ranges = lay_out(&w.objects());
        let acc: Vec<MemoryAccess> = w.stream(&ranges).collect();
        let stores = acc.iter().filter(|a| a.kind == AccessKind::Store).count();
        assert_eq!(stores * 3, acc.len(), "one store per triad element");
        assert_eq!(w.hot_set_size(), ByteSize::from_kib(48));
    }

    #[test]
    fn stencil_concentrates_on_the_hot_plane() {
        let w = PhasedWorkload::sweeping_stencil(ByteSize::from_kib(16), 4, 5, 1);
        let ranges = lay_out(&w.objects());
        let mut per_plane = [0u64; 4];
        let elements = ByteSize::from_kib(16).bytes() / 8;
        let acc: Vec<MemoryAccess> = w.stream(&ranges).collect();
        // During the first phase (hot plane 0), plane 0 dominates.
        for a in &acc[..(elements * 5) as usize] {
            let p = ranges.iter().position(|r| r.contains(a.address)).unwrap();
            per_plane[p] += 1;
        }
        assert!(per_plane[0] > per_plane[1] * 3);
        assert_eq!(per_plane[2], 0);
    }
}
