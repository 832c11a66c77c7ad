//! Phase-shifting trace workloads for the online migration runtime.
//!
//! The paper's pipeline decides placement *once*, offline; these workloads
//! are built so that no single static placement is optimal for the whole
//! run — the property the epoch-driven runtime (`hmsim-runtime`) exploits.
//! Each workload declares an inventory of named data objects and, given the
//! address ranges the heap assigned to them, yields its access stream lazily
//! (the same `Iterator<Item = MemoryAccess>` contract the trace engine's
//! `run_stream` consumes).
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

use hmsim_common::{AddressRange, ByteSize};
use hmsim_machine::MemoryAccess;

/// How one registered phased workload walks its objects.
#[derive(Clone, Copy, Debug)]
enum Kind {
    /// `groups` triads over disjoint array triples; the hot triple advances
    /// every `passes_per_phase` passes, for `rounds` full rotations.
    RotatingTriad {
        groups: u32,
        passes_per_phase: u32,
        rounds: u32,
    },
    /// `planes` planes; each phase runs `hot_passes` sweeps over the hot
    /// plane plus one pass over each neighbour, then the hot plane advances.
    SweepingStencil {
        planes: u32,
        hot_passes: u32,
        sweeps: u32,
    },
    /// One triad over a fixed triple, `passes` times (stationary).
    SteadyTriad { passes: u32 },
    /// `passes` uniform sweeps over every object (stationary, no hot set).
    UniformScan { segments: u32, passes: u32 },
}

/// One registered phased workload: an object inventory plus a schedule.
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
    kind: Kind,
}

/// Element size every workload touches (double precision).
const ELEMENT: u16 = 8;

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
        (0..elements)
            .map(move |i| MemoryAccess::load(range.start.offset(i * u64::from(ELEMENT)), ELEMENT))
    })
}

impl PhasedWorkload {
    /// A triad whose hot array triple rotates between `groups` groups.
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
            kind: Kind::RotatingTriad {
                groups: groups.max(2),
                passes_per_phase: passes_per_phase.max(1),
                rounds: rounds.max(1),
            },
        }
    }

    /// An out-of-core stencil whose hot plane sweeps over `planes` planes.
    pub fn sweeping_stencil(
        array_size: ByteSize,
        planes: u32,
        hot_passes: u32,
        sweeps: u32,
    ) -> Self {
        PhasedWorkload {
            name: "sweeping-stencil",
            stationary: false,
            array_size,
            kind: Kind::SweepingStencil {
                planes: planes.max(3),
                hot_passes: hot_passes.max(1),
                sweeps: sweeps.max(1),
            },
        }
    }

    /// A stationary triad over one fixed triple.
    pub fn steady_triad(array_size: ByteSize, passes: u32) -> Self {
        PhasedWorkload {
            name: "steady-triad",
            stationary: true,
            array_size,
            kind: Kind::SteadyTriad {
                passes: passes.max(1),
            },
        }
    }

    /// A uniform scan over `segments` equally-cold objects.
    pub fn uniform_scan(array_size: ByteSize, segments: u32, passes: u32) -> Self {
        PhasedWorkload {
            name: "uniform-scan",
            stationary: true,
            array_size,
            kind: Kind::UniformScan {
                segments: segments.max(2),
                passes: passes.max(1),
            },
        }
    }

    /// The named data objects (name, size) the harness must allocate, in the
    /// order [`stream`](Self::stream) expects their ranges.
    pub fn objects(&self) -> Vec<(String, ByteSize)> {
        let s = self.array_size;
        match self.kind {
            Kind::RotatingTriad { groups, .. } => (0..groups)
                .flat_map(|g| ["a", "b", "c"].map(|l| (format!("rot.g{g}.{l}"), s)))
                .collect(),
            Kind::SweepingStencil { planes, .. } => {
                (0..planes).map(|p| (format!("plane{p}"), s)).collect()
            }
            Kind::SteadyTriad { .. } => ["a", "b", "c"]
                .iter()
                .map(|l| (format!("triad.{l}"), s))
                .collect(),
            Kind::UniformScan { segments, .. } => {
                (0..segments).map(|i| (format!("seg{i}"), s)).collect()
            }
        }
    }

    /// Size of the hot working set at any single instant — what a fast-tier
    /// budget must hold for the workload's current phase to run fast. This is
    /// the budget the benches hand to both the static advisor and the online
    /// runtime, so neither side can fit *everything*.
    pub fn hot_set_size(&self) -> ByteSize {
        match self.kind {
            Kind::RotatingTriad { .. } | Kind::SteadyTriad { .. } => self.array_size * 3,
            Kind::SweepingStencil { .. } => self.array_size,
            // No hot subset: give the runtime room for two of the segments so
            // a thrashing policy would have something to thrash with.
            Kind::UniformScan { .. } => self.array_size * 2,
        }
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
    /// overflows `u64`.
    pub fn checked_total_accesses(&self) -> Option<u64> {
        let elements = self.array_size.bytes() / u64::from(ELEMENT);
        let product = |factors: &[u64]| {
            factors
                .iter()
                .try_fold(elements, |acc, &f| acc.checked_mul(f))
        };
        match self.kind {
            Kind::RotatingTriad {
                groups,
                passes_per_phase,
                rounds,
            } => product(&[
                3,
                u64::from(passes_per_phase),
                u64::from(groups),
                u64::from(rounds),
            ]),
            Kind::SweepingStencil {
                planes,
                hot_passes,
                sweeps,
            } => {
                let neighbours: u64 = (0..planes)
                    .map(|p| u64::from(p > 0) + u64::from(p + 1 < planes))
                    .sum();
                let per_sweep =
                    (u64::from(planes) * u64::from(hot_passes)).checked_add(neighbours)?;
                product(&[u64::from(sweeps), per_sweep])
            }
            Kind::SteadyTriad { passes } => product(&[3, u64::from(passes)]),
            Kind::UniformScan { segments, passes } => {
                product(&[u64::from(segments), u64::from(passes)])
            }
        }
    }

    /// The access stream over the ranges the heap assigned to
    /// [`objects`](Self::objects) (same order). Lazy: O(1) state regardless
    /// of workload size.
    ///
    /// # Panics
    ///
    /// Panics if `ranges` does not have one range per declared object.
    pub fn stream(&self, ranges: &[AddressRange]) -> Box<dyn Iterator<Item = MemoryAccess>> {
        assert_eq!(
            ranges.len(),
            self.objects().len(),
            "{}: expected one range per object",
            self.name
        );
        let r: Vec<AddressRange> = ranges.to_vec();
        match self.kind {
            Kind::RotatingTriad {
                groups,
                passes_per_phase,
                rounds,
            } => Box::new((0..rounds).flat_map(move |_| {
                let r = r.clone();
                (0..groups).flat_map(move |g| {
                    let base = (g as usize) * 3;
                    triad_iter(r[base], r[base + 1], r[base + 2], passes_per_phase)
                })
            })),
            Kind::SweepingStencil {
                planes,
                hot_passes,
                sweeps,
            } => Box::new((0..sweeps).flat_map(move |_| {
                let r = r.clone();
                (0..planes as usize).flat_map(move |p| {
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
            })),
            Kind::SteadyTriad { passes } => Box::new(triad_iter(r[0], r[1], r[2], passes)),
            Kind::UniformScan { segments, passes } => Box::new((0..passes).flat_map(move |_| {
                let r = r.clone();
                (0..segments as usize).flat_map(move |i| sweep_iter(r[i], 1))
            })),
        }
    }
}

/// The registered phased workloads at a given per-array scale. Benches use a
/// few hundred KiB per array; tests shrink it to keep debug builds quick.
pub fn phased_workloads(array_size: ByteSize) -> Vec<PhasedWorkload> {
    vec![
        PhasedWorkload::rotating_triad(array_size, 3, 12, 2),
        PhasedWorkload::sweeping_stencil(array_size, 6, 12, 2),
        // The stationary runs are long enough that the online runtime's
        // one-off costs (cold first epoch, initial fill migrations) stay
        // within the parity band against the best static placement.
        PhasedWorkload::steady_triad(array_size, 80),
        PhasedWorkload::uniform_scan(array_size, 6, 20),
    ]
}

/// Look a phased workload up by name at the given scale.
pub fn phased_workload_by_name(name: &str, array_size: ByteSize) -> Option<PhasedWorkload> {
    phased_workloads(array_size)
        .into_iter()
        .find(|w| w.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmsim_common::Address;
    use hmsim_machine::AccessKind;

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

    #[test]
    fn registry_has_shifting_and_stationary_entries() {
        let ws = phased_workloads(ByteSize::from_kib(64));
        assert_eq!(ws.len(), 4);
        assert!(ws.iter().filter(|w| !w.stationary).count() >= 2);
        assert!(ws.iter().filter(|w| w.stationary).count() >= 2);
        assert!(phased_workload_by_name("Rotating-Triad", ByteSize::from_kib(64)).is_some());
        assert!(phased_workload_by_name("nope", ByteSize::from_kib(64)).is_none());
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
