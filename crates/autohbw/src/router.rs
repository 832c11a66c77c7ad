//! Placement approaches: the framework and every baseline the paper compares
//! against, behind one allocation-routing interface.
//!
//! [`PlacementApproach`] is the *self-describing* form of an approach: each
//! variant carries its own configuration as enum payload (the `autohbw` size
//! threshold, the framework's selection strategy) and knows how to build its
//! own [`AllocationRouter`] through [`PlacementApproach::router`]. That is
//! what removes the old router-factory-vs-`RunConfig` mismatch class: a
//! caller can no longer pair an online run configuration with a DDR router,
//! because the router is derived from the approach value itself.
//!
//! [`ApproachKind`] is the *typed label* of an approach — the thing results,
//! grid columns, figure legends and bench JSON keys used to carry as bare
//! strings. Its [`Display`](std::fmt::Display) impl is the single source of
//! the legend names (`DDR`, `MCDRAM*`, `autohbw`, `Cache`, `Framework`,
//! `Online`).

use crate::interpose::AutoHbwMalloc;
use hmem_advisor::SelectionStrategy;
use hmsim_callstack::SiteKey;
use hmsim_common::{Address, AddressRange, ByteSize, HmResult, Nanos, ObjectId, TierId};
use hmsim_heap::{AllocCostModel, ProcessHeap};
use std::fmt;

/// The placement approaches evaluated in Figure 4.
#[derive(Clone, Debug, PartialEq)]
pub enum PlacementApproach {
    /// Everything in DDR (the reference).
    DdrOnly,
    /// `numactl -p 1`: place every allocation — static, stack and dynamic —
    /// in MCDRAM first-come-first-served, falling back to DDR when exhausted.
    NumactlPreferred,
    /// memkind's `autohbw` library: promote every dynamic allocation of at
    /// least `threshold` bytes, FCFS until MCDRAM is exhausted.
    AutoHbw {
        /// Minimum size promoted (1 MiB in the paper's experiments).
        threshold: ByteSize,
    },
    /// MCDRAM configured as a cache: placement is transparent, everything
    /// stays in DDR from the allocator's point of view.
    CacheMode,
    /// The paper's framework: `auto-hbwmalloc` driven by an advisor report
    /// produced with the embedded selection strategy (the profile → analyse
    /// → advise → re-run pipeline).
    Framework {
        /// How the advisor ranks candidate objects for promotion.
        strategy: SelectionStrategy,
    },
    /// The online migration runtime (`hmsim-runtime`): everything is
    /// allocated in DDR and the epoch-driven placement engine migrates hot
    /// objects to fast memory while the application runs.
    Online,
}

impl PlacementApproach {
    /// The `autohbw` baseline with the paper's 1 MiB threshold.
    pub fn autohbw_1m() -> PlacementApproach {
        PlacementApproach::AutoHbw {
            threshold: ByteSize::from_mib(1),
        }
    }

    /// The framework with a given selection strategy.
    pub fn framework(strategy: SelectionStrategy) -> PlacementApproach {
        PlacementApproach::Framework { strategy }
    }

    /// The typed label of this approach (payload-free).
    pub fn kind(&self) -> ApproachKind {
        match self {
            PlacementApproach::DdrOnly => ApproachKind::Ddr,
            PlacementApproach::NumactlPreferred => ApproachKind::Numactl,
            PlacementApproach::AutoHbw { .. } => ApproachKind::AutoHbw,
            PlacementApproach::CacheMode => ApproachKind::Cache,
            PlacementApproach::Framework { .. } => ApproachKind::Framework,
            PlacementApproach::Online => ApproachKind::Online,
        }
    }

    /// Build the allocation router implementing this approach.
    ///
    /// Every self-contained approach builds here; [`Framework`] needs an
    /// advisor report and a process's unwind/translate machinery (the output
    /// of the profiling pipeline), so it cannot — run it through the
    /// `hmem-core` `Simulation` facade or build the interposition library
    /// explicitly with [`AllocationRouter::framework`].
    ///
    /// [`Framework`]: PlacementApproach::Framework
    pub fn router(&self) -> HmResult<AllocationRouter> {
        AllocationRouter::simple(self.clone())
    }
}

impl fmt::Display for PlacementApproach {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementApproach::AutoHbw { threshold } => {
                write!(f, "{}/{threshold}", ApproachKind::AutoHbw)
            }
            other => other.kind().fmt(f),
        }
    }
}

/// The typed, payload-free label of a placement approach — what results and
/// reports carry instead of a bare string. One `Display` impl produces the
/// figure-legend names; [`ApproachKind::key`] produces the lowercase
/// machine-readable form used in bench JSON keys.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ApproachKind {
    /// Everything in DDR.
    Ddr,
    /// `numactl -p 1` (the figure legend calls it `MCDRAM*`).
    Numactl,
    /// memkind's `autohbw` size-threshold promotion.
    AutoHbw,
    /// MCDRAM as a transparent memory-side cache.
    Cache,
    /// The paper's profile-guided framework.
    Framework,
    /// The online migration runtime.
    Online,
}

impl ApproachKind {
    /// Every kind, in figure-legend presentation order.
    pub const ALL: [ApproachKind; 6] = [
        ApproachKind::Ddr,
        ApproachKind::Numactl,
        ApproachKind::AutoHbw,
        ApproachKind::Cache,
        ApproachKind::Framework,
        ApproachKind::Online,
    ];

    /// The lowercase machine-readable identifier (bench JSON keys, scenario
    /// files).
    pub fn key(self) -> &'static str {
        match self {
            ApproachKind::Ddr => "ddr",
            ApproachKind::Numactl => "numactl",
            ApproachKind::AutoHbw => "autohbw",
            ApproachKind::Cache => "cache",
            ApproachKind::Framework => "framework",
            ApproachKind::Online => "online",
        }
    }
}

impl fmt::Display for ApproachKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ApproachKind::Ddr => "DDR",
            ApproachKind::Numactl => "MCDRAM*",
            ApproachKind::AutoHbw => "autohbw",
            ApproachKind::Cache => "Cache",
            ApproachKind::Framework => "Framework",
            ApproachKind::Online => "Online",
        })
    }
}

/// A policy that decides where every allocation goes during a run.
pub enum AllocationRouter {
    /// A tier-preference policy. Where each allocation goes follows from
    /// the approach: numactl puts every allocation in MCDRAM while it fits,
    /// autohbw the dynamic ones of at least its threshold, and the others
    /// keep everything in DDR.
    Simple(PlacementApproach),
    /// The framework's interposition library.
    Interposed(Box<AutoHbwMalloc>),
}

impl AllocationRouter {
    /// Build a router for an approach. `Framework` requires the interposition
    /// library ([`AllocationRouter::framework`]), so asking for it here is a
    /// configuration error.
    pub fn simple(approach: PlacementApproach) -> HmResult<AllocationRouter> {
        if matches!(approach, PlacementApproach::Framework { .. }) {
            return Err(hmsim_common::HmError::Config(
                "the Framework approach needs an advisor-configured interposition \
                 library; run it through the Simulation facade or build it with \
                 AllocationRouter::framework"
                    .to_string(),
            ));
        }
        Ok(AllocationRouter::Simple(approach))
    }

    /// Build the framework router from a configured interposition library.
    pub fn framework(lib: AutoHbwMalloc) -> AllocationRouter {
        AllocationRouter::Interposed(Box::new(lib))
    }

    /// The typed label of the approach this router implements.
    pub fn kind(&self) -> ApproachKind {
        match self {
            AllocationRouter::Simple(approach) => approach.kind(),
            AllocationRouter::Interposed(_) => ApproachKind::Framework,
        }
    }

    /// Perform a dynamic allocation.
    ///
    /// `canonical_site` is the ASLR-independent allocation-site key the
    /// caller already knows for this logical stack (the simulation runner
    /// derives it through the same unwind/translate machinery the framework
    /// uses); every router records it on the allocated object so that the
    /// profiling trace and the advisor's report speak the same site language.
    /// The interposed framework router still unwinds the stack itself to
    /// decide the placement (Algorithm 1), but takes the recorded key from
    /// the caller rather than deriving it a second time.
    pub fn malloc(
        &mut self,
        heap: &mut ProcessHeap,
        size: ByteSize,
        name: &str,
        logical_stack: &[&str],
        canonical_site: Option<&SiteKey>,
        now: Nanos,
    ) -> HmResult<(ObjectId, AddressRange, Nanos)> {
        match self {
            AllocationRouter::Interposed(lib) => {
                lib.malloc(heap, size, name, logical_stack, canonical_site, now)
            }
            AllocationRouter::Simple(approach) => {
                // Online placement starts everything in DDR; promotion
                // happens later through page migration, not through the
                // allocator.
                let wants_fast = match approach {
                    PlacementApproach::NumactlPreferred => true,
                    PlacementApproach::AutoHbw { threshold } => size >= *threshold,
                    _ => false,
                };
                let site = canonical_site.cloned().unwrap_or_else(|| {
                    SiteKey::from_frames(logical_stack.iter().map(|f| format!("app!{f}+0x0")))
                });
                if wants_fast && heap.fits(TierId::MCDRAM, size) {
                    let (id, range, base_cost) =
                        heap.malloc(size, TierId::MCDRAM, name, Some(site), now)?;
                    // The autohbw library forwards promoted allocations to
                    // memkind's hbw_malloc, which costs more than glibc
                    // (especially in the 1-2 MiB anomaly window). numactl,
                    // by contrast, is pure page placement and pays nothing
                    // extra, so the surcharge lives here and not in the heap.
                    let surcharge = if matches!(approach, PlacementApproach::AutoHbw { .. }) {
                        AllocCostModel::memkind_surcharge(size)
                    } else {
                        Nanos::ZERO
                    };
                    Ok((id, range, base_cost + surcharge))
                } else {
                    heap.malloc(size, TierId::DDR, name, Some(site), now)
                }
            }
        }
    }

    /// Free a dynamic allocation; returns the CPU cost of the call.
    pub fn free(&mut self, heap: &mut ProcessHeap, addr: Address) -> HmResult<Nanos> {
        match self {
            AllocationRouter::Interposed(lib) => lib.free(heap, addr),
            AllocationRouter::Simple(_) => Ok(heap.free(addr)?.1),
        }
    }

    /// Which tier a static variable's pages should go to, given its size and
    /// the space remaining in MCDRAM: only numactl places static data in
    /// MCDRAM.
    pub fn static_tier(&self, heap: &ProcessHeap, size: ByteSize) -> TierId {
        match self {
            AllocationRouter::Simple(PlacementApproach::NumactlPreferred)
                if heap.fits(TierId::MCDRAM, size) =>
            {
                TierId::MCDRAM
            }
            _ => TierId::DDR,
        }
    }

    /// Which tier stack pages should go to: the same rule as static data.
    pub fn stack_tier(&self, heap: &ProcessHeap, size: ByteSize) -> TierId {
        self.static_tier(heap, size)
    }

    /// The interposition overhead accumulated by this router.
    pub fn interposition_overhead(&self) -> Nanos {
        match self {
            AllocationRouter::Simple(_) => Nanos::ZERO,
            AllocationRouter::Interposed(lib) => lib.stats().overhead(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmsim_machine::MachineConfig;

    fn heap_with_cap(cap_mib: u64) -> ProcessHeap {
        let mut h = ProcessHeap::new(&MachineConfig::knl_7250()).unwrap();
        h.set_capacity_cap(TierId::MCDRAM, ByteSize::from_mib(cap_mib))
            .unwrap();
        h
    }

    #[test]
    fn ddr_router_never_touches_mcdram() {
        let mut heap = heap_with_cap(1024);
        let mut r = PlacementApproach::DdrOnly.router().unwrap();
        let (_, range, _) = r
            .malloc(
                &mut heap,
                ByteSize::from_mib(100),
                "x",
                &["main", "malloc"],
                None,
                Nanos::ZERO,
            )
            .unwrap();
        assert_eq!(heap.page_table().tier_of(range.start), TierId::DDR);
        assert_eq!(r.static_tier(&heap, ByteSize::from_mib(10)), TierId::DDR);
        assert_eq!(heap.allocated_hwm(TierId::MCDRAM), ByteSize::ZERO);
        assert_eq!(r.kind(), ApproachKind::Ddr);
    }

    #[test]
    fn numactl_router_is_fcfs_until_exhausted() {
        let mut heap = heap_with_cap(150);
        let mut r = PlacementApproach::NumactlPreferred.router().unwrap();
        // Static data also prefers MCDRAM under numactl.
        assert_eq!(r.static_tier(&heap, ByteSize::from_mib(32)), TierId::MCDRAM);
        assert_eq!(r.stack_tier(&heap, ByteSize::from_mib(8)), TierId::MCDRAM);
        let (_, r1, _) = r
            .malloc(
                &mut heap,
                ByteSize::from_mib(100),
                "first",
                &["main", "malloc"],
                None,
                Nanos::ZERO,
            )
            .unwrap();
        let (_, r2, _) = r
            .malloc(
                &mut heap,
                ByteSize::from_mib(100),
                "second",
                &["main", "malloc"],
                None,
                Nanos::ZERO,
            )
            .unwrap();
        assert_eq!(heap.page_table().tier_of(r1.start), TierId::MCDRAM);
        assert_eq!(
            heap.page_table().tier_of(r2.start),
            TierId::DDR,
            "MCDRAM exhausted"
        );
        assert_eq!(heap.allocated_hwm(TierId::MCDRAM), ByteSize::from_mib(100));
    }

    #[test]
    fn autohbw_router_honours_the_size_threshold() {
        let mut heap = heap_with_cap(1024);
        let mut r = PlacementApproach::autohbw_1m().router().unwrap();
        let (_, small, _) = r
            .malloc(
                &mut heap,
                ByteSize::from_kib(512),
                "small",
                &["main", "malloc"],
                None,
                Nanos::ZERO,
            )
            .unwrap();
        let (_, big, _) = r
            .malloc(
                &mut heap,
                ByteSize::from_mib(2),
                "big",
                &["main", "malloc"],
                None,
                Nanos::ZERO,
            )
            .unwrap();
        assert_eq!(heap.page_table().tier_of(small.start), TierId::DDR);
        assert_eq!(heap.page_table().tier_of(big.start), TierId::MCDRAM);
        // autohbw never promotes statics or stacks.
        assert_eq!(r.static_tier(&heap, ByteSize::from_mib(1)), TierId::DDR);
        assert_eq!(
            format!("{}", PlacementApproach::autohbw_1m()),
            "autohbw/1MiB"
        );
        assert_eq!(r.kind(), ApproachKind::AutoHbw);
    }

    #[test]
    fn cache_mode_router_keeps_everything_in_ddr() {
        let mut heap = heap_with_cap(1024);
        let mut r = PlacementApproach::CacheMode.router().unwrap();
        let (_, range, _) = r
            .malloc(
                &mut heap,
                ByteSize::from_mib(64),
                "x",
                &["main", "malloc"],
                None,
                Nanos::ZERO,
            )
            .unwrap();
        assert_eq!(heap.page_table().tier_of(range.start), TierId::DDR);
    }

    #[test]
    fn free_releases_promoted_accounting() {
        let mut heap = heap_with_cap(128);
        let mut r = PlacementApproach::NumactlPreferred.router().unwrap();
        let (_, range, _) = r
            .malloc(
                &mut heap,
                ByteSize::from_mib(100),
                "a",
                &["main", "malloc"],
                None,
                Nanos::ZERO,
            )
            .unwrap();
        r.free(&mut heap, range.start).unwrap();
        // Space is reusable afterwards.
        let (_, again, _) = r
            .malloc(
                &mut heap,
                ByteSize::from_mib(100),
                "b",
                &["main", "malloc"],
                None,
                Nanos::from_millis(2.0),
            )
            .unwrap();
        assert_eq!(heap.page_table().tier_of(again.start), TierId::MCDRAM);
        assert_eq!(heap.allocated_hwm(TierId::MCDRAM), ByteSize::from_mib(100));
        assert_eq!(r.interposition_overhead(), Nanos::ZERO);
    }

    #[test]
    fn framework_requires_the_interposition_constructor() {
        let approach = PlacementApproach::framework(hmem_advisor::SelectionStrategy::Density);
        let err = match approach.router() {
            Err(e) => e,
            Ok(_) => panic!("Framework must not build through simple()"),
        };
        assert!(
            matches!(err, hmsim_common::HmError::Config(_)),
            "expected a typed configuration error, got {err}"
        );
        assert!(err.to_string().contains("AllocationRouter::framework"));
        assert_eq!(approach.kind(), ApproachKind::Framework);
    }

    #[test]
    fn online_router_allocates_ddr_first() {
        let mut heap = heap_with_cap(1024);
        let mut r = PlacementApproach::Online.router().unwrap();
        assert_eq!(r.kind(), ApproachKind::Online);
        let (_, range, _) = r
            .malloc(
                &mut heap,
                ByteSize::from_mib(64),
                "grid",
                &["main", "malloc"],
                None,
                Nanos::ZERO,
            )
            .unwrap();
        assert_eq!(heap.page_table().tier_of(range.start), TierId::DDR);
        assert_eq!(r.static_tier(&heap, ByteSize::from_mib(10)), TierId::DDR);
        assert_eq!(heap.allocated_hwm(TierId::MCDRAM), ByteSize::ZERO);
    }

    #[test]
    fn display_names_match_the_figure_legend() {
        assert_eq!(format!("{}", PlacementApproach::DdrOnly), "DDR");
        assert_eq!(
            format!("{}", PlacementApproach::NumactlPreferred),
            "MCDRAM*"
        );
        assert_eq!(format!("{}", PlacementApproach::CacheMode), "Cache");
        assert_eq!(
            format!(
                "{}",
                PlacementApproach::framework(hmem_advisor::SelectionStrategy::Density)
            ),
            "Framework"
        );
        assert_eq!(format!("{}", PlacementApproach::Online), "Online");
        // The machine-readable keys stay lowercase and stable.
        for kind in ApproachKind::ALL {
            assert_eq!(kind.key(), kind.key().to_ascii_lowercase());
        }
        assert_eq!(ApproachKind::Online.key(), "online");
        assert_eq!(ApproachKind::Numactl.to_string(), "MCDRAM*");
    }
}
