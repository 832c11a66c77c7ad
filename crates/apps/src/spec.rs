//! The declarative application model.

use hmsim_common::{ByteSize, HmError, HmResult, Nanos};
use hmsim_heap::ObjectKind;

/// When an object is allocated during the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocTiming {
    /// Allocated once during initialisation and kept until the end (the
    /// common HPC pattern the advisor's static-address-space assumption
    /// relies on).
    Init,
    /// Allocated and freed inside the iteration loop (`allocs_per_iteration`
    /// times per iteration) — the pattern that misleads the advisor for
    /// LULESH and that makes allocator overhead visible.
    PerIteration {
        /// Allocation/deallocation pairs per iteration from this site.
        allocs_per_iteration: u32,
    },
}

/// One data object (or family of identically-behaving objects) of an
/// application, per process.
#[derive(Clone, Debug)]
pub struct ObjectSpec {
    /// Object (or variable) name.
    pub name: &'static str,
    /// Static, dynamic or stack storage.
    pub kind: ObjectKind,
    /// Size per process (the maximum, when the size varies between
    /// allocations from the same site).
    pub size: ByteSize,
    /// Smallest size requested from this site (equals `size` unless the site
    /// allocates variable amounts).
    pub min_size: ByteSize,
    /// Logical allocation call-path, outermost frame first (dynamic objects).
    pub site: &'static [&'static str],
    /// When the object is allocated.
    pub timing: AllocTiming,
    /// This object's share of the application's per-iteration LLC misses
    /// (weights are normalised over the whole object list).
    pub miss_share: f64,
    /// Fraction of the object's traffic that is irregular / latency-bound.
    pub irregular: f64,
}

impl ObjectSpec {
    /// Convenience constructor for an init-time dynamic object.
    pub fn dynamic(
        name: &'static str,
        size: ByteSize,
        site: &'static [&'static str],
        miss_share: f64,
        irregular: f64,
    ) -> Self {
        ObjectSpec {
            name,
            kind: ObjectKind::Dynamic,
            size,
            min_size: size,
            site,
            timing: AllocTiming::Init,
            miss_share,
            irregular,
        }
    }

    /// Convenience constructor for a static variable.
    pub fn static_var(name: &'static str, size: ByteSize, miss_share: f64, irregular: f64) -> Self {
        ObjectSpec {
            name,
            kind: ObjectKind::Static,
            size,
            min_size: size,
            site: &[],
            timing: AllocTiming::Init,
            miss_share,
            irregular,
        }
    }

    /// Convenience constructor for stack (automatic) storage such as the
    /// register-spill area of a hot routine.
    pub fn stack(name: &'static str, size: ByteSize, miss_share: f64, irregular: f64) -> Self {
        ObjectSpec {
            name,
            kind: ObjectKind::Stack,
            size,
            min_size: size,
            site: &[],
            timing: AllocTiming::Init,
            miss_share,
            irregular,
        }
    }

    /// Mark this object as allocated/freed inside the iteration loop.
    pub fn per_iteration(mut self, allocs_per_iteration: u32) -> Self {
        self.timing = AllocTiming::PerIteration {
            allocs_per_iteration,
        };
        self
    }

    /// Set a smaller minimum allocation size for a variable-size site.
    pub fn with_min_size(mut self, min: ByteSize) -> Self {
        self.min_size = min;
        self
    }
}

/// One kernel (phase) inside the application's main iteration.
#[derive(Clone, Debug)]
pub struct KernelSpec {
    /// Kernel name (matches routine names in Figure 5 for SNAP).
    pub name: &'static str,
    /// Share of the iteration's instructions executed in this kernel.
    pub instruction_share: f64,
    /// Share of the iteration's LLC misses generated in this kernel.
    pub miss_share: f64,
    /// Objects touched by this kernel and their relative weights within the
    /// kernel; when empty the kernel touches every object proportionally to
    /// its global `miss_share`.
    pub object_weights: &'static [(&'static str, f64)],
}

/// A complete application model.
#[derive(Clone, Debug)]
pub struct AppSpec {
    /// Application name as used in the paper.
    pub name: &'static str,
    /// Version string (Table I).
    pub version: &'static str,
    /// Implementation language (Table I).
    pub language: &'static str,
    /// Parallelisation (Table I).
    pub parallelism: &'static str,
    /// Source lines of code (Table I).
    pub lines_of_code: u32,
    /// MPI ranks used in the evaluation.
    pub ranks: u32,
    /// Threads per rank.
    pub threads_per_rank: u32,
    /// Problem size description (Table I).
    pub problem_size: &'static str,
    /// Compiler flags (Table I).
    pub compilation_flags: &'static str,
    /// Name of the figure of merit (Table I).
    pub fom_name: &'static str,
    /// Work units (in FOM terms) completed by the whole node per iteration;
    /// FOM = `fom_work_per_iteration * iterations / elapsed_seconds`.
    pub fom_work_per_iteration: f64,
    /// Direct allocation statements (Table I, format m/r/f/n/d/a/D).
    pub alloc_statement_counts: &'static str,
    /// Main-loop iterations simulated.
    pub iterations: u32,
    /// Instructions retired per process per iteration.
    pub instructions_per_iteration: u64,
    /// LLC misses per process per iteration.
    pub misses_per_iteration: u64,
    /// Hot (frequently-reused) working set per process; governs the MCDRAM
    /// cache-mode hit rate.
    pub hot_working_set: ByteSize,
    /// Small, untraced allocations per second (below the 4 KiB filter) —
    /// only used to reproduce the allocation-rate column of Table I.
    pub small_allocs_per_second: f64,
    /// Time spent outside the iteration loop (initialisation, I/O).
    pub init_time: Nanos,
    /// The data objects.
    pub objects: Vec<ObjectSpec>,
    /// The kernels inside one iteration.
    pub kernels: Vec<KernelSpec>,
}

impl AppSpec {
    /// Total per-process memory footprint (all objects).
    pub fn footprint(&self) -> ByteSize {
        self.objects.iter().map(|o| o.size).sum()
    }

    /// Dynamic objects only.
    pub fn dynamic_objects(&self) -> impl Iterator<Item = &ObjectSpec> {
        self.objects
            .iter()
            .filter(|o| o.kind == ObjectKind::Dynamic)
    }

    /// Normalised miss share of object `name` (0 if unknown).
    pub fn miss_fraction(&self, name: &str) -> f64 {
        let total: f64 = self.objects.iter().map(|o| o.miss_share).sum();
        if total <= 0.0 {
            return 0.0;
        }
        self.objects
            .iter()
            .find(|o| o.name == name)
            .map(|o| o.miss_share / total)
            .unwrap_or(0.0)
    }

    /// Traced (≥ 4 KiB) allocation events per process per second, from the
    /// object inventory and iteration structure; approximates Table I's
    /// "number of allocations/process/second" for allocation-heavy codes.
    pub fn traced_alloc_rate(&self, iteration_time: Nanos) -> f64 {
        let per_iter: u32 = self
            .objects
            .iter()
            .map(|o| match o.timing {
                AllocTiming::PerIteration {
                    allocs_per_iteration,
                } => allocs_per_iteration,
                AllocTiming::Init => 0,
            })
            .sum();
        if iteration_time.secs() <= 0.0 {
            return 0.0;
        }
        f64::from(per_iter) / iteration_time.secs()
    }

    /// Basic consistency checks: miss shares positive, kernel shares summing
    /// to ≈ 1, object names unique, objects referenced by kernels existing.
    /// Returns a typed [`HmError::Config`] so bad specs surface as ordinary
    /// errors in sweeps instead of panicking the whole grid.
    pub fn validate(&self) -> HmResult<()> {
        if self.objects.is_empty() {
            return Err(HmError::Config(format!("{}: no objects", self.name)));
        }
        if self.objects.iter().any(|o| o.miss_share < 0.0) {
            return Err(HmError::Config(format!(
                "{}: negative miss share",
                self.name
            )));
        }
        let total_share: f64 = self.objects.iter().map(|o| o.miss_share).sum();
        if total_share <= 0.0 {
            return Err(HmError::Config(format!(
                "{}: zero total miss share",
                self.name
            )));
        }
        if !self.kernels.is_empty() {
            let instr: f64 = self.kernels.iter().map(|k| k.instruction_share).sum();
            let miss: f64 = self.kernels.iter().map(|k| k.miss_share).sum();
            if (instr - 1.0).abs() > 0.05 || (miss - 1.0).abs() > 0.05 {
                return Err(HmError::Config(format!(
                    "{}: kernel shares must sum to 1 (instr {instr:.2}, miss {miss:.2})",
                    self.name
                )));
            }
            for k in &self.kernels {
                for (obj, _) in k.object_weights {
                    if !self.objects.iter().any(|o| o.name == *obj) {
                        return Err(HmError::Config(format!(
                            "{}: kernel {} references unknown object {obj}",
                            self.name, k.name
                        )));
                    }
                }
            }
        }
        for (i, o) in self.objects.iter().enumerate() {
            // Kernels and runners address objects by name.
            if self.objects[..i].iter().any(|p| p.name == o.name) {
                return Err(HmError::Config(format!(
                    "{}: duplicate object name {}",
                    self.name, o.name
                )));
            }
            if o.kind == ObjectKind::Dynamic && o.site.is_empty() {
                return Err(HmError::Config(format!(
                    "{}: dynamic object {} has no allocation site",
                    self.name, o.name
                )));
            }
            if o.min_size > o.size {
                return Err(HmError::Config(format!(
                    "{}: object {} min_size exceeds size",
                    self.name, o.name
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> AppSpec {
        AppSpec {
            name: "tiny",
            version: "1.0",
            language: "Rust",
            parallelism: "none",
            lines_of_code: 10,
            ranks: 1,
            threads_per_rank: 1,
            problem_size: "n/a",
            compilation_flags: "-O3",
            fom_name: "it/s",
            fom_work_per_iteration: 1.0,
            alloc_statement_counts: "1/0/1/0/0/0/0",
            iterations: 10,
            instructions_per_iteration: 1_000_000,
            misses_per_iteration: 10_000,
            hot_working_set: ByteSize::from_mib(64),
            small_allocs_per_second: 3.0,
            init_time: Nanos::from_millis(5.0),
            objects: vec![
                ObjectSpec::dynamic(
                    "hot",
                    ByteSize::from_mib(32),
                    &["main", "alloc_hot", "malloc"],
                    0.8,
                    0.0,
                ),
                ObjectSpec::static_var("table", ByteSize::from_mib(8), 0.2, 0.5),
            ],
            kernels: vec![KernelSpec {
                name: "solve",
                instruction_share: 1.0,
                miss_share: 1.0,
                object_weights: &[],
            }],
        }
    }

    #[test]
    fn validation_accepts_well_formed_specs() {
        tiny_spec().validate().unwrap();
    }

    #[test]
    fn validation_rejects_broken_specs() {
        let mut no_site = tiny_spec();
        no_site.objects[0].site = &[];
        assert!(no_site.validate().is_err());

        let mut bad_kernel = tiny_spec();
        bad_kernel.kernels[0].instruction_share = 0.3;
        assert!(bad_kernel.validate().is_err());

        let mut empty = tiny_spec();
        empty.objects.clear();
        assert!(empty.validate().is_err());
    }

    #[test]
    fn validation_rejects_duplicate_object_names() {
        let mut dup = tiny_spec();
        dup.objects[1].name = "hot";
        let err = dup.validate().unwrap_err();
        assert!(matches!(err, HmError::Config(_)), "{err}");
        assert!(
            err.to_string().contains("duplicate object name hot"),
            "{err}"
        );
    }

    #[test]
    fn miss_fractions_are_normalised() {
        let s = tiny_spec();
        assert!((s.miss_fraction("hot") - 0.8).abs() < 1e-12);
        assert!((s.miss_fraction("table") - 0.2).abs() < 1e-12);
        assert_eq!(s.miss_fraction("nope"), 0.0);
    }

    #[test]
    fn footprint_and_rates() {
        let s = tiny_spec();
        assert_eq!(s.footprint(), ByteSize::from_mib(40));
        assert_eq!(s.dynamic_objects().count(), 1);
        assert_eq!(s.traced_alloc_rate(Nanos::from_secs(1.0)), 0.0);
        let churn = ObjectSpec::dynamic("w", ByteSize::from_mib(1), &["main", "malloc"], 0.1, 0.0)
            .per_iteration(4);
        let mut s2 = tiny_spec();
        s2.objects.push(churn);
        assert!((s2.traced_alloc_rate(Nanos::from_secs(2.0)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn per_iteration_and_min_size_builders() {
        let o = ObjectSpec::dynamic("x", ByteSize::from_mib(8), &["main", "malloc"], 0.5, 0.1)
            .per_iteration(3)
            .with_min_size(ByteSize::from_mib(2));
        assert_eq!(
            o.timing,
            AllocTiming::PerIteration {
                allocs_per_iteration: 3
            }
        );
        assert_eq!(o.min_size, ByteSize::from_mib(2));
    }
}
