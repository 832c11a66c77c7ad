//! Declarative, serializable simulation sessions.
//!
//! A [`Scenario`] is the complete, self-describing recipe for one simulation
//! run: which workload (an analytic application model, a trace-driven phased
//! workload, or a multi-rank bundle), which machine, how the MCDRAM is
//! exposed, which [`PlacementApproach`] decides data placement (with that
//! approach's configuration embedded as enum payload), the online-runtime
//! knobs, the node-level arbitration policy, optional profiling, and the
//! master seed. The [`Simulation`](crate::session::Simulation) facade turns
//! a validated scenario into a run without the caller wiring `RunConfig`,
//! routers and runtimes by hand — the mismatch class the old
//! router-factory-vs-`RunConfig` split allowed is gone, because everything
//! derives from one value.
//!
//! Scenarios serialize to and parse from a small JSON text format (`.scn`
//! files, read through the workspace-shared [`hmsim_common::json`] parser —
//! the same code the bench schema check uses). Serialization is canonical:
//! `parse → serialize` of a canonical document is byte-identical, which the
//! round-trip tests pin for every committed file under `scenarios/`.

use auto_hbwmalloc::PlacementApproach;
use hmem_advisor::SelectionStrategy;
use hmsim_common::json::{escape_str, parse_json, Json};
use hmsim_common::{ByteSize, HmError, HmResult, Nanos};
use hmsim_machine::{MachineConfig, MemoryMode};
use hmsim_profiler::ProfilerConfig;
use hmsim_runtime::{ArbiterPolicy, OnlineConfig, MAX_RANKS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

// ---------------------------------------------------------------------------
// Selectors
// ---------------------------------------------------------------------------

/// Which simulated machine a scenario runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MachineSelector {
    /// The paper's Intel Xeon Phi 7250 node ([`MachineConfig::knl_7250`]).
    Knl7250,
    /// The small unit-test machine ([`MachineConfig::tiny_test`]).
    TinyTest,
    /// The tiny machine with *loaded* memory latencies the trace-driven
    /// placement studies use ([`hmsim_runtime::harness::loaded_machine`]).
    LoadedTinyTest,
}

impl MachineSelector {
    fn key(self) -> &'static str {
        match self {
            MachineSelector::Knl7250 => "knl-7250",
            MachineSelector::TinyTest => "tiny-test",
            MachineSelector::LoadedTinyTest => "loaded-tiny-test",
        }
    }

    /// Build the machine configuration this selector names (flat mode; the
    /// scenario's memory mode is applied on top).
    pub fn config(self) -> MachineConfig {
        match self {
            MachineSelector::Knl7250 => MachineConfig::knl_7250(),
            MachineSelector::TinyTest => MachineConfig::tiny_test(),
            MachineSelector::LoadedTinyTest => hmsim_runtime::harness::loaded_machine(),
        }
    }
}

/// The workload a scenario simulates.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkloadSelector {
    /// One of the paper's eight analytic application models, by registry
    /// name (case-insensitive; see [`hmsim_apps::app_by_name`]).
    App {
        /// Application name (e.g. `"miniFE"`).
        name: String,
    },
    /// A registered trace-driven phased workload
    /// ([`hmsim_apps::phased_workload_by_name`]) at a per-array scale.
    Phased {
        /// Workload family name (e.g. `"rotating-triad"`).
        name: String,
        /// Per-array size.
        array_size: ByteSize,
    },
    /// A multi-rank trace workload bundle driven by the sharded runtime.
    MultiRank(MultiRankSelector),
}

/// The multi-rank workload families of [`hmsim_apps::MultiRankWorkload`].
#[derive(Clone, Debug, PartialEq)]
pub enum MultiRankSelector {
    /// Every rank runs its own copy of a registered phased workload.
    Replicated {
        /// Phased workload family name.
        workload: String,
        /// Per-array size of each rank's copy.
        array_size: ByteSize,
        /// Number of ranks.
        ranks: u32,
    },
    /// The rank-skew triad: rank 0's arrays are `skew`× larger.
    RankSkewTriad {
        /// Base per-array size (small ranks).
        array_size: ByteSize,
        /// Number of ranks.
        ranks: u32,
        /// Size multiplier of rank 0's arrays.
        skew: u32,
        /// Triad passes every rank runs.
        passes: u32,
    },
}

// ---------------------------------------------------------------------------
// Scenario
// ---------------------------------------------------------------------------

/// One declarative simulation session.
///
/// Build one with the [`Scenario::app`] / [`Scenario::phased`] /
/// [`Scenario::multirank`] constructors plus the `with_*` builders, or parse
/// one from its `.scn` text form with [`Scenario::parse`]. Run it through
/// [`Simulation::run`](crate::session::Simulation::run).
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Identifier (used in reports and as the conventional file stem).
    pub name: String,
    /// What to simulate.
    pub workload: WorkloadSelector,
    /// Which machine to simulate it on.
    pub machine: MachineSelector,
    /// How the MCDRAM is exposed ([`MemoryMode::Cache`] is required by — and
    /// requires — the [`PlacementApproach::CacheMode`] approach).
    pub memory_mode: MemoryMode,
    /// The placement approach, its configuration embedded as enum payload.
    pub approach: PlacementApproach,
    /// Fast-tier budget: per rank for [`WorkloadSelector::App`] and
    /// [`WorkloadSelector::Phased`], the whole node's pool for
    /// [`WorkloadSelector::MultiRank`]. Must be zero in cache mode.
    pub mcdram_budget: ByteSize,
    /// Main-loop iteration override for analytic runs (None = the spec's
    /// count). Ignored by trace-driven workloads, whose length is part of
    /// the workload itself.
    pub iterations: Option<u32>,
    /// Online-runtime knobs (None = defaults). Only meaningful — and only
    /// accepted by [`Scenario::validate`] — under the Online approach.
    pub online: Option<OnlineConfig>,
    /// How the node-level fast-tier pool is arbitrated between ranks
    /// (multi-rank workloads only; must stay the default partition
    /// otherwise).
    pub rank_policy: ArbiterPolicy,
    /// Attach the profiler (analytic workloads only). The Framework
    /// approach profiles its pipeline's stage-1 run with this configuration
    /// when set.
    pub profiling: Option<ProfilerConfig>,
    /// Master seed for the analytic runner (ASLR layouts, derived streams).
    pub seed: u64,
}

impl Scenario {
    /// A scenario running analytic application `app` under `approach` with
    /// the given per-rank MCDRAM budget. Choosing
    /// [`PlacementApproach::CacheMode`] automatically flips the machine's
    /// memory mode to cache and zeroes the budget — the two can no longer
    /// disagree.
    pub fn app(app: &str, approach: PlacementApproach, mcdram_budget: ByteSize) -> Scenario {
        let cache = approach == PlacementApproach::CacheMode;
        Scenario {
            name: format!(
                "{}-{}",
                app.to_ascii_lowercase().replace(' ', "-"),
                approach.kind().key()
            ),
            workload: WorkloadSelector::App {
                name: app.to_string(),
            },
            machine: MachineSelector::Knl7250,
            memory_mode: if cache {
                MemoryMode::Cache
            } else {
                MemoryMode::Flat
            },
            approach,
            mcdram_budget: if cache { ByteSize::ZERO } else { mcdram_budget },
            iterations: None,
            online: None,
            rank_policy: ArbiterPolicy::default(),
            profiling: None,
            seed: 0xC0FFEE,
        }
    }

    /// A scenario driving a registered phased trace workload through the
    /// online migration runtime on the loaded trace-study machine.
    pub fn phased(workload: &str, array_size: ByteSize, fast_budget: ByteSize) -> Scenario {
        Scenario {
            name: format!("{workload}-online"),
            workload: WorkloadSelector::Phased {
                name: workload.to_string(),
                array_size,
            },
            machine: MachineSelector::LoadedTinyTest,
            memory_mode: MemoryMode::Flat,
            approach: PlacementApproach::Online,
            mcdram_budget: fast_budget,
            iterations: None,
            online: None,
            rank_policy: ArbiterPolicy::default(),
            profiling: None,
            seed: 0xC0FFEE,
        }
    }

    /// A multi-rank scenario: R shards in lock-step epochs under
    /// `node_budget` of fast memory arbitrated by `policy`.
    pub fn multirank(
        selector: MultiRankSelector,
        policy: ArbiterPolicy,
        node_budget: ByteSize,
    ) -> Scenario {
        let family = match &selector {
            MultiRankSelector::Replicated { workload, .. } => format!("replicated-{workload}"),
            MultiRankSelector::RankSkewTriad { .. } => "rank-skew-triad".to_string(),
        };
        Scenario {
            name: format!("{family}-{policy}"),
            workload: WorkloadSelector::MultiRank(selector),
            machine: MachineSelector::LoadedTinyTest,
            memory_mode: MemoryMode::Flat,
            approach: PlacementApproach::Online,
            mcdram_budget: node_budget,
            iterations: None,
            online: None,
            rank_policy: policy,
            profiling: None,
            seed: 0xC0FFEE,
        }
    }

    /// Rename the scenario.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Override the iteration count (analytic workloads).
    pub fn with_iterations(mut self, iterations: u32) -> Self {
        self.iterations = Some(iterations);
        self
    }

    /// Override the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the online-runtime knobs (Online approach only).
    pub fn with_online(mut self, online: OnlineConfig) -> Self {
        self.online = Some(online);
        self
    }

    /// Choose the node-level arbitration policy (multi-rank workloads
    /// only).
    pub fn with_rank_policy(mut self, policy: ArbiterPolicy) -> Self {
        self.rank_policy = policy;
        self
    }

    /// Attach the profiler (analytic workloads).
    pub fn with_profiling(mut self, profiling: ProfilerConfig) -> Self {
        self.profiling = Some(profiling);
        self
    }

    // -----------------------------------------------------------------------
    // Validation
    // -----------------------------------------------------------------------

    /// Check the scenario for internal consistency, returning a typed
    /// [`HmError::Config`] naming the first problem.
    /// [`Simulation::run`](crate::session::Simulation::run) validates
    /// before dispatching, so a malformed `.scn` file fails with an
    /// actionable message instead of a silently-ignored knob.
    pub fn validate(&self) -> HmResult<()> {
        let fail = |msg: String| Err(HmError::Config(format!("scenario {:?}: {msg}", self.name)));
        if self.name.is_empty() {
            return Err(HmError::Config("scenario name must not be empty".into()));
        }

        // Approach ⇔ memory mode: cache mode is placement-transparent, so it
        // only makes sense (and is required) for the cache approach.
        let cache_approach = self.approach == PlacementApproach::CacheMode;
        let cache_mode = self.memory_mode == MemoryMode::Cache;
        if cache_approach != cache_mode {
            return fail(format!(
                "the cache approach and cache memory mode imply each other \
                 (approach {}, memory mode {:?})",
                self.approach, self.memory_mode
            ));
        }
        if self.memory_mode != MemoryMode::Flat && !self.mcdram_budget.is_zero() {
            return fail(format!(
                "mcdram_budget only applies to flat-mode allocations and would be \
                 silently ignored under {:?}; set it to 0",
                self.memory_mode
            ));
        }
        if matches!(self.approach, PlacementApproach::Framework { .. })
            && (self.machine != MachineSelector::Knl7250 || self.memory_mode != MemoryMode::Flat)
        {
            return fail(
                "the Framework approach runs the four-stage pipeline on the paper's \
                 flat-mode KNL node (machine knl-7250, memory_mode flat)"
                    .to_string(),
            );
        }
        if let MemoryMode::Hybrid {
            cache_fraction_percent,
        } = self.memory_mode
        {
            if cache_fraction_percent > 100 {
                return fail(format!(
                    "hybrid cache fraction {cache_fraction_percent}% exceeds 100%"
                ));
            }
        }
        if let PlacementApproach::AutoHbw { threshold } = &self.approach {
            if threshold.is_zero() {
                return fail("autohbw threshold must be positive".to_string());
            }
        }
        // Every f64 knob must stay finite: the canonical serializer writes
        // them as bare JSON numbers, and JSON has no NaN/inf — a non-finite
        // value would produce a .scn file that can never be parsed back.
        if let PlacementApproach::Framework { strategy } = &self.approach {
            validate_strategy(strategy, "approach.framework_strategy")
                .map_err(|e| HmError::Config(format!("scenario {:?}: {e}", self.name)))?;
        }

        // Knobs that only the Online approach reads must not be silently
        // ignored under any other approach.
        let online_approach = self.approach == PlacementApproach::Online;
        if self.online.is_some() && !online_approach {
            return fail(format!(
                "online knobs are set but the approach is {}; only the Online \
                 approach reads them",
                self.approach
            ));
        }
        // Arbitration between ranks only exists in the multi-rank runtime
        // (which itself runs online); every other workload plans against the
        // per-rank budget.
        if self.rank_policy != ArbiterPolicy::default()
            && !matches!(self.workload, WorkloadSelector::MultiRank(_))
        {
            return fail(format!(
                "rank_policy {} is set but the workload is not multi-rank; \
                 arbitration between ranks only applies to multi-rank workloads",
                self.rank_policy
            ));
        }
        if let Some(online) = &self.online {
            if !(0.0..=1.0).contains(&online.heat_decay) {
                return fail(format!(
                    "online.heat_decay {} outside [0, 1]",
                    online.heat_decay
                ));
            }
            if !online.heat_deadband.is_finite() || online.heat_deadband < 0.0 {
                return fail(format!(
                    "online.heat_deadband {} must be finite and non-negative",
                    online.heat_deadband
                ));
            }
            if online.epoch_accesses == 0 {
                return fail("online.epoch_accesses must be at least 1".to_string());
            }
            if online.pebs_period == 0 {
                return fail("online.pebs_period must be at least 1".to_string());
            }
            if online.migration_streams == 0 {
                return fail("online.migration_streams must be at least 1".to_string());
            }
            validate_strategy(&online.strategy, "online.strategy")
                .map_err(|e| HmError::Config(format!("scenario {:?}: {e}", self.name)))?;
        }
        if let Some(profiling) = &self.profiling {
            if !profiling.counter_snapshot_interval.nanos().is_finite() {
                return fail(format!(
                    "profiling.counter_snapshot_interval_ns {} must be finite",
                    profiling.counter_snapshot_interval.nanos()
                ));
            }
        }

        // Workload-specific checks; the trace-driven workloads share three.
        if !matches!(self.workload, WorkloadSelector::App { .. }) {
            if self.memory_mode != MemoryMode::Flat {
                return fail("trace-driven workloads run on flat-mode machines".to_string());
            }
            if self.profiling.is_some() {
                return fail(
                    "the Extrae-style profiler attaches to analytic workloads only".to_string(),
                );
            }
            if self.iterations.is_some() {
                return fail(
                    "trace workload length is part of the workload; iterations does not apply"
                        .to_string(),
                );
            }
        }
        match &self.workload {
            WorkloadSelector::App { name } => {
                hmsim_apps::app_by_name(name)?;
            }
            WorkloadSelector::Phased { name, array_size } => {
                lookup_phased(name, *array_size)?;
                if !matches!(
                    self.approach,
                    PlacementApproach::Online | PlacementApproach::DdrOnly
                ) {
                    return fail(format!(
                        "phased trace workloads run online or as the DDR reference, \
                         not under {}",
                        self.approach
                    ));
                }
            }
            WorkloadSelector::MultiRank(sel) => {
                if !online_approach {
                    return fail(format!(
                        "multi-rank workloads run under the Online approach, not {}",
                        self.approach
                    ));
                }
                // Checked here because the per-rank workloads are built
                // before the runtime could refuse the count.
                let (MultiRankSelector::Replicated { ranks, .. }
                | MultiRankSelector::RankSkewTriad { ranks, .. }) = sel;
                if *ranks > MAX_RANKS {
                    return fail(format!("{ranks} ranks exceed the limit of {MAX_RANKS}"));
                }
                match sel {
                    MultiRankSelector::Replicated {
                        workload,
                        array_size,
                        ranks,
                    } => {
                        lookup_phased(workload, *array_size)?;
                        if *ranks == 0 {
                            return fail("replicated ranks must be at least 1".to_string());
                        }
                    }
                    MultiRankSelector::RankSkewTriad {
                        array_size,
                        ranks,
                        skew,
                        passes,
                    } => {
                        if *ranks < 2 || *skew < 2 || *passes == 0 {
                            return fail(format!(
                                "rank-skew-triad needs ranks >= 2, skew >= 2, passes >= 1 \
                                 (got ranks {ranks}, skew {skew}, passes {passes})"
                            ));
                        }
                        // Every rank but rank 0 runs this triad; rank 0's
                        // is `skew` times larger.
                        let small_rank =
                            hmsim_apps::PhasedWorkload::steady_triad(*array_size, *passes);
                        if small_rank.total_accesses() == 0 {
                            return fail(format!(
                                "rank-skew array_size {array_size} holds no array element, \
                                 so ranks 1 and up would execute no accesses"
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    // -----------------------------------------------------------------------
    // Serialization
    // -----------------------------------------------------------------------

    /// Render the canonical `.scn` text form. `parse(serialize(s)) == s`
    /// for every scenario whose f64 knobs are finite (JSON has no NaN/inf;
    /// [`Scenario::validate`] rejects non-finite values), and serializing a
    /// parsed canonical document reproduces it byte for byte.
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"scenario\": \"{}\",", escape_str(&self.name));
        out.push_str("  \"workload\": ");
        out.push_str(&workload_json(&self.workload));
        out.push_str(",\n");
        let _ = writeln!(out, "  \"machine\": \"{}\",", self.machine.key());
        let _ = writeln!(
            out,
            "  \"memory_mode\": {},",
            memory_mode_json(self.memory_mode)
        );
        let _ = writeln!(out, "  \"approach\": {},", approach_json(&self.approach));
        let _ = writeln!(out, "  \"mcdram_budget\": \"{}\",", self.mcdram_budget);
        if let Some(iters) = self.iterations {
            let _ = writeln!(out, "  \"iterations\": {iters},");
        }
        if let Some(online) = &self.online {
            out.push_str("  \"online\": ");
            out.push_str(&online_json(online));
            out.push_str(",\n");
        }
        let _ = writeln!(out, "  \"rank_policy\": \"{}\",", self.rank_policy);
        if let Some(profiling) = &self.profiling {
            out.push_str("  \"profiling\": ");
            out.push_str(&profiling_json(profiling));
            out.push_str(",\n");
        }
        let _ = writeln!(out, "  \"seed\": \"{}\"", self.seed);
        out.push_str("}\n");
        out
    }

    /// Parse the `.scn` text form (strict: unknown or missing keys are
    /// errors; sizes accept both exact forms like `"96KiB"`/`"98304"` and
    /// the lenient human spellings [`ByteSize::parse`] knows).
    pub fn parse(text: &str) -> HmResult<Scenario> {
        let doc = parse_json(text).map_err(|e| HmError::parse(format!("scenario: {e}")))?;
        let mut map = into_object(doc, "scenario document")?;
        let scenario = Scenario {
            name: take_string(&mut map, "scenario")?,
            workload: parse_workload(take(&mut map, "workload")?)?,
            machine: parse_machine(&take_string(&mut map, "machine")?)?,
            memory_mode: parse_memory_mode(take(&mut map, "memory_mode")?)?,
            approach: parse_approach(take(&mut map, "approach")?)?,
            mcdram_budget: parse_size(&take_string(&mut map, "mcdram_budget")?)?,
            iterations: match map.remove("iterations") {
                None => None,
                Some(v) => Some(parse_u32(&v, "iterations")?),
            },
            online: match map.remove("online") {
                None => None,
                Some(v) => Some(parse_online(v)?),
            },
            rank_policy: parse_rank_policy(&take_string(&mut map, "rank_policy")?)?,
            profiling: match map.remove("profiling") {
                None => None,
                Some(v) => Some(parse_profiling(v)?),
            },
            seed: parse_u64(&take(&mut map, "seed")?, "seed")?,
        };
        reject_unknown(&map, "scenario")?;
        Ok(scenario)
    }

    /// Load and parse a `.scn` file.
    pub fn load(path: impl AsRef<Path>) -> HmResult<Scenario> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| HmError::Io(format!("{}: {e}", path.display())))?;
        Scenario::parse(&text).map_err(|e| HmError::parse(format!("{}: {e}", path.display())))
    }

    /// Serialize to a `.scn` file in canonical form.
    pub fn save(&self, path: impl AsRef<Path>) -> HmResult<()> {
        let path = path.as_ref();
        std::fs::write(path, self.serialize())
            .map_err(|e| HmError::Io(format!("{}: {e}", path.display())))
    }
}

/// A strategy's embedded f64 must be finite or the serialized form stops
/// being JSON.
fn validate_strategy(strategy: &SelectionStrategy, what: &str) -> HmResult<()> {
    if let SelectionStrategy::Misses { threshold_percent } = strategy {
        if !threshold_percent.is_finite() {
            return Err(HmError::Config(format!(
                "{what}: misses threshold {threshold_percent} must be finite"
            )));
        }
    }
    Ok(())
}

pub(crate) fn lookup_phased(
    name: &str,
    array_size: ByteSize,
) -> HmResult<hmsim_apps::PhasedWorkload> {
    let workload = hmsim_apps::phased_workload_by_name(name, array_size).ok_or_else(|| {
        let candidates: Vec<&str> = hmsim_apps::phased_workloads(ByteSize::from_kib(1))
            .iter()
            .map(|w| w.name)
            .collect();
        HmError::Config(format!(
            "unknown phased workload {name:?}; candidates: {}",
            candidates.join(", ")
        ))
    })?;
    match workload.checked_total_accesses() {
        Some(0) => Err(HmError::Config(format!(
            "phased workload {name:?} executes no accesses at array_size {array_size}"
        ))),
        None => Err(HmError::Config(format!(
            "phased workload {name:?} at array_size {array_size} executes more than \
             u64::MAX accesses"
        ))),
        Some(_) => Ok(workload),
    }
}

// ---------------------------------------------------------------------------
// JSON rendering helpers (canonical form)
// ---------------------------------------------------------------------------

fn workload_json(w: &WorkloadSelector) -> String {
    match w {
        WorkloadSelector::App { name } => {
            format!("{{\n    \"app\": \"{}\"\n  }}", escape_str(name))
        }
        WorkloadSelector::Phased { name, array_size } => format!(
            "{{\n    \"phased\": \"{}\",\n    \"array_size\": \"{array_size}\"\n  }}",
            escape_str(name)
        ),
        WorkloadSelector::MultiRank(MultiRankSelector::Replicated {
            workload,
            array_size,
            ranks,
        }) => format!(
            "{{\n    \"multirank\": \"replicated\",\n    \"workload\": \"{}\",\n    \
             \"array_size\": \"{array_size}\",\n    \"ranks\": {ranks}\n  }}",
            escape_str(workload)
        ),
        WorkloadSelector::MultiRank(MultiRankSelector::RankSkewTriad {
            array_size,
            ranks,
            skew,
            passes,
        }) => format!(
            "{{\n    \"multirank\": \"rank-skew-triad\",\n    \"array_size\": \
             \"{array_size}\",\n    \"ranks\": {ranks},\n    \"skew\": {skew},\n    \
             \"passes\": {passes}\n  }}"
        ),
    }
}

fn memory_mode_json(mode: MemoryMode) -> String {
    match mode {
        MemoryMode::Flat => "\"flat\"".to_string(),
        MemoryMode::Cache => "\"cache\"".to_string(),
        MemoryMode::Hybrid {
            cache_fraction_percent,
        } => format!("{{ \"hybrid_cache_percent\": {cache_fraction_percent} }}"),
    }
}

fn approach_json(approach: &PlacementApproach) -> String {
    match approach {
        PlacementApproach::DdrOnly
        | PlacementApproach::NumactlPreferred
        | PlacementApproach::CacheMode
        | PlacementApproach::Online => format!("\"{}\"", approach.kind().key()),
        PlacementApproach::AutoHbw { threshold } => {
            format!("{{ \"autohbw_threshold\": \"{threshold}\" }}")
        }
        PlacementApproach::Framework { strategy } => {
            format!("{{ \"framework_strategy\": {} }}", strategy_json(*strategy))
        }
    }
}

fn strategy_json(strategy: SelectionStrategy) -> String {
    match strategy {
        SelectionStrategy::Density => "\"density\"".to_string(),
        SelectionStrategy::ExactKnapsack => "\"exact-knapsack\"".to_string(),
        SelectionStrategy::Misses { threshold_percent } => {
            format!(
                "{{ \"misses_threshold_percent\": {} }}",
                fmt_f64(threshold_percent)
            )
        }
    }
}

fn online_json(cfg: &OnlineConfig) -> String {
    format!(
        "{{\n    \"epoch_accesses\": \"{}\",\n    \"max_moves_per_epoch\": {},\n    \
         \"min_residency_epochs\": \"{}\",\n    \"heat_deadband\": {},\n    \
         \"heat_decay\": {},\n    \"strategy\": {},\n    \"pebs_period\": \"{}\",\n    \
         \"migration_streams\": {},\n    \"seed\": \"{}\"\n  }}",
        cfg.epoch_accesses,
        cfg.max_moves_per_epoch,
        cfg.min_residency_epochs,
        fmt_f64(cfg.heat_deadband),
        fmt_f64(cfg.heat_decay),
        strategy_json(cfg.strategy),
        cfg.pebs_period,
        cfg.migration_streams,
        cfg.seed,
    )
}

fn profiling_json(cfg: &ProfilerConfig) -> String {
    format!(
        "{{\n    \"sampling_period\": \"{}\",\n    \"min_alloc_size\": \"{}\",\n    \
         \"counter_snapshot_interval_ns\": {},\n    \"seed\": \"{}\"\n  }}",
        cfg.sampling_period,
        cfg.min_alloc_size,
        fmt_f64(cfg.counter_snapshot_interval.nanos()),
        cfg.seed,
    )
}

/// Shortest decimal representation that parses back to the same f64 bits
/// (Rust's `{:?}` guarantee), kept JSON-compatible by rejecting non-finite
/// values upstream.
fn fmt_f64(v: f64) -> String {
    format!("{v:?}")
}

// ---------------------------------------------------------------------------
// JSON interpretation helpers (strict)
// ---------------------------------------------------------------------------

fn into_object(v: Json, what: &str) -> HmResult<BTreeMap<String, Json>> {
    match v {
        Json::Object(map) => Ok(map),
        other => Err(HmError::parse(format!(
            "{what} must be a JSON object, found {other:?}"
        ))),
    }
}

fn take(map: &mut BTreeMap<String, Json>, key: &str) -> HmResult<Json> {
    map.remove(key)
        .ok_or_else(|| HmError::parse(format!("missing required key \"{key}\"")))
}

fn take_string(map: &mut BTreeMap<String, Json>, key: &str) -> HmResult<String> {
    match take(map, key)? {
        Json::Str(s) => Ok(s),
        other => Err(HmError::parse(format!(
            "key \"{key}\" must be a string, found {other:?}"
        ))),
    }
}

fn reject_unknown(map: &BTreeMap<String, Json>, what: &str) -> HmResult<()> {
    if let Some(key) = map.keys().next() {
        return Err(HmError::parse(format!("{what}: unknown key \"{key}\"")));
    }
    Ok(())
}

/// Exact size parse: integer-digits + optional binary suffix go through u64
/// arithmetic (no f64 round-off even at u64::MAX), anything else falls back
/// to the lenient [`ByteSize::parse`].
fn parse_size(s: &str) -> HmResult<ByteSize> {
    let t = s.trim();
    let split = t.find(|c: char| !c.is_ascii_digit()).unwrap_or(t.len());
    let (digits, suffix) = t.split_at(split);
    let mult: Option<u64> = match suffix.trim().to_ascii_lowercase().as_str() {
        "" | "b" => Some(1),
        "k" | "kb" | "kib" => Some(1024),
        "m" | "mb" | "mib" => Some(1024 * 1024),
        "g" | "gb" | "gib" => Some(1024 * 1024 * 1024),
        "t" | "tb" | "tib" => Some(1024u64.pow(4)),
        _ => None,
    };
    if let (Ok(value), Some(mult)) = (digits.parse::<u64>(), mult) {
        return value
            .checked_mul(mult)
            .map(ByteSize::from_bytes)
            .ok_or_else(|| HmError::parse(format!("size {s:?} overflows u64 bytes")));
    }
    ByteSize::parse(t).map_err(|e| HmError::parse(format!("size {s:?}: {e}")))
}

fn parse_u64(v: &Json, key: &str) -> HmResult<u64> {
    match v {
        Json::Str(s) => s
            .trim()
            .parse::<u64>()
            .map_err(|e| HmError::parse(format!("key \"{key}\": {s:?} is not a u64: {e}"))),
        Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= 9_007_199_254_740_992.0 => {
            Ok(*n as u64)
        }
        other => Err(HmError::parse(format!(
            "key \"{key}\" must be an unsigned integer (as string for exactness), \
             found {other:?}"
        ))),
    }
}

fn parse_u32(v: &Json, key: &str) -> HmResult<u32> {
    let n = parse_u64(v, key)?;
    u32::try_from(n).map_err(|_| HmError::parse(format!("key \"{key}\": {n} exceeds u32")))
}

fn parse_f64(v: &Json, key: &str) -> HmResult<f64> {
    match v {
        Json::Num(n) => Ok(*n),
        other => Err(HmError::parse(format!(
            "key \"{key}\" must be a number, found {other:?}"
        ))),
    }
}

fn parse_workload(v: Json) -> HmResult<WorkloadSelector> {
    let mut map = into_object(v, "workload")?;
    let selector = if map.contains_key("app") {
        WorkloadSelector::App {
            name: take_string(&mut map, "app")?,
        }
    } else if map.contains_key("phased") {
        WorkloadSelector::Phased {
            name: take_string(&mut map, "phased")?,
            array_size: parse_size(&take_string(&mut map, "array_size")?)?,
        }
    } else if map.contains_key("multirank") {
        let family = take_string(&mut map, "multirank")?;
        match family.as_str() {
            "replicated" => WorkloadSelector::MultiRank(MultiRankSelector::Replicated {
                workload: take_string(&mut map, "workload")?,
                array_size: parse_size(&take_string(&mut map, "array_size")?)?,
                ranks: parse_u32(&take(&mut map, "ranks")?, "ranks")?,
            }),
            "rank-skew-triad" => WorkloadSelector::MultiRank(MultiRankSelector::RankSkewTriad {
                array_size: parse_size(&take_string(&mut map, "array_size")?)?,
                ranks: parse_u32(&take(&mut map, "ranks")?, "ranks")?,
                skew: parse_u32(&take(&mut map, "skew")?, "skew")?,
                passes: parse_u32(&take(&mut map, "passes")?, "passes")?,
            }),
            other => {
                return Err(HmError::parse(format!(
                    "unknown multirank family {other:?} (replicated, rank-skew-triad)"
                )))
            }
        }
    } else {
        return Err(HmError::parse(
            "workload must carry one of \"app\", \"phased\", \"multirank\"".to_string(),
        ));
    };
    reject_unknown(&map, "workload")?;
    Ok(selector)
}

fn parse_machine(s: &str) -> HmResult<MachineSelector> {
    match s {
        "knl-7250" => Ok(MachineSelector::Knl7250),
        "tiny-test" => Ok(MachineSelector::TinyTest),
        "loaded-tiny-test" => Ok(MachineSelector::LoadedTinyTest),
        other => Err(HmError::parse(format!(
            "unknown machine {other:?} (knl-7250, tiny-test, loaded-tiny-test)"
        ))),
    }
}

fn parse_memory_mode(v: Json) -> HmResult<MemoryMode> {
    match v {
        Json::Str(s) => match s.as_str() {
            "flat" => Ok(MemoryMode::Flat),
            "cache" => Ok(MemoryMode::Cache),
            other => Err(HmError::parse(format!(
                "unknown memory mode {other:?} (flat, cache, {{hybrid_cache_percent}})"
            ))),
        },
        Json::Object(mut map) => {
            let percent = parse_u32(
                &take(&mut map, "hybrid_cache_percent")?,
                "hybrid_cache_percent",
            )?;
            reject_unknown(&map, "memory_mode")?;
            let percent = u8::try_from(percent).map_err(|_| {
                HmError::parse(format!("hybrid_cache_percent {percent} exceeds u8"))
            })?;
            Ok(MemoryMode::Hybrid {
                cache_fraction_percent: percent,
            })
        }
        other => Err(HmError::parse(format!(
            "memory_mode must be a string or object, found {other:?}"
        ))),
    }
}

fn parse_approach(v: Json) -> HmResult<PlacementApproach> {
    match v {
        Json::Str(s) => match s.as_str() {
            "ddr" => Ok(PlacementApproach::DdrOnly),
            "numactl" => Ok(PlacementApproach::NumactlPreferred),
            "cache" => Ok(PlacementApproach::CacheMode),
            "online" => Ok(PlacementApproach::Online),
            other => Err(HmError::parse(format!(
                "unknown approach {other:?} (ddr, numactl, cache, online, \
                 {{autohbw_threshold}}, {{framework_strategy}})"
            ))),
        },
        Json::Object(mut map) => {
            let approach = if map.contains_key("autohbw_threshold") {
                PlacementApproach::AutoHbw {
                    threshold: parse_size(&take_string(&mut map, "autohbw_threshold")?)?,
                }
            } else if map.contains_key("framework_strategy") {
                PlacementApproach::Framework {
                    strategy: parse_strategy(take(&mut map, "framework_strategy")?)?,
                }
            } else {
                return Err(HmError::parse(
                    "approach object must carry \"autohbw_threshold\" or \
                     \"framework_strategy\""
                        .to_string(),
                ));
            };
            reject_unknown(&map, "approach")?;
            Ok(approach)
        }
        other => Err(HmError::parse(format!(
            "approach must be a string or object, found {other:?}"
        ))),
    }
}

fn parse_strategy(v: Json) -> HmResult<SelectionStrategy> {
    match v {
        Json::Str(s) => match s.as_str() {
            "density" => Ok(SelectionStrategy::Density),
            "exact-knapsack" => Ok(SelectionStrategy::ExactKnapsack),
            other => Err(HmError::parse(format!(
                "unknown strategy {other:?} (density, exact-knapsack, \
                 {{misses_threshold_percent}})"
            ))),
        },
        Json::Object(mut map) => {
            let threshold = parse_f64(
                &take(&mut map, "misses_threshold_percent")?,
                "misses_threshold_percent",
            )?;
            reject_unknown(&map, "strategy")?;
            Ok(SelectionStrategy::Misses {
                threshold_percent: threshold,
            })
        }
        other => Err(HmError::parse(format!(
            "strategy must be a string or object, found {other:?}"
        ))),
    }
}

fn parse_rank_policy(s: &str) -> HmResult<ArbiterPolicy> {
    match s {
        "fcfs" => Ok(ArbiterPolicy::Fcfs),
        "partition" => Ok(ArbiterPolicy::Partition),
        "global" => Ok(ArbiterPolicy::Global),
        other => Err(HmError::parse(format!(
            "unknown rank policy {other:?} (fcfs, partition, global)"
        ))),
    }
}

fn parse_online(v: Json) -> HmResult<OnlineConfig> {
    let mut map = into_object(v, "online")?;
    let cfg = OnlineConfig {
        epoch_accesses: parse_u64(&take(&mut map, "epoch_accesses")?, "epoch_accesses")?,
        max_moves_per_epoch: parse_u32(
            &take(&mut map, "max_moves_per_epoch")?,
            "max_moves_per_epoch",
        )?,
        min_residency_epochs: parse_u64(
            &take(&mut map, "min_residency_epochs")?,
            "min_residency_epochs",
        )?,
        heat_deadband: parse_f64(&take(&mut map, "heat_deadband")?, "heat_deadband")?,
        heat_decay: parse_f64(&take(&mut map, "heat_decay")?, "heat_decay")?,
        strategy: parse_strategy(take(&mut map, "strategy")?)?,
        pebs_period: parse_u64(&take(&mut map, "pebs_period")?, "pebs_period")?,
        migration_streams: parse_u32(&take(&mut map, "migration_streams")?, "migration_streams")?,
        seed: parse_u64(&take(&mut map, "seed")?, "seed")?,
    };
    reject_unknown(&map, "online")?;
    Ok(cfg)
}

fn parse_profiling(v: Json) -> HmResult<ProfilerConfig> {
    let mut map = into_object(v, "profiling")?;
    let cfg = ProfilerConfig {
        sampling_period: parse_u64(&take(&mut map, "sampling_period")?, "sampling_period")?,
        min_alloc_size: parse_size(&take_string(&mut map, "min_alloc_size")?)?,
        counter_snapshot_interval: Nanos(parse_f64(
            &take(&mut map, "counter_snapshot_interval_ns")?,
            "counter_snapshot_interval_ns",
        )?),
        seed: parse_u64(&take(&mut map, "seed")?, "seed")?,
    };
    reject_unknown(&map, "profiling")?;
    Ok(cfg)
}

// ---------------------------------------------------------------------------
// The committed scenario set
// ---------------------------------------------------------------------------

/// The curated scenarios committed under `scenarios/` at the workspace root
/// (one per approach on representative workloads plus the trace-driven and
/// multi-rank paths). The `run_scenario` example executes any of them; the
/// ignored `regenerate_committed_scenarios` test rewrites the files in
/// canonical form after a format change.
pub fn committed_scenarios() -> Vec<Scenario> {
    let budget = ByteSize::from_mib(256);
    let iters = 8;
    vec![
        Scenario::app("miniFE", PlacementApproach::DdrOnly, budget).with_iterations(iters),
        Scenario::app("miniFE", PlacementApproach::NumactlPreferred, budget).with_iterations(iters),
        Scenario::app("miniFE", PlacementApproach::autohbw_1m(), budget).with_iterations(iters),
        Scenario::app("miniFE", PlacementApproach::CacheMode, ByteSize::ZERO)
            .with_iterations(iters),
        Scenario::app(
            "miniFE",
            PlacementApproach::framework(SelectionStrategy::Misses {
                threshold_percent: 0.0,
            }),
            ByteSize::from_mib(128),
        )
        .with_iterations(iters),
        Scenario::app(
            "HPCG",
            PlacementApproach::framework(SelectionStrategy::Density),
            budget,
        )
        .with_iterations(iters),
        Scenario::app("SNAP", PlacementApproach::Online, budget).with_iterations(iters),
        Scenario::phased(
            "rotating-triad",
            ByteSize::from_kib(32),
            ByteSize::from_kib(96),
        )
        .with_online(OnlineConfig::default().with_epoch_accesses(8_192)),
        Scenario::multirank(
            MultiRankSelector::RankSkewTriad {
                array_size: ByteSize::from_kib(16),
                ranks: 4,
                skew: 4,
                passes: 10,
            },
            ArbiterPolicy::Global,
            ByteSize::from_kib(288),
        )
        .with_online(OnlineConfig::default().with_epoch_accesses(8_192)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_serialize_parse_round_trips() {
        for scenario in committed_scenarios() {
            let text = scenario.serialize();
            let back = Scenario::parse(&text).unwrap();
            assert_eq!(back, scenario, "value round-trip of {}", scenario.name);
            assert_eq!(
                back.serialize(),
                text,
                "byte round-trip of {}",
                scenario.name
            );
        }
    }

    #[test]
    fn committed_scenarios_validate_and_have_unique_names() {
        let scenarios = committed_scenarios();
        let mut names: Vec<&str> = scenarios.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), scenarios.len(), "duplicate scenario names");
        for s in &scenarios {
            s.validate().unwrap_or_else(|e| panic!("{}: {e}", s.name));
        }
    }

    #[test]
    fn sizes_parse_exactly_even_at_u64_extremes() {
        assert_eq!(parse_size("96KiB").unwrap(), ByteSize::from_kib(96));
        assert_eq!(parse_size("268435456").unwrap(), ByteSize::from_mib(256));
        let max = ByteSize::from_bytes(u64::MAX);
        assert_eq!(parse_size(&max.to_string()).unwrap(), max);
        let odd = ByteSize::from_bytes((1 << 60) + 3);
        assert_eq!(parse_size(&odd.to_string()).unwrap(), odd);
        assert!(parse_size("99999999999GiB").is_err(), "overflow detected");
        // Lenient human spellings still work.
        assert_eq!(parse_size("1.5K").unwrap(), ByteSize::from_bytes(1536));
    }

    #[test]
    fn cache_approach_and_mode_must_agree() {
        let mut s = Scenario::app("miniFE", PlacementApproach::CacheMode, ByteSize::ZERO);
        s.validate().unwrap();
        s.memory_mode = MemoryMode::Flat;
        assert!(s.validate().is_err(), "cache approach needs cache mode");

        let mut s = Scenario::app("miniFE", PlacementApproach::DdrOnly, ByteSize::from_mib(64));
        s.memory_mode = MemoryMode::Cache;
        assert!(s.validate().is_err(), "cache mode needs the cache approach");
    }

    #[test]
    fn silently_ignored_knobs_are_rejected() {
        let s = Scenario::app("miniFE", PlacementApproach::DdrOnly, ByteSize::from_mib(64))
            .with_online(OnlineConfig::default());
        let err = s.validate().unwrap_err();
        assert!(err.to_string().contains("online"), "{err}");

        let s = Scenario::app(
            "miniFE",
            PlacementApproach::NumactlPreferred,
            ByteSize::from_mib(64),
        )
        .with_rank_policy(ArbiterPolicy::Global);
        assert!(s.validate().is_err(), "rank policy without online approach");

        // Only the multi-rank runtime arbitrates between ranks: an online
        // analytic app or a phased workload would ignore the policy.
        let app_online = Scenario::app("miniFE", PlacementApproach::Online, ByteSize::from_mib(64))
            .with_rank_policy(ArbiterPolicy::Global);
        let phased_online = Scenario::phased(
            "rotating-triad",
            ByteSize::from_kib(64),
            ByteSize::from_kib(256),
        )
        .with_rank_policy(ArbiterPolicy::Fcfs);
        for s in [app_online, phased_online] {
            let err = s.validate().unwrap_err();
            assert!(err.to_string().contains("multi-rank"), "{}: {err}", s.name);
            s.with_rank_policy(ArbiterPolicy::Partition)
                .validate()
                .unwrap();
        }
    }

    /// Knobs the runtime would silently clamp to 1, and array sizes that
    /// hold no element (a run of zero accesses reporting `fom 0.00`), are
    /// refused instead of run.
    #[test]
    fn clamped_knobs_and_empty_workloads_are_rejected() {
        let base = committed_scenarios()
            .into_iter()
            .find(|s| s.name == "rank-skew-triad-global")
            .expect("committed rank-skew scenario");
        base.validate().unwrap();
        let rejects = |s: &Scenario, what: &str| {
            let err = s.validate().unwrap_err();
            assert!(
                matches!(&err, HmError::Config(msg) if msg.contains(what)),
                "{what}: {err}"
            );
        };

        let mut s = base.clone();
        s.online.as_mut().unwrap().pebs_period = 0;
        rejects(&s, "pebs_period");
        let mut s = base.clone();
        s.online.as_mut().unwrap().migration_streams = 0;
        rejects(&s, "migration_streams");

        let mut s = base.clone();
        let WorkloadSelector::MultiRank(MultiRankSelector::RankSkewTriad { ranks, .. }) =
            &mut s.workload
        else {
            unreachable!("rank-skew scenario");
        };
        *ranks = 4_000_000_000;
        rejects(&s, "limit of 1024");
        let too_many = Scenario::multirank(
            MultiRankSelector::Replicated {
                workload: "steady-triad".to_string(),
                array_size: ByteSize::from_kib(16),
                ranks: MAX_RANKS + 1,
            },
            ArbiterPolicy::Partition,
            ByteSize::from_kib(96),
        );
        rejects(&too_many, "limit of 1024");

        let mut s = base.clone();
        let WorkloadSelector::MultiRank(MultiRankSelector::RankSkewTriad { array_size, .. }) =
            &mut s.workload
        else {
            unreachable!("rank-skew scenario");
        };
        *array_size = ByteSize::from_bytes(1);
        rejects(&s, "no accesses");
        let replicated = Scenario::multirank(
            MultiRankSelector::Replicated {
                workload: "steady-triad".to_string(),
                array_size: ByteSize::from_bytes(1),
                ranks: 2,
            },
            ArbiterPolicy::Partition,
            ByteSize::from_kib(96),
        );
        rejects(&replicated, "no accesses");
        let phased = Scenario::phased(
            "rotating-triad",
            ByteSize::from_bytes(7),
            ByteSize::from_kib(96),
        );
        rejects(&phased, "no accesses");
    }

    #[test]
    fn non_finite_f64_knobs_are_rejected_before_they_can_poison_a_file() {
        let s = Scenario::app(
            "miniFE",
            PlacementApproach::framework(SelectionStrategy::Misses {
                threshold_percent: f64::NAN,
            }),
            ByteSize::from_mib(64),
        );
        let err = s.validate().unwrap_err();
        assert!(err.to_string().contains("finite"), "{err}");

        let online = OnlineConfig {
            strategy: SelectionStrategy::Misses {
                threshold_percent: f64::INFINITY,
            },
            ..OnlineConfig::default()
        };
        let s = Scenario::app("miniFE", PlacementApproach::Online, ByteSize::from_mib(64))
            .with_online(online);
        assert!(s.validate().is_err(), "infinite strategy threshold");

        let profiling = ProfilerConfig {
            counter_snapshot_interval: Nanos(f64::NAN),
            ..ProfilerConfig::default()
        };
        let s = Scenario::app("miniFE", PlacementApproach::DdrOnly, ByteSize::from_mib(64))
            .with_profiling(profiling);
        assert!(s.validate().is_err(), "NaN snapshot interval");
    }

    #[test]
    fn unknown_app_error_is_actionable() {
        let s = Scenario::app(
            "does-not-exist",
            PlacementApproach::DdrOnly,
            ByteSize::from_mib(64),
        );
        let err = s.validate().unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("candidates") && msg.contains("miniFE"),
            "{msg}"
        );
    }

    #[test]
    fn parser_rejects_unknown_and_missing_keys() {
        let base = Scenario::app("miniFE", PlacementApproach::DdrOnly, ByteSize::from_mib(64));
        let text = base.serialize();
        let with_extra = text.replacen("\"scenario\"", "\"surprise\": 1,\n  \"scenario\"", 1);
        let err = Scenario::parse(&with_extra).unwrap_err();
        assert!(err.to_string().contains("surprise"), "{err}");

        let without_seed = text.replace("  \"seed\": \"12648430\"\n", "  \"seed2\": \"1\"\n");
        assert!(Scenario::parse(&without_seed).is_err());
    }

    /// Maintenance helper, not a check: rewrites the committed
    /// `scenarios/*.scn` files in canonical form after a format change.
    /// Run with `cargo test -p hmem-core --lib -- --ignored regenerate`.
    #[test]
    #[ignore = "maintenance helper; rewrites scenarios/ at the workspace root"]
    fn regenerate_committed_scenarios() {
        let dir = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios"));
        std::fs::create_dir_all(dir).unwrap();
        for s in committed_scenarios() {
            s.save(dir.join(format!("{}.scn", s.name))).unwrap();
        }
    }

    #[test]
    fn hostile_names_survive_serialization() {
        let hostile = "quote\" back\\slash\nnew\tline é✓ 名前";
        let s = Scenario::app("miniFE", PlacementApproach::DdrOnly, ByteSize::from_mib(64))
            .with_name(hostile);
        let back = Scenario::parse(&s.serialize()).unwrap();
        assert_eq!(back.name, hostile);
        assert_eq!(back, s);
    }
}
