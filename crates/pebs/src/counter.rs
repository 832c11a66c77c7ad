//! The PEBS event and processor family the sampler models.

/// The precise event the framework samples.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PebsEvent {
    /// LLC (L2 on KNL) load misses — the event the paper's framework uses to
    /// approximate per-object access cost.
    LlcLoadMiss,
}

/// The processor family whose PEBS records the sampler reproduces. On KNL a
/// record carries only the referenced data address (paper §III, step 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProcessorFamily {
    /// Intel Xeon Phi (Knights Landing).
    KnightsLanding,
}
