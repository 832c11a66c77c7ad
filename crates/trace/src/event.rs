//! Trace event model.

use hmsim_callstack::SiteKey;
use hmsim_common::{Address, ByteSize, Nanos, ObjectId};

/// Classification of the data object an event refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ObjectClass {
    /// Statically allocated variable.
    Static,
    /// Dynamically allocated object.
    Dynamic,
    /// Automatic (stack) storage.
    Stack,
}

/// An allocation (or static/stack definition) record.
#[derive(Clone, Debug, PartialEq)]
pub struct AllocationRecord {
    /// Event timestamp.
    pub time: Nanos,
    /// Object id assigned by the heap.
    pub object: ObjectId,
    /// Object classification.
    pub class: ObjectClass,
    /// Human-readable object name (static variable name or site label).
    pub name: String,
    /// Allocation call-stack (dynamic objects only).
    pub site: Option<SiteKey>,
    /// Start address of the object.
    pub address: Address,
    /// Requested size.
    pub size: ByteSize,
}

/// One PEBS sample of an LLC miss.
#[derive(Clone, Debug, PartialEq)]
pub struct SampleRecord {
    /// Sample timestamp.
    pub time: Nanos,
    /// The referenced address captured by PEBS.
    pub address: Address,
    /// The live object containing the address at sampling time, if any
    /// (Extrae resolves this by matching against registered ranges).
    pub object: Option<ObjectId>,
    /// Number of LLC misses represented by this sample (the sampling period).
    pub weight: u64,
    /// Access latency in cycles when the PMU provides it. KNL records carry
    /// none, so the simulator always writes `None`.
    pub latency_cycles: Option<u32>,
}

/// A periodic performance-counter snapshot (used by the Folding timeline).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CounterSnapshot {
    /// Snapshot timestamp.
    pub time: Nanos,
    /// Instructions retired since the previous snapshot.
    pub instructions: u64,
    /// LLC misses since the previous snapshot.
    pub llc_misses: u64,
}

/// One trace event.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// Memory allocation or static/stack definition.
    Alloc(AllocationRecord),
    /// Memory deallocation.
    Free {
        /// Event timestamp.
        time: Nanos,
        /// Object being freed.
        object: ObjectId,
        /// Its start address.
        address: Address,
    },
    /// PEBS sample.
    Sample(SampleRecord),
    /// Entry into a named phase (function/kernel/iteration).
    PhaseBegin {
        /// Event timestamp.
        time: Nanos,
        /// Phase name.
        name: String,
    },
    /// Exit from a named phase.
    PhaseEnd {
        /// Event timestamp.
        time: Nanos,
        /// Phase name.
        name: String,
    },
    /// Periodic counter snapshot.
    Counters(CounterSnapshot),
}

impl TraceEvent {
    /// The timestamp of the event.
    pub fn time(&self) -> Nanos {
        match self {
            TraceEvent::Alloc(a) => a.time,
            TraceEvent::Free { time, .. } => *time,
            TraceEvent::Sample(s) => s.time,
            TraceEvent::PhaseBegin { time, .. } => *time,
            TraceEvent::PhaseEnd { time, .. } => *time,
            TraceEvent::Counters(c) => c.time,
        }
    }

    /// Whether this is a sample event.
    pub fn is_sample(&self) -> bool {
        matches!(self, TraceEvent::Sample(_))
    }

    /// Whether this is an allocation event.
    pub fn is_alloc(&self) -> bool {
        matches!(self, TraceEvent::Alloc(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_time_accessor() {
        let e = TraceEvent::PhaseBegin {
            time: Nanos::from_millis(5.0),
            name: "iter".to_string(),
        };
        assert_eq!(e.time(), Nanos::from_millis(5.0));
        assert!(!e.is_sample());
        assert!(!e.is_alloc());

        let s = TraceEvent::Sample(SampleRecord {
            time: Nanos::from_millis(6.0),
            address: Address(0x100),
            object: None,
            weight: 37_589,
            latency_cycles: None,
        });
        assert!(s.is_sample());
    }
}
