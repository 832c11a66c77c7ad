//! The period-driven sampler.

use crate::counter::{PebsEvent, ProcessorFamily};
use hmsim_common::{Address, DetRng, Nanos};

/// One raw PEBS record.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RawSample {
    /// Time the record was captured.
    pub time: Nanos,
    /// Referenced data address, the only payload of a KNL record.
    pub address: Address,
    /// Number of events represented by this sample (the period).
    pub weight: u64,
}

/// A PEBS sampler armed on one event with a fixed period.
#[derive(Clone, Debug)]
pub struct PebsSampler {
    period: u64,
    /// Events seen since the last sample fired.
    residual: u64,
    /// Total events observed.
    total_events: u64,
    /// Total samples emitted.
    total_samples: u64,
    rng: DetRng,
}

impl PebsSampler {
    /// Arm a sampler. `period` must be at least 1. The initial counter offset
    /// is randomised so that periodic access patterns do not alias with the
    /// sampling period (standard PMU practice). The family and event each
    /// have one value, so they select nothing.
    pub fn new(_family: ProcessorFamily, _event: PebsEvent, period: u64, mut rng: DetRng) -> Self {
        let period = period.max(1);
        let residual = if period > 1 {
            rng.uniform_range(0, period)
        } else {
            0
        };
        PebsSampler {
            period,
            residual,
            total_events: 0,
            total_samples: 0,
            rng,
        }
    }

    /// The sampling period.
    pub fn period(&self) -> u64 {
        self.period
    }

    /// Events observed so far.
    pub fn total_events(&self) -> u64 {
        self.total_events
    }

    /// Samples emitted so far.
    pub fn total_samples(&self) -> u64 {
        self.total_samples
    }

    /// Observe a single event at `time` referencing `address`; returns a
    /// sample if the period elapsed.
    pub fn observe(&mut self, time: Nanos, address: Address) -> Option<RawSample> {
        self.total_events += 1;
        self.residual += 1;
        if self.residual < self.period {
            return None;
        }
        self.residual = 0;
        self.total_samples += 1;
        Some(RawSample {
            time,
            address,
            weight: self.period,
        })
    }

    /// Observe `count` events spread uniformly over the interval
    /// `[start, start+duration)` and return the samples that fire, in time
    /// order. See [`observe_bulk_with`](Self::observe_bulk_with), which
    /// hands each sample to a callback instead of collecting them.
    pub fn observe_bulk<F>(
        &mut self,
        start: Nanos,
        duration: Nanos,
        count: u64,
        address_of: F,
    ) -> Vec<RawSample>
    where
        F: FnMut(&mut DetRng) -> Address,
    {
        let mut out = Vec::new();
        self.observe_bulk_with(start, duration, count, address_of, |s| out.push(s));
        out
    }

    /// Observe `count` events spread uniformly over the interval
    /// `[start, start+duration)` and pass each sample that fires to `emit`,
    /// in time order, so the caller can append it to a buffer it reuses.
    /// `address_of` draws each sample's address and receives the sampler's
    /// own random stream (which also jitters the timestamps), so a run's
    /// addresses and times are one deterministic sequence. This is the bulk
    /// path used by the analytical profiler, where individual misses are
    /// not enumerated.
    pub fn observe_bulk_with<F, E>(
        &mut self,
        start: Nanos,
        duration: Nanos,
        count: u64,
        mut address_of: F,
        mut emit: E,
    ) where
        F: FnMut(&mut DetRng) -> Address,
        E: FnMut(RawSample),
    {
        if count == 0 {
            return;
        }
        self.total_events += count;
        let available = self.residual + count;
        let fires = available / self.period;
        self.residual = available % self.period;
        let end = start + duration;
        for i in 0..fires {
            // Spread sample timestamps across the interval in event order,
            // with a little jitter.
            let frac = (i as f64 + self.rng.uniform() * 0.8 + 0.1) / (fires as f64).max(1.0);
            let mut time = start + duration * frac.clamp(0.0, 1.0);
            // The interval is half-open: a fraction that rounds up to 1.0
            // (the last fire of a huge batch) must not stamp the sample at
            // `start + duration` itself. Nudge it to the largest
            // representable instant strictly inside the interval.
            if time >= end {
                time = Nanos(f64::from_bits(end.nanos().to_bits().saturating_sub(1))).max(start);
            }
            let address = address_of(&mut self.rng);
            emit(RawSample {
                time,
                address,
                weight: self.period,
            });
            self.total_samples += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sampler(period: u64) -> PebsSampler {
        PebsSampler::new(
            ProcessorFamily::KnightsLanding,
            PebsEvent::LlcLoadMiss,
            period,
            DetRng::new(7),
        )
    }

    #[test]
    fn one_sample_every_period_events() {
        let mut s = sampler(10);
        let mut samples = 0;
        for i in 0..1000u64 {
            if s.observe(Nanos(i as f64), Address(0x1000 + i)).is_some() {
                samples += 1;
            }
        }
        assert_eq!(samples, 100);
        assert_eq!(s.total_samples(), 100);
        assert_eq!(s.total_events(), 1000);
    }

    #[test]
    fn period_one_samples_everything() {
        let mut s = sampler(1);
        for i in 0..50u64 {
            assert!(s.observe(Nanos(i as f64), Address(i)).is_some());
        }
    }

    #[test]
    fn bulk_observation_matches_expected_rate() {
        let mut s = sampler(37_589);
        let samples = s.observe_bulk(
            Nanos::ZERO,
            Nanos::from_secs(1.0),
            37_589 * 25 + 12,
            |rng| Address(rng.uniform_range(0x1000, 0x2000)),
        );
        assert!(
            samples.len() == 25 || samples.len() == 26,
            "got {}",
            samples.len()
        );
        assert!(samples.iter().all(|smp| smp.weight == 37_589));
        // Timestamps fall inside the half-open interval and are ordered.
        assert!(samples.windows(2).all(|w| w[0].time <= w[1].time));
        assert!(samples
            .iter()
            .all(|smp| smp.time >= Nanos::ZERO && smp.time < Nanos::from_secs(1.0)));
    }

    /// A jitter fraction that clamps to 1.0 must not stamp the sample at
    /// `start + duration`: the interval is documented half-open. One fire
    /// out of one event lands the raw fraction at `(0 + jitter) / 1 < 1`,
    /// so force the boundary by driving many fires and checking the last
    /// sample of every batch stays strictly inside.
    #[test]
    fn bulk_samples_never_touch_the_interval_end() {
        for seed in 0..32u64 {
            let mut s = PebsSampler::new(
                ProcessorFamily::KnightsLanding,
                PebsEvent::LlcLoadMiss,
                3,
                DetRng::new(seed),
            );
            let start = Nanos(5.0);
            let duration = Nanos(2.0);
            let samples = s.observe_bulk(start, duration, 3 * 1000, |_| Address(1));
            assert!(samples
                .iter()
                .all(|smp| smp.time >= start && smp.time < start + duration));
        }
        // Degenerate zero-length interval: the only representable choice is
        // `start` itself.
        let mut s = sampler(1);
        let samples = s.observe_bulk(Nanos(9.0), Nanos::ZERO, 4, |_| Address(1));
        assert_eq!(samples.len(), 4);
        assert!(samples.iter().all(|smp| smp.time == Nanos(9.0)));
    }

    /// Seeded property test: `observe` and `observe_bulk` emit the same
    /// number of samples for the same event stream, whatever the period and
    /// however the stream is fragmented into bulk chunks (the residual must
    /// carry over exactly).
    #[test]
    fn observe_and_observe_bulk_emit_identical_sample_counts() {
        let mut rng = DetRng::new(0x5eed_cafe);
        for case in 0..200u64 {
            let period = rng.uniform_range(1, 1_500);
            let total = rng.uniform_range(0, 12_000);
            // Both samplers must start from the same randomized counter
            // offset, so they share a construction seed.
            let seed = rng.next_u64();
            let mk = || {
                PebsSampler::new(
                    ProcessorFamily::KnightsLanding,
                    PebsEvent::LlcLoadMiss,
                    period,
                    DetRng::new(seed),
                )
            };

            let mut scalar = mk();
            let mut scalar_samples = 0u64;
            for i in 0..total {
                if scalar
                    .observe(Nanos(i as f64), Address(0x1000 + i))
                    .is_some()
                {
                    scalar_samples += 1;
                }
            }

            let mut bulk = mk();
            let mut bulk_samples = 0u64;
            let mut remaining = total;
            let mut t = 0.0f64;
            while remaining > 0 {
                let chunk = rng.uniform_range(1, remaining + 1).min(remaining);
                bulk_samples += bulk
                    .observe_bulk(Nanos(t), Nanos(chunk as f64), chunk, |r| {
                        Address(r.uniform_range(0x1000, 0x2000))
                    })
                    .len() as u64;
                t += chunk as f64;
                remaining -= chunk;
            }

            assert_eq!(
                scalar_samples, bulk_samples,
                "case {case}: period {period}, {total} events split randomly"
            );
            assert_eq!(scalar.total_samples(), bulk.total_samples(), "case {case}");
            assert_eq!(scalar.total_events(), bulk.total_events(), "case {case}");
        }
    }

    #[test]
    fn bulk_residual_carries_over() {
        let mut s = sampler(100);
        // 3 calls of 40 events: residual accumulates to fire on the 3rd.
        let a = s.observe_bulk(Nanos::ZERO, Nanos(1.0), 40, |_| Address(1));
        let b = s.observe_bulk(Nanos(1.0), Nanos(1.0), 40, |_| Address(1));
        let c = s.observe_bulk(Nanos(2.0), Nanos(1.0), 40, |_| Address(1));
        let total = a.len() + b.len() + c.len();
        // 120 events at period 100 yield one sample, or two if the random
        // initial counter offset was already ≥ 80.
        assert!((1..=2).contains(&total), "got {total}");
        assert_eq!(s.total_events(), 120);
    }

    #[test]
    fn empty_bulk_is_a_noop() {
        let mut s = sampler(10);
        assert!(s
            .observe_bulk(Nanos::ZERO, Nanos(1.0), 0, |_| Address(0))
            .is_empty());
        assert_eq!(s.total_events(), 0);
    }
}
