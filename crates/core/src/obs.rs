//! Shared observability primitives: the coarse counters every executor
//! in the workspace reports.
//!
//! `vrdf-sim`'s tick engine and `vrdf-sdf`'s state-space executor run
//! the same operational semantics, so their coarse activity counters
//! share one vocabulary: events popped off the queue, firings started
//! and finished, settling passes over the enable scan.  [`CoreCounters`]
//! is that vocabulary as a plain-old-data struct.  Every engine gates
//! its increments the same way (`telemetry` off means no increment ever
//! executes, so a disabled run is bit-identical to an uninstrumented
//! one).
//!
//! Engine-specific counters (timing-wheel routing, dirty-bitmap sweeps,
//! quantum-policy dispatches) extend this set downstream; see
//! `vrdf_sim::telemetry`.

/// Coarse monotonic activity counters common to every executor.
///
/// All fields are plain `u64` event counts; sums of counters from
/// independent runs commute, so merged totals are deterministic
/// regardless of worker scheduling (the same argument that makes the
/// fleet's sharded merge bit-identical).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoreCounters {
    /// Events popped off the event queue.
    pub events_popped: u64,
    /// Firings started (tokens consumed, space claimed).
    pub firings_started: u64,
    /// Firings finished (space freed, tokens produced).
    pub firings_finished: u64,
    /// Settling passes: rounds of the enable scan that made progress
    /// while settling one instant.
    pub settling_passes: u64,
}

impl CoreCounters {
    /// Adds another counter set into this one (field-wise saturating
    /// sum — counters never wrap a report into nonsense).
    pub fn merge(&mut self, other: &CoreCounters) {
        self.events_popped = self.events_popped.saturating_add(other.events_popped);
        self.firings_started = self.firings_started.saturating_add(other.firings_started);
        self.firings_finished = self.firings_finished.saturating_add(other.firings_finished);
        self.settling_passes = self.settling_passes.saturating_add(other.settling_passes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_increments_and_merge_sums() {
        let a = CoreCounters {
            events_popped: 2,
            firings_started: 1,
            firings_finished: 1,
            settling_passes: 1,
        };
        let mut b = CoreCounters {
            events_popped: 3,
            firings_started: 1,
            firings_finished: 1,
            settling_passes: 4,
        };
        b.merge(&a);
        assert_eq!(
            b,
            CoreCounters {
                events_popped: 5,
                firings_started: 2,
                firings_finished: 2,
                settling_passes: 5,
            }
        );
    }

    #[test]
    fn merge_saturates_instead_of_wrapping() {
        let mut a = CoreCounters {
            events_popped: u64::MAX,
            ..CoreCounters::default()
        };
        a.merge(&CoreCounters {
            events_popped: 1,
            ..CoreCounters::default()
        });
        assert_eq!(a.events_popped, u64::MAX);
    }
}
