//! Network latency simulation for the "remote" data sources.
//!
//! The paper's sources (GDB at Johns Hopkins, GenBank in Bethesda) were
//! reached over 1995 wide-area links, so per-request latency dominated many
//! queries and motivated the pushdown, caching, laziness, and concurrency
//! optimizations of Section 4. The simulators charge a configurable cost per
//! request and per shipped row. Costs are always accumulated on a *virtual
//! clock* (so unit tests stay instant) and can additionally be realized as
//! real `thread::sleep`s for wall-clock benchmarks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Latency model attached to a simulated server.
#[derive(Debug)]
pub struct LatencyModel {
    per_request_ns: u64,
    per_row_ns: u64,
    /// When true, costs are also realized as real sleeps.
    real_sleep: bool,
    virtual_ns: AtomicU64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::instant()
    }
}

impl LatencyModel {
    /// No latency at all (local in-memory source).
    pub fn instant() -> LatencyModel {
        LatencyModel {
            per_request_ns: 0,
            per_row_ns: 0,
            real_sleep: false,
            virtual_ns: AtomicU64::new(0),
        }
    }

    /// Virtual-only latency: accumulates on the virtual clock, never sleeps.
    pub fn virtual_only(per_request: Duration, per_row: Duration) -> LatencyModel {
        LatencyModel {
            per_request_ns: per_request.as_nanos() as u64,
            per_row_ns: per_row.as_nanos() as u64,
            real_sleep: false,
            virtual_ns: AtomicU64::new(0),
        }
    }

    /// Real latency: accumulates *and* sleeps, for wall-clock benchmarks.
    pub fn real(per_request: Duration, per_row: Duration) -> LatencyModel {
        LatencyModel {
            per_request_ns: per_request.as_nanos() as u64,
            per_row_ns: per_row.as_nanos() as u64,
            real_sleep: true,
            virtual_ns: AtomicU64::new(0),
        }
    }

    /// The configured per-round-trip cost (what [`charge_request`]
    /// charges). Benchmarks read this to compute expected lower bounds.
    ///
    /// [`charge_request`]: LatencyModel::charge_request
    pub fn per_request(&self) -> Duration {
        Duration::from_nanos(self.per_request_ns)
    }

    /// The configured per-row transfer cost (what [`charge_row`]
    /// charges) — the marginal latency the row-prefetch pipeline hides.
    ///
    /// [`charge_row`]: LatencyModel::charge_row
    pub fn per_row(&self) -> Duration {
        Duration::from_nanos(self.per_row_ns)
    }

    /// Whether charges are realized as real `thread::sleep`s (wall-clock
    /// latency) rather than only accumulated on the virtual clock.
    /// Drivers consult this when deciding to advertise row prefetch:
    /// pipelining hides *wall-clock* transfer latency, so a virtual-only
    /// model (an accounting tool for the optimizer experiments) should
    /// keep rows strictly lazy and its row counts undisturbed.
    pub fn is_real(&self) -> bool {
        self.real_sleep
    }

    /// The row-prefetch depth a driver should advertise for a configured
    /// depth of `depth`: unchanged when this model realizes a *real*
    /// per-row sleep, `0` otherwise. Prefetch pipelines wall-clock
    /// transfer latency; with instant or virtual-only rows there is
    /// nothing to hide, the buffer handoff would only cost context
    /// switches, and strict laziness (plus undisturbed row counts for
    /// the virtual-clock experiments) is worth more. Every remote driver
    /// routes its `Capabilities::prefetch_rows` through this so the
    /// gating rule cannot drift between drivers.
    pub fn effective_prefetch(&self, depth: usize) -> usize {
        if self.real_sleep && self.per_row_ns > 0 {
            depth
        } else {
            0
        }
    }

    /// Charge the fixed cost of one round-trip.
    pub fn charge_request(&self) {
        self.charge(self.per_request_ns);
    }

    /// Charge the marginal cost of shipping one row.
    pub fn charge_row(&self) {
        self.charge(self.per_row_ns);
    }

    fn charge(&self, ns: u64) {
        if ns == 0 {
            return;
        }
        self.virtual_ns.fetch_add(ns, Ordering::Relaxed);
        if self.real_sleep {
            std::thread::sleep(Duration::from_nanos(ns));
        }
    }

    /// Total latency charged so far, on the virtual clock.
    pub fn virtual_elapsed(&self) -> Duration {
        Duration::from_nanos(self.virtual_ns.load(Ordering::Relaxed))
    }

    /// Reset the virtual clock.
    pub fn reset(&self) {
        self.virtual_ns.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_latency_accumulates_without_sleeping() {
        let m = LatencyModel::virtual_only(Duration::from_millis(5), Duration::from_micros(10));
        let t0 = std::time::Instant::now();
        for _ in 0..100 {
            m.charge_request();
        }
        for _ in 0..1000 {
            m.charge_row();
        }
        assert!(t0.elapsed() < Duration::from_millis(100), "must not sleep");
        assert_eq!(
            m.virtual_elapsed(),
            Duration::from_millis(500) + Duration::from_millis(10)
        );
        m.reset();
        assert_eq!(m.virtual_elapsed(), Duration::ZERO);
    }

    #[test]
    fn instant_charges_nothing() {
        let m = LatencyModel::instant();
        m.charge_request();
        m.charge_row();
        assert_eq!(m.virtual_elapsed(), Duration::ZERO);
    }
}
