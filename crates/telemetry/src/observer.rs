//! The bridge from the chaos layer's injection points to the tracer: the
//! same named points that faults aim at double as trace points.
//!
//! Install with [`tfr_registers::chaos::install_point_observer`]; every
//! point visit by a `chaos::run_as`-registered thread becomes a
//! [`EventKind::PointHit`] and every fired fault a
//! [`EventKind::FaultFired`]. Callbacks run on the visiting thread, so
//! they respect the tracer's per-process single-writer discipline.

use crate::event::EventKind;
use crate::ring::Tracer;
use std::sync::Arc;
use std::time::Duration;
use tfr_registers::chaos::PointObserver;
use tfr_registers::ProcId;

/// A [`PointObserver`] that records injection-point traffic into a
/// [`Tracer`].
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use tfr_registers::chaos::{self, install_point_observer};
/// use tfr_registers::ProcId;
/// use tfr_telemetry::{ChaosTraceObserver, EventKind, Tracer};
///
/// let tracer = Arc::new(Tracer::new(1));
/// let guard = install_point_observer(Arc::new(ChaosTraceObserver::new(Arc::clone(&tracer))));
/// chaos::run_as(ProcId(0), || chaos::point(chaos::points::DELAY));
/// drop(guard);
///
/// let events = tracer.events();
/// assert!(events
///     .iter()
///     .any(|e| matches!(e.kind, EventKind::PointHit { point: "delay.pre" })));
/// ```
pub struct ChaosTraceObserver {
    tracer: Arc<Tracer>,
    record_hits: bool,
}

impl ChaosTraceObserver {
    /// An observer recording both point visits and fired faults.
    pub fn new(tracer: Arc<Tracer>) -> ChaosTraceObserver {
        ChaosTraceObserver {
            tracer,
            record_hits: true,
        }
    }

    /// An observer recording only fired faults — for long runs where the
    /// per-visit [`EventKind::PointHit`] stream would flood the rings.
    pub fn faults_only(tracer: Arc<Tracer>) -> ChaosTraceObserver {
        ChaosTraceObserver {
            tracer,
            record_hits: false,
        }
    }
}

impl PointObserver for ChaosTraceObserver {
    fn point_hit(&self, pid: ProcId, point: &'static str) {
        if self.record_hits {
            self.tracer.emit(pid, EventKind::PointHit { point });
        }
    }

    fn fault_fired(&self, pid: ProcId, point: &'static str, stalled: Duration, crashed: bool) {
        // The callback runs when the fault finishes (stall end / just
        // before a crash unwind), so "now" is the convergence-clock start.
        self.tracer.emit(
            pid,
            EventKind::FaultFired {
                point,
                stall_ns: stalled.as_nanos() as u64,
                crashed,
            },
        );
    }

    fn crash_recover_fired(&self, pid: ProcId, point: &'static str, down_for: Duration) {
        // Opens the down-until-recovered span; the recovery nemesis emits
        // the matching [`EventKind::Recovered`] when the next incarnation
        // finishes its recovery section.
        self.tracer.emit(
            pid,
            EventKind::CrashRecover {
                point,
                down_ns: down_for.as_nanos() as u64,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use std::time::Duration;
    use tfr_registers::chaos::{self, install_point_observer, ChaosSession, Fault, FaultAction};

    #[test]
    fn faults_only_observer_skips_hits() {
        // The chaos session both serializes this test against other chaos
        // users and supplies a fault to fire.
        let _session = ChaosSession::install(&[Fault {
            pid: ProcId(0),
            point: chaos::points::DELAY,
            nth: 1,
            action: FaultAction::Stall(Duration::from_micros(100)),
        }]);
        let tracer = Arc::new(Tracer::new(1));
        let guard = install_point_observer(Arc::new(ChaosTraceObserver::faults_only(Arc::clone(
            &tracer,
        ))));
        chaos::run_as(ProcId(0), || {
            chaos::point(chaos::points::DELAY);
            chaos::point(chaos::points::DELAY);
        });
        drop(guard);
        let events = tracer.events();
        assert!(!events
            .iter()
            .any(|e| matches!(e.kind, EventKind::PointHit { .. })));
        let fired: Vec<_> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::FaultFired {
                    point,
                    stall_ns,
                    crashed,
                } => Some((point, stall_ns, crashed)),
                _ => None,
            })
            .collect();
        assert_eq!(fired, vec![("delay.pre", 100_000, false)]);
    }
}
