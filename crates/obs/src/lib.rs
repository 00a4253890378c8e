//! Live observability for the timing-failure workspace: background
//! collectors that drain event rings *during* execution, windowed
//! throughput and per-stage latency tracks, a text dashboard, and sound
//! **online invariant monitors** that flag safety violations while the
//! chaos nemeses are still running.
//!
//! # The pipeline
//!
//! 1. Algorithms and backends emit [`tfr_telemetry`] events into
//!    per-process rings; causal [`tfr_telemetry::Span`]s connect a client
//!    operation to the batches, consensus decisions, and quorum phases it
//!    caused.
//! 2. A [`Collector`] thread polls [`tfr_telemetry::Tracer::drain_new`]
//!    — lane by lane, per-lane order preserved — and feeds every event to
//!    the [`MonitorBank`] and the stage/throughput tracks.
//! 3. [`Collector::snapshot`] serves live dashboards ([`dashboard`]);
//!    [`Collector::finish`] produces the final [`ObsReport`] with
//!    violations, stage percentiles, and ring-overflow counts.
//!
//! # Soundness
//!
//! A monitor flag is a **true violation** of the stated invariant; the
//! absence of a flag proves **nothing** (rings drop under overflow,
//! monitors bound their memory, sampling is partial). See [`monitor`]
//! for the per-monitor arguments.

pub mod collector;
pub mod dashboard;
pub mod monitor;

pub use collector::{Collector, CollectorConfig, LiveSnapshot, ObsReport, StageStats};
pub use monitor::{
    LogPrefixMonitor, MonitorBank, MutexMonitor, QuorumMonitor, RecoveryMonitor, Violation,
};
