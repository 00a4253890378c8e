//! # tfr — computing in the presence of timing failures
//!
//! A Rust implementation of the algorithms, model, and experiments of
//! **Gadi Taubenfeld, "Computing in the Presence of Timing Failures",
//! ICDCS 2006**: consensus and mutual exclusion from atomic registers that
//! keep their safety properties under arbitrary *timing failures* and
//! automatically resume efficient, live operation once timing constraints
//! hold again.
//!
//! This crate is a facade over the workspace:
//!
//! * [`core`] — the paper's algorithms (time-resilient consensus, Fischer's
//!   lock, the time-resilient mutex) plus derived wait-free objects and the
//!   adaptive `optimistic(Δ)` machinery.
//! * [`registers`] — the shared-memory substrate (ids, virtual time,
//!   automaton spec model, register banks, unbounded atomic arrays).
//! * [`sim`] — a deterministic discrete-event simulator of the
//!   timing-based model (timing-failure and crash injection, metrics).
//! * [`modelcheck`] — a bounded exhaustive interleaving explorer used to
//!   verify the safety theorems.
//! * [`asynclock`] — asynchronous mutual exclusion algorithms (Lamport
//!   fast, bakery variants, tournament) used as the inner lock `A` of
//!   Algorithm 3 and as baselines.
//! * [`baselines`] — consensus baselines (time-adaptive, unknown-Δ).
//! * [`chaos`] — the native chaos harness: seeded fault schedules injected
//!   into the real-thread stack (stalls and crash-stops at named points),
//!   deterministic replay, schedule shrinking, and native §1.3 resilience
//!   reports.
//! * [`linearize`] — the linearizability layer: a lock-free concurrent
//!   history recorder, a Wing–Gong/Lowe checker with memoization and
//!   per-object partitioning, sequential models for all derived objects
//!   and for atomic registers, chaos-scheduled native recording drivers,
//!   simulator-trace conversion, and seeded mutants proving the oracle
//!   rejects broken objects.
//! * [`net`] — the third execution stack: a deterministic, seedable
//!   in-process message-passing network hosting ABD-style majority-quorum
//!   replica servers, exposing emulated atomic registers through the same
//!   `RegisterSpace` trait native atomics implement — the paper's
//!   algorithms run over it unchanged, under partitions, message drops,
//!   and delay spikes.
//! * [`service`] — the scale layer: a sharded wait-free object service
//!   with every shard a [`log`] replicated log (seeded key → shard
//!   routing, helping batch records so one consensus decision commits
//!   every announced op it finds), plus a load harness with under-load
//!   linearizability sampling and seeded combiner mutants proving the
//!   sampler's teeth.
//! * [`telemetry`] — the unified telemetry layer: lock-free per-process
//!   event tracing with zero-cost-when-disabled hooks across both
//!   execution stacks, causal spans propagated through message envelopes
//!   and batch records, a metrics registry (counters, log-bucketed
//!   histograms), and Chrome-trace/Perfetto JSON (with cross-node flow
//!   links) plus machine-readable summary export with the measured §1.3
//!   convergence time.
//! * [`obs`] — live observability: a background collector draining event
//!   rings *during* execution (windowed throughput, per-stage latency
//!   percentiles, Δ and fault tracks, a text dashboard), and sound
//!   online invariant monitors — mutual-exclusion intrusion, quorum
//!   version regression, recovery-incarnation monotonicity, replicated
//!   log prefix order — that flag violations while chaos nemeses run.
//! * [`log`] — the replication layer and the one batched SMR engine: a
//!   multi-height replicated log (ops announced in registers, each
//!   height one timing-resilient consensus instance committing a
//!   helping batch record) with commit pipelining behind a pure height
//!   state machine, log-driven state-machine
//!   replication of the derived objects (counter, queue, renaming),
//!   chained prefix digests with a cross-lane audit, a recoverable
//!   worker incarnation model, and seeded reordering mutants proving
//!   the audit and the online prefix monitor both have teeth.
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use std::time::Duration;
//! use tfr::core::consensus::NativeConsensus;
//!
//! // Wait-free binary consensus among 4 threads, resilient to timing
//! // failures: safety never depends on the Δ estimate being right.
//! let consensus = Arc::new(NativeConsensus::new(Duration::from_micros(50)));
//! let handles: Vec<_> = (0..4)
//!     .map(|i| {
//!         let c = Arc::clone(&consensus);
//!         std::thread::spawn(move || c.propose(i % 2 == 1))
//!     })
//!     .collect();
//! let decisions: Vec<bool> = handles.into_iter().map(|h| h.join().unwrap()).collect();
//! assert!(decisions.windows(2).all(|w| w[0] == w[1]), "agreement");
//! ```

pub use tfr_asynclock as asynclock;
pub use tfr_baselines as baselines;
pub use tfr_chaos as chaos;
pub use tfr_core as core;
pub use tfr_linearize as linearize;
pub use tfr_log as log;
pub use tfr_modelcheck as modelcheck;
pub use tfr_net as net;
pub use tfr_obs as obs;
pub use tfr_registers as registers;
pub use tfr_service as service;
pub use tfr_sim as sim;
pub use tfr_telemetry as telemetry;
