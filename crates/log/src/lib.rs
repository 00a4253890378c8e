//! Multi-height replicated log: the workspace's one batched
//! state-machine-replication engine, over timing-resilient consensus.
//!
//! `tfr-core`'s universal construction (§1.4) commits one announced op
//! per consensus slot. This crate batches and pipelines it: a
//! **height-indexed sequence** of [`MultiConsensus`] instances over one
//! shared [`RegisterSpace`], where workers announce ops in registers,
//! height `h` commits the batch record of one proposer — every announced
//! op it found, scanning lanes from `h mod n` (helping), up to
//! `max_batch` — and every applier applies committed records in strict
//! height order. A height decides an 8-bit proposer pid, so one
//! decision costs 8 Algorithm 1 instances however many ops it commits.
//! The sharded object service (`tfr-service`) runs every shard on it.
//!
//! [`MultiConsensus`]: tfr_core::universal::MultiConsensus
//! [`RegisterSpace`]: tfr_registers::space::RegisterSpace
//!
//! Helping keeps the log wait-free: a worker that stops driving still
//! has its announced ops committed by whoever proposes next. The other
//! interesting part is **commit pipelining**: deciding height `h + 1`
//! while `h`'s decision is still propagating to appliers. All of that
//! logic is a pure, I/O-free [`machine::HeightStateMachine`] (the
//! Malachite-style split of decision logic from substrate effects): the
//! machine bounds the decision frontier to at most `window` heights past
//! the cluster's applied floor, and the drivers in [`log`] merely execute
//! its [`machine::Effect`]s against the registers. `window = 1` is the
//! sequential-heights baseline; `window > 1` overlaps consensus on the
//! next height with the propagation of the previous one.
//!
//! Pipelining is safe because *application* stays strictly sequential:
//! a height's decision is a one-shot consensus outcome, immutable once
//! written, so once any replica applies height `h` every other replica
//! will apply the same entry at `h` — running the frontier ahead can
//! reorder *deciding*, never *applying*. The [`audit::LogAudit`]
//! mechanizes that claim: every applier lane must be an in-order prefix
//! of the one register-reconstructed canonical sequence, compared by a
//! chained order-sensitive digest — and, at quiescence, every announced
//! op must be committed ([`audit::LogAudit::complete`]).
//!
//! Layers:
//!
//! * [`machine`] — the pure height state machine (window enforcement,
//!   pending-op accounting, strict in-order application).
//! * [`log`] — the register substrate ([`ReplicatedLog`]) and the
//!   impure drivers: proposing [`LogWorker`]s and passive
//!   [`LogReplica`]s. Runs unchanged over native atomics or a `tfr-net`
//!   quorum space.
//! * [`objects`] — one-shot [`Renaming`] in op-encoded [`Sequential`]
//!   form, joining `Counter` and `FifoQueue` as replicated objects.
//! * [`audit`] — applied-prefix convergence and lost-op checking.
//! * [`mutants`] — intentionally broken appliers
//!   ([`ReorderingApplier`]) proving the audit and the online prefix
//!   monitor actually reject out-of-order application.
//!
//! [`Sequential`]: tfr_core::universal::Sequential
//!
//! # Example
//!
//! A replicated counter: announced ops commit through per-height
//! consensus, a passive replica converges to the same applied prefix.
//!
//! ```
//! use std::sync::Arc;
//! use std::time::Duration;
//! use tfr_core::universal::Counter;
//! use tfr_log::{LogConfig, LogReplica, LogWorker, ReplicatedLog};
//! use tfr_registers::ProcId;
//!
//! let cfg = LogConfig::new(1, Duration::from_micros(10));
//! let log = Arc::new(ReplicatedLog::new(Counter, cfg));
//! let mut worker = LogWorker::new(Arc::clone(&log), ProcId(0));
//! let mut replica = LogReplica::new(Arc::clone(&log), 0);
//!
//! worker.enqueue(&[5, 7]);
//! worker.drive(); // commit through consensus, apply in height order
//! replica.poll();
//! assert_eq!(*replica.state(), 12);
//! assert!(log.audit(&[worker.applied_log(), replica.applied_log()]).complete());
//! ```

pub mod audit;
pub mod load;
pub mod log;
pub mod machine;
pub mod mutants;
pub mod objects;
pub mod spec_form;

pub use audit::{chain_digest, AppliedEntry, LogAudit};
pub use load::{run_smr, SmrConfig, SmrReport};
pub use log::{LogConfig, LogReplica, LogWorker, ReplicatedLog};
pub use machine::{Effect, HeightStateMachine};
pub use mutants::ReorderingApplier;
pub use objects::Renaming;
pub use spec_form::LogAutomaton;
