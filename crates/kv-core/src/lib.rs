//! kv-core — the system-agnostic KV substrate shared by NICEKV and NOOB.
//!
//! The two systems in this workspace differ in *routing policy*: NICE
//! addresses replicas through switch-resident virtual rings and
//! multicast; the NOOB baseline runs full-membership end-host
//! replication over unicast. Everything else — the object store and
//! persistent log, the 2PC and direct replication state machines, §4.4
//! lock resolution, the client retry engine, the counters — is protocol,
//! not policy, and lives here exactly once.
//!
//! Layering (enforced by `cargo xtask lint` rule `layering`):
//!
//! ```text
//!   nicekv, noob        policy adapters: wire formats, routing, server
//!        │                 timers (no store mutation, no lock tables,
//!        │                 no client timers)
//!        ▼
//!   kv-core             protocol: ObjectStore, TwoPcEngine, ClientCore
//!        │                 (the client loop and its issue/retry/idle-poll
//!        │                 timers; no dependency on nice-flow / nice-ring)
//!        ▼
//!   node-rt             host boundary: NodeIo, Time, packets
//!                         (hosted by the simulator or the UDP runtime)
//! ```
//!
//! The engine is transport-free: transitions return [`Effect`]s the
//! adapter turns into wire messages and timers, so the systems cannot
//! drift apart on protocol logic.

#![warn(missing_docs)]

mod chaos;
mod client;
pub mod codec;
mod engine;
mod error;
pub mod explore;
mod history;
mod spec;
mod store;
mod telemetry;
mod types;
mod wal;

pub use chaos::{AdminEvent, ChaosPlan, ChaosSpec, IsolationEvent};
pub use client::{Attempt, ClientCore, ClientOp, KvClient, OpRecord, RetryPolicy};
pub use engine::{Counters, Effect, EngineCfg, EngineRole, Group, LockResolution, TwoPcEngine};
pub use error::KvError;
pub use explore::{
    conflict_dependence, normal_form, Choice, ChoiceKind, DepFn, ExploreStats, Explorer, Footprint,
    Model, Schedule, Visit,
};
pub use history::{History, HistoryOp, Outcome, Violation, ViolationKind, MAX_OPS_PER_KEY};
pub use spec::ClusterSpec;
pub use store::{Committed, LogEntry, ObjectStore, Pending, StorageCfg};
pub use telemetry::{LatencyHistogram, MetricsRegistry, Telemetry, TelemetryCfg};
pub use types::{NodeIdx, OpId, PartitionId, Timestamp, Value, CTRL_MSG_BYTES};
pub use wal::{crc32, DurableLog, FileWal, MemLog, WalRecord};
