//! # nice-noob — the network-oblivious (NOOB) baseline
//!
//! The comparison system of the paper's evaluation (§6): a conventional
//! key-value store in which "the network is only used as a point-to-point
//! communication medium" (§2.1). It reuses the same storage engine, value
//! types, and op records as NICEKV so results are directly comparable,
//! but replicates over unicast TCP from the primary and routes requests
//! through one of the three classic access mechanisms:
//!
//! * **ROG** — replica-oblivious gateway (random node, two extra hops),
//! * **RAG** — replica-aware gateway (one extra hop),
//! * **RAC** — replica-aware client (direct, but clients must know
//!   placement).
//!
//! Consistency modes: primary-only, two-phase commit, quorum writes, and
//! chain replication.

#![warn(missing_docs)]

pub mod client;
pub mod cluster;
pub mod gateway;
pub mod msg;
pub mod real;
pub mod server;
pub mod wire;

pub use client::{ClientRoute, NoobClientApp};
pub use cluster::{NoobCluster, NoobClusterCfg, NoobSys};
pub use gateway::{GatewayApp, GatewayPolicy};
pub use msg::{Access, NoobMode, NoobMsg};
pub use real::{RealNoobCfg, RealNoobCluster, RealOp};
pub use server::{NoobRing, NoobServerApp};
pub use wire::NoobCodec;
