//! # nice-kv — the NICEKV network-integrated key-value store
//!
//! The paper's primary contribution (§3–§5), built on the simulated
//! OpenFlow fabric: storage virtualization over unicast/multicast virtual
//! rings, switch-multicast replication, the NICE-2PC consistency protocol
//! with consistency-aware fault tolerance, in-network get load balancing,
//! handoff-based failure handling, and two-phase node recovery.
//!
//! ## Quick start
//!
//! ```
//! use nice_kv::{ClientOp, ClusterCfg, NiceCluster, Value};
//! use node_rt::Time;
//!
//! let ops = vec![
//!     ClientOp::Put { key: "hello".into(), value: Value::from_bytes(b"world".to_vec()) },
//!     ClientOp::Get { key: "hello".into() },
//! ];
//! let mut cluster = NiceCluster::build(ClusterCfg::new(5, 3, vec![ops]));
//! assert!(cluster.run_until_done(Time::from_secs(10)));
//! let records = &cluster.client(0).records;
//! assert!(records.iter().all(|r| r.ok()));
//! assert_eq!(records[1].bytes.as_deref(), Some(b"world".as_slice()));
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod cluster;
pub mod config;
pub mod metadata;
pub mod msg;
pub mod server;

pub use client::{ClientApp, ClientOp, OpRecord};
pub use cluster::{
    server_ip, ClusterCfg, Deployment, NiceCluster, NiceSys, SimCluster, SimHostCfg,
};
pub use config::{KvConfig, PutMode};
pub use kv_core::ClusterSpec;
pub use kv_core::{KvClient, KvError, MetricsRegistry, ObjectStore, StorageCfg};
pub use metadata::{AdminOp, MetaEvent, MetaRole, MetadataApp, SwitchHandle};
pub use msg::{HandoffRecord, NodeState};
pub use msg::{KvMsg, LoadStats, OpId, PartitionView, Role, Timestamp, Value};
pub use server::ServerApp;
