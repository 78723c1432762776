//! # nice-transport — message transports over the NodeIo boundary
//!
//! Implements the transport layer the NICEKV prototype describes in §5:
//! UDP for client requests (so vnode addresses can be rewritten freely and
//! switch multicast works), a TCP-like reliable stream for replies and
//! inter-node traffic, a reliable UDP multicast with cumulative-ACK flow
//! control and unicast NACK repair, and the *reliable any-k multicast*
//! used for quorum replication.
//!
//! The entry point is [`Transport`]: one per application, bound to a local
//! port; see its docs for the send-path menu. Server-side apps wrap it in
//! an [`Endpoint`], the shared host-facing loop (CPU inbox, timer-token
//! table, send-cost model).

#![warn(missing_docs)]

pub mod endpoint;
pub mod msg;
pub mod rudp;
pub mod transport;
pub mod wire;

pub use endpoint::{Endpoint, Fired};
pub use msg::{Msg, MsgToken, TpPayload, TransportEvent};
pub use rudp::{chunk_bytes, num_chunks};
pub use transport::{TpStats, Transport, TRANSPORT_TICK};
pub use wire::TpCodec;

#[cfg(test)]
mod prop_tests;
#[cfg(test)]
mod tests;
