//! Transport-level message types and wire payloads.

use std::any::Any;
use std::rc::Rc;

use node_rt::Ipv4;

/// An application message: an opaque value plus its logical size in bytes
/// (the size drives chunking, serialization delay, and byte accounting).
#[derive(Clone)]
pub struct Msg {
    /// The application value (delivered intact to the receiver).
    pub data: Rc<dyn Any>,
    /// Logical size in bytes.
    pub size: u32,
}

impl Msg {
    /// Wrap `data` with an explicit logical size.
    pub fn new<T: Any>(data: T, size: u32) -> Msg {
        Msg {
            data: Rc::new(data),
            size,
        }
    }

    /// Downcast the payload.
    pub fn downcast<T: Any>(&self) -> Option<&T> {
        self.data.downcast_ref::<T>()
    }
}

impl std::fmt::Debug for Msg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Msg({}B)", self.size)
    }
}

/// Token identifying an in-flight reliable send on the sending side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MsgToken(pub u64);

/// Events surfaced to the application by [`crate::Transport`].
#[derive(Debug)]
pub enum TransportEvent {
    /// A complete message arrived.
    Delivered {
        /// Sender's physical address and transport port.
        from: (Ipv4, u16),
        /// The message.
        msg: Msg,
    },
    /// A reliable send completed: the required receivers (all, or the
    /// quorum k) hold the entire message.
    Sent {
        /// The send this resolves.
        token: MsgToken,
    },
    /// A reliable send exhausted its retries.
    Failed {
        /// The send this resolves.
        token: MsgToken,
    },
}

/// Wire payloads the transport exchanges. These ride inside
/// `node_rt::Packet::payload`.
#[derive(Debug, Clone)]
pub enum TpPayload {
    /// One MTU-sized chunk of a reliable message. Every chunk carries the
    /// `Rc` of the app data (cheap clone); receivers deliver on assembly.
    Chunk {
        /// Sender's physical address (survives dst rewriting).
        sender: Ipv4,
        /// Sender-unique message id.
        msg_id: u64,
        /// Chunk index.
        seq: u32,
        /// Total number of chunks.
        total: u32,
        /// Logical size of the whole message.
        msg_size: u32,
        /// The application payload.
        data: Rc<dyn Any>,
        /// True if this chunk is a retransmission (repair traffic).
        retx: bool,
    },
    /// Cumulative acknowledgment for a reliable message (flow control).
    Ack {
        /// The message being acknowledged.
        msg_id: u64,
        /// Chunks `0..cum` received contiguously.
        cum: u32,
        /// Receiver holds the complete message.
        complete: bool,
    },
    /// Negative ack: the receiver is missing these chunks (repair is sent
    /// unicast, as in §5: "the client sends the missing packets using a
    /// unicast connection").
    Nack {
        /// The message being repaired.
        msg_id: u64,
        /// Missing chunk indexes (bounded per NACK).
        missing: Vec<u32>,
    },
    /// TCP connection request.
    Syn,
    /// TCP connection accept.
    SynAck,
    /// Unreliable single-datagram app message.
    Datagram {
        /// The application payload.
        data: Rc<dyn Any>,
        /// Logical size.
        size: u32,
    },
}
