//! Operation primitives shared by synthetic and YCSB drivers.

/// The two operations of a key-value store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Read a key.
    Get,
    /// Write (insert or update) a key.
    Put,
}

/// One operation against the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    /// Get or put.
    pub kind: OpKind,
    /// The key.
    pub key: String,
    /// Value size in bytes (puts; 0 for gets).
    pub size: u32,
}
