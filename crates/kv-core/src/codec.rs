//! Byte layout of the shared protocol types ([`OpId`], [`Timestamp`],
//! [`Value`]) — one definition for the WAL's record payloads and the
//! adapters' wire codecs, so a field added to a type changes both.

use std::rc::Rc;

use node_rt::{ByteReader, ByteWriter, Ipv4};

use crate::types::{OpId, Timestamp, Value};
use crate::wal::MAX_RECORD;

/// Append an [`OpId`].
pub fn put_op(w: &mut ByteWriter, op: &OpId) {
    w.u32(op.client.0);
    w.u64(op.client_seq);
}

/// Read an [`OpId`]; `None` on truncated input.
pub fn get_op(r: &mut ByteReader<'_>) -> Option<OpId> {
    Some(OpId {
        client: Ipv4(r.u32()?),
        client_seq: r.u64()?,
    })
}

/// Append a [`Timestamp`].
pub fn put_ts(w: &mut ByteWriter, ts: &Timestamp) {
    w.u64(ts.primary_seq);
    w.u32(ts.primary.0);
    w.u64(ts.client_seq);
    w.u32(ts.client.0);
}

/// Read a [`Timestamp`]; `None` on truncated input.
pub fn get_ts(r: &mut ByteReader<'_>) -> Option<Timestamp> {
    Some(Timestamp {
        primary_seq: r.u64()?,
        primary: Ipv4(r.u32()?),
        client_seq: r.u64()?,
        client: Ipv4(r.u32()?),
    })
}

/// Append a [`Value`] (real bytes, then the synthetic pad length).
pub fn put_value(w: &mut ByteWriter, v: &Value) {
    w.bytes(&v.bytes);
    w.u32(v.pad);
}

/// Read a [`Value`]; `None` on truncated input or on a logical size
/// (real bytes plus pad) above the WAL's record bound, which no writer
/// produces.
pub fn get_value(r: &mut ByteReader<'_>) -> Option<Value> {
    let bytes = r.bytes()?.to_vec();
    let pad = r.u32()?;
    if bytes.len() as u64 + u64::from(pad) > u64::from(MAX_RECORD) {
        return None;
    }
    Some(Value {
        bytes: Rc::new(bytes),
        pad,
    })
}
