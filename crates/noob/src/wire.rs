//! Wire serialization of [`NoobMsg`] for the real UDP runtime.
//!
//! Wrap this in [`nice_transport::TpCodec`] to get the full frame stack
//! a real NOOB node speaks on loopback:
//! `NoobMsg` → transport chunks/acks → framed UDP datagrams.

use std::any::Any;
use std::rc::Rc;

use kv_core::codec::{get_op, get_ts, get_value, put_op, put_ts, put_value};
use node_rt::{ByteReader, ByteWriter, Ipv4, Payload, WireCodec};

use crate::msg::NoobMsg;
use nice_ring::NodeIdx;

const TAG_PUT: u8 = 0;
const TAG_GET: u8 = 1;
const TAG_PUT_REPLY: u8 = 2;
const TAG_GET_REPLY: u8 = 3;
const TAG_REP_DATA: u8 = 4;
const TAG_REP_ACK1: u8 = 5;
const TAG_REP_TS: u8 = 6;
const TAG_REP_ACK2: u8 = 7;
const TAG_CHAIN_PUT: u8 = 8;
const TAG_SYNC_REQ: u8 = 9;
const TAG_SYNC_RESP: u8 = 10;

/// Corruption bound on [`NoobMsg::SyncResp`] item counts: rejoin
/// transfers are store-sized, never larger than this.
const MAX_SYNC_ITEMS: u32 = 1 << 20;

/// Serializes the NOOB message vocabulary.
pub struct NoobCodec;

impl WireCodec for NoobCodec {
    fn encode(&self, payload: &dyn Any) -> Option<Vec<u8>> {
        let msg = payload.downcast_ref::<NoobMsg>()?;
        let mut w = ByteWriter::new();
        match msg {
            NoobMsg::Put {
                key,
                value,
                op,
                hops,
            } => {
                w.u8(TAG_PUT);
                w.str(key);
                put_value(&mut w, value);
                put_op(&mut w, op);
                w.u8(*hops);
            }
            NoobMsg::Get { key, op, hops } => {
                w.u8(TAG_GET);
                w.str(key);
                put_op(&mut w, op);
                w.u8(*hops);
            }
            NoobMsg::PutReply { op, ok } => {
                w.u8(TAG_PUT_REPLY);
                put_op(&mut w, op);
                w.u8(u8::from(*ok));
            }
            NoobMsg::GetReply { op, value } => {
                w.u8(TAG_GET_REPLY);
                put_op(&mut w, op);
                match value {
                    Some(v) => {
                        w.u8(1);
                        put_value(&mut w, v);
                    }
                    None => w.u8(0),
                }
            }
            NoobMsg::RepData {
                key,
                value,
                op,
                two_pc,
            } => {
                w.u8(TAG_REP_DATA);
                w.str(key);
                put_value(&mut w, value);
                put_op(&mut w, op);
                w.u8(u8::from(*two_pc));
            }
            NoobMsg::RepAck1 { key, op, from } => {
                w.u8(TAG_REP_ACK1);
                w.str(key);
                put_op(&mut w, op);
                w.u32(from.0);
            }
            NoobMsg::RepTs { key, op, ts } => {
                w.u8(TAG_REP_TS);
                w.str(key);
                put_op(&mut w, op);
                put_ts(&mut w, ts);
            }
            NoobMsg::RepAck2 { key, op, from } => {
                w.u8(TAG_REP_ACK2);
                w.str(key);
                put_op(&mut w, op);
                w.u32(from.0);
            }
            NoobMsg::ChainPut {
                key,
                value,
                op,
                remaining,
                client,
            } => {
                w.u8(TAG_CHAIN_PUT);
                w.str(key);
                put_value(&mut w, value);
                put_op(&mut w, op);
                w.u32(remaining.len() as u32);
                for ip in remaining {
                    w.u32(ip.0);
                }
                w.u32(client.0);
            }
            NoobMsg::SyncReq { from } => {
                w.u8(TAG_SYNC_REQ);
                w.u32(from.0);
            }
            NoobMsg::SyncResp { items } => {
                w.u8(TAG_SYNC_RESP);
                w.u32(items.len() as u32);
                for (key, value, ts) in items {
                    w.str(key);
                    put_value(&mut w, value);
                    put_ts(&mut w, ts);
                }
            }
        }
        Some(w.into_vec())
    }

    fn decode(&self, bytes: &[u8]) -> Option<Payload> {
        let mut r = ByteReader::new(bytes);
        let msg = match r.u8()? {
            TAG_PUT => NoobMsg::Put {
                key: r.str()?,
                value: get_value(&mut r)?,
                op: get_op(&mut r)?,
                hops: r.u8()?,
            },
            TAG_GET => NoobMsg::Get {
                key: r.str()?,
                op: get_op(&mut r)?,
                hops: r.u8()?,
            },
            TAG_PUT_REPLY => NoobMsg::PutReply {
                op: get_op(&mut r)?,
                ok: r.u8()? != 0,
            },
            TAG_GET_REPLY => {
                let op = get_op(&mut r)?;
                let value = if r.u8()? != 0 {
                    Some(get_value(&mut r)?)
                } else {
                    None
                };
                NoobMsg::GetReply { op, value }
            }
            TAG_REP_DATA => NoobMsg::RepData {
                key: r.str()?,
                value: get_value(&mut r)?,
                op: get_op(&mut r)?,
                two_pc: r.u8()? != 0,
            },
            TAG_REP_ACK1 => NoobMsg::RepAck1 {
                key: r.str()?,
                op: get_op(&mut r)?,
                from: NodeIdx(r.u32()?),
            },
            TAG_REP_TS => NoobMsg::RepTs {
                key: r.str()?,
                op: get_op(&mut r)?,
                ts: get_ts(&mut r)?,
            },
            TAG_REP_ACK2 => NoobMsg::RepAck2 {
                key: r.str()?,
                op: get_op(&mut r)?,
                from: NodeIdx(r.u32()?),
            },
            TAG_CHAIN_PUT => {
                let key = r.str()?;
                let value = get_value(&mut r)?;
                let op = get_op(&mut r)?;
                let n = r.u32()? as usize;
                if n > 1024 {
                    return None; // replica chains are short; this is corruption
                }
                let mut remaining = Vec::with_capacity(n);
                for _ in 0..n {
                    remaining.push(Ipv4(r.u32()?));
                }
                let client = Ipv4(r.u32()?);
                NoobMsg::ChainPut {
                    key,
                    value,
                    op,
                    remaining,
                    client,
                }
            }
            TAG_SYNC_REQ => NoobMsg::SyncReq {
                from: NodeIdx(r.u32()?),
            },
            TAG_SYNC_RESP => {
                let n = r.u32()?;
                if n > MAX_SYNC_ITEMS {
                    return None; // corruption: no store is that large
                }
                // Grown as items decode: the count is the sender's word.
                let mut items = Vec::new();
                for _ in 0..n {
                    let key = r.str()?;
                    let value = get_value(&mut r)?;
                    let ts = get_ts(&mut r)?;
                    items.push((key, value, ts));
                }
                NoobMsg::SyncResp { items }
            }
            _ => return None,
        };
        Some(Rc::new(msg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{OpId, Timestamp, Value};

    fn roundtrip(msg: &NoobMsg) -> NoobMsg {
        let wire = NoobCodec.encode(msg).expect("encodable");
        let back = NoobCodec.decode(&wire).expect("decodable");
        back.downcast_ref::<NoobMsg>().expect("a NoobMsg").clone()
    }

    fn op(seq: u64) -> OpId {
        OpId {
            client: Ipv4::new(10, 0, 1, 1),
            client_seq: seq,
        }
    }

    #[test]
    fn data_messages_roundtrip() {
        let put = NoobMsg::Put {
            key: "user42".into(),
            value: Value::from_bytes(b"abc".to_vec()),
            op: op(3),
            hops: 1,
        };
        match roundtrip(&put) {
            NoobMsg::Put {
                key,
                value,
                op,
                hops,
            } => {
                assert_eq!(key, "user42");
                assert_eq!(value.bytes.as_slice(), b"abc");
                assert_eq!(value.pad, 0);
                assert_eq!(op.client_seq, 3);
                assert_eq!(hops, 1);
            }
            other => panic!("wrong variant: {other:?}"),
        }

        let reply = NoobMsg::GetReply {
            op: op(9),
            value: Some(Value::synthetic(4096)),
        };
        match roundtrip(&reply) {
            NoobMsg::GetReply { op, value } => {
                assert_eq!(op.client_seq, 9);
                assert_eq!(value.map(|v| v.size()), Some(4096));
            }
            other => panic!("wrong variant: {other:?}"),
        }
        match roundtrip(&NoobMsg::GetReply {
            op: op(10),
            value: None,
        }) {
            NoobMsg::GetReply { value, .. } => assert!(value.is_none()),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn replication_messages_roundtrip() {
        let ts = Timestamp {
            primary_seq: 8,
            primary: Ipv4::new(10, 0, 0, 10),
            client_seq: 2,
            client: Ipv4::new(10, 0, 1, 1),
        };
        match roundtrip(&NoobMsg::RepTs {
            key: "k".into(),
            op: op(2),
            ts,
        }) {
            NoobMsg::RepTs { ts: back, .. } => assert_eq!(back, ts),
            other => panic!("wrong variant: {other:?}"),
        }
        let chain = NoobMsg::ChainPut {
            key: "k".into(),
            value: Value::from_bytes(vec![1]),
            op: op(1),
            remaining: vec![Ipv4::new(10, 0, 0, 11), Ipv4::new(10, 0, 0, 12)],
            client: Ipv4::new(10, 0, 1, 2),
        };
        match roundtrip(&chain) {
            NoobMsg::ChainPut {
                remaining, client, ..
            } => {
                assert_eq!(remaining.len(), 2);
                assert_eq!(client, Ipv4::new(10, 0, 1, 2));
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn corrupt_frames_are_dropped() {
        assert!(NoobCodec.decode(&[]).is_none());
        assert!(NoobCodec.decode(&[77]).is_none());
        assert!(NoobCodec.decode(&[TAG_PUT, 0, 0]).is_none());
        // A SyncResp claiming more items than any store holds is corruption.
        let mut w = node_rt::ByteWriter::new();
        w.u8(TAG_SYNC_RESP);
        w.u32(MAX_SYNC_ITEMS + 1);
        assert!(NoobCodec.decode(&w.into_vec()).is_none());
    }

    #[test]
    fn sync_messages_roundtrip() {
        match roundtrip(&NoobMsg::SyncReq { from: NodeIdx(3) }) {
            NoobMsg::SyncReq { from } => assert_eq!(from, NodeIdx(3)),
            other => panic!("wrong variant: {other:?}"),
        }
        let ts = Timestamp {
            primary_seq: 4,
            primary: Ipv4::new(10, 0, 0, 11),
            client_seq: 1,
            client: Ipv4::new(10, 0, 1, 1),
        };
        let resp = NoobMsg::SyncResp {
            items: vec![
                ("a".into(), Value::from_bytes(vec![1, 2]), ts),
                ("b".into(), Value::synthetic(64), ts),
            ],
        };
        match roundtrip(&resp) {
            NoobMsg::SyncResp { items } => {
                assert_eq!(items.len(), 2);
                assert_eq!(items[0].0, "a");
                assert_eq!(items[0].1.bytes.as_slice(), &[1, 2]);
                assert_eq!(items[0].2, ts);
                assert_eq!(items[1].1.size(), 64);
            }
            other => panic!("wrong variant: {other:?}"),
        }
        match roundtrip(&NoobMsg::SyncResp { items: vec![] }) {
            NoobMsg::SyncResp { items } => assert!(items.is_empty()),
            other => panic!("wrong variant: {other:?}"),
        }
    }
}
