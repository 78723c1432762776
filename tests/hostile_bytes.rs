//! Hostile bytes at the real runtime's decode boundary.
//!
//! Every datagram a real node receives goes through `decode_frame` with
//! `TpCodec<NoobCodec>`, and every record a restarted node replays goes
//! through `WalRecord::decode`. This takes a valid encoding of every
//! transport payload kind (each NOOB message tag inside the data-bearing
//! ones) and of every WAL record kind, then feeds the decoders every
//! truncated prefix and a few hundred seeded byte flips of each. Decode
//! must never panic, and whatever decodes must be usable: every decoded
//! value's logical size is computable without overflow.

use std::rc::Rc;

use nice::kv_core::{OpId, Timestamp, Value, WalRecord};
use nice::noob::{NoobCodec, NoobMsg};
use nice::ring::NodeIdx;
use nice::rt::codec::{decode_frame, encode_frame};
use nice::rt::{Ipv4, Mac, Packet, Rng, XorShiftRng};
use nice::transport::{TpCodec, TpPayload};

const FLIPS: usize = 300;

fn op() -> OpId {
    OpId {
        client: Ipv4::new(10, 0, 1, 1),
        client_seq: 9,
    }
}

fn ts() -> Timestamp {
    Timestamp {
        primary_seq: 4,
        primary: Ipv4::new(10, 0, 0, 10),
        client_seq: 9,
        client: Ipv4::new(10, 0, 1, 1),
    }
}

fn value() -> Value {
    Value {
        bytes: Rc::new(b"abc".to_vec()),
        pad: 1000,
    }
}

/// One message of every `NoobMsg` tag.
fn every_noob_msg() -> Vec<NoobMsg> {
    let key = || "user42".to_string();
    vec![
        NoobMsg::Put {
            key: key(),
            value: value(),
            op: op(),
            hops: 1,
        },
        NoobMsg::Get {
            key: key(),
            op: op(),
            hops: 0,
        },
        NoobMsg::PutReply { op: op(), ok: true },
        NoobMsg::GetReply {
            op: op(),
            value: Some(value()),
        },
        NoobMsg::RepData {
            key: key(),
            value: value(),
            op: op(),
            two_pc: true,
        },
        NoobMsg::RepAck1 {
            key: key(),
            op: op(),
            from: NodeIdx(2),
        },
        NoobMsg::RepTs {
            key: key(),
            op: op(),
            ts: ts(),
        },
        NoobMsg::RepAck2 {
            key: key(),
            op: op(),
            from: NodeIdx(2),
        },
        NoobMsg::ChainPut {
            key: key(),
            value: value(),
            op: op(),
            remaining: vec![Ipv4::new(10, 0, 0, 11), Ipv4::new(10, 0, 0, 12)],
            client: Ipv4::new(10, 0, 1, 1),
        },
        NoobMsg::SyncReq { from: NodeIdx(3) },
        NoobMsg::SyncResp {
            items: vec![(key(), value(), ts()), ("k2".into(), value(), ts())],
        },
    ]
}

/// Every transport payload kind; the data-bearing kinds once per
/// message.
fn every_tp_payload(msgs: Vec<NoobMsg>) -> Vec<TpPayload> {
    let mut out = vec![
        TpPayload::Ack {
            msg_id: 5,
            cum: 3,
            complete: true,
        },
        TpPayload::Nack {
            msg_id: 5,
            missing: vec![1, 4],
        },
        TpPayload::Syn,
        TpPayload::SynAck,
    ];
    for m in msgs {
        let data: Rc<dyn std::any::Any> = Rc::new(m);
        out.push(TpPayload::Chunk {
            sender: Ipv4::new(10, 0, 0, 10),
            msg_id: 5,
            seq: 0,
            total: 1,
            msg_size: 1024,
            data: Rc::clone(&data),
            retx: false,
        });
        out.push(TpPayload::Datagram { data, size: 1024 });
    }
    out
}

fn frame(codec: &TpCodec<NoobCodec>, tp: TpPayload) -> Vec<u8> {
    let (src, dst) = (Ipv4::new(10, 0, 0, 10), Ipv4::new(10, 0, 0, 11));
    let pkt = Packet::udp(src, Mac(1), dst, 7000, 7000, 100, Rc::new(tp));
    encode_frame(&pkt, codec).expect("every payload kind is encodable")
}

fn every_wal_record() -> Vec<WalRecord> {
    let key = || "user42".to_string();
    vec![
        WalRecord::Lock {
            key: key(),
            op: op(),
            value: value(),
        },
        WalRecord::Commit {
            key: key(),
            op: op(),
            ts: ts(),
        },
        WalRecord::Apply {
            key: key(),
            value: value(),
            ts: ts(),
        },
        WalRecord::Release {
            key: key(),
            op: op(),
        },
    ]
}

/// Touch every value a decoded message carries, the way a server does
/// before it charges or stores it.
fn use_msg(m: &NoobMsg) -> u64 {
    match m {
        NoobMsg::Put { value, .. }
        | NoobMsg::RepData { value, .. }
        | NoobMsg::ChainPut { value, .. }
        | NoobMsg::GetReply {
            value: Some(value), ..
        } => u64::from(value.size()),
        NoobMsg::SyncResp { items } => items.iter().map(|(_, v, _)| u64::from(v.size())).sum(),
        _ => 0,
    }
}

fn use_frame(codec: &TpCodec<NoobCodec>, bytes: &[u8]) -> Option<u64> {
    let pkt = decode_frame(bytes, codec)?;
    let data = match pkt.payload_as::<TpPayload>()? {
        TpPayload::Chunk { data, .. } | TpPayload::Datagram { data, .. } => data,
        _ => return Some(0),
    };
    Some(use_msg(data.downcast_ref::<NoobMsg>()?))
}

fn use_record(bytes: &[u8]) -> Option<u64> {
    match WalRecord::decode(bytes)? {
        WalRecord::Lock { value, .. } | WalRecord::Apply { value, .. } => {
            Some(u64::from(value.size()))
        }
        _ => Some(0),
    }
}

/// Every prefix, then `FLIPS` seeded single-byte corruptions.
fn mutants(bytes: &[u8], rng: &mut XorShiftRng) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = (0..bytes.len()).map(|n| bytes[..n].to_vec()).collect();
    for _ in 0..FLIPS {
        let mut m = bytes.to_vec();
        let at = rng.random_range(0..bytes.len() as u64) as usize;
        m[at] ^= rng.random_range(1..256u64) as u8;
        out.push(m);
    }
    out
}

/// One real byte claiming 4 GiB of synthetic padding: a logical size
/// that does not even fit the size type.
fn padded_past_any_record() -> Value {
    Value {
        bytes: Rc::new(vec![1]),
        pad: u32::MAX,
    }
}

#[test]
fn decoders_survive_truncation_and_byte_flips() {
    let codec = TpCodec::new(NoobCodec);
    let put = NoobMsg::Put {
        key: "k".into(),
        value: padded_past_any_record(),
        op: op(),
        hops: 0,
    };
    let data = Rc::new(put);
    let hostile = frame(&codec, TpPayload::Datagram { data, size: 64 });
    assert!(use_frame(&codec, &hostile).is_none(), "hostile put decoded");
    let rec = WalRecord::Apply {
        key: "k".into(),
        value: padded_past_any_record(),
        ts: ts(),
    };
    assert!(
        use_record(&rec.encode()).is_none(),
        "hostile record decoded"
    );

    let mut rng = XorShiftRng::seed_from_u64(0xBAD_B17E);
    let frames: Vec<Vec<u8>> = every_tp_payload(every_noob_msg())
        .into_iter()
        .map(|tp| frame(&codec, tp))
        .collect();
    for f in &frames {
        assert!(
            use_frame(&codec, f).is_some(),
            "the unmutated frame decodes"
        );
        for m in mutants(f, &mut rng) {
            use_frame(&codec, &m);
        }
    }
    for rec in every_wal_record() {
        let bytes = rec.encode();
        assert!(use_record(&bytes).is_some(), "the unmutated record decodes");
        for m in mutants(&bytes, &mut rng) {
            use_record(&m);
        }
    }
}
