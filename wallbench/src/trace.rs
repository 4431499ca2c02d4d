//! Replays of the traced run: real sampled messages through the public
//! codec, and the run's key stream through a fresh `KvStore`.

use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use canopus_kv::KvStore;
use canopus_net::Wire;

use crate::gen::OpRec;
use crate::span::{names, Span, SpanBuf, NO_ID, NO_PARENT};

const ENCODE: [&str; 5] = [
    "net.encode.request",
    "net.encode.reply",
    "net.encode.raft",
    "net.encode.proposal_request",
    "net.encode.proposal_response",
];
const DECODE: [&str; 5] = [
    "net.decode.request",
    "net.decode.reply",
    "net.decode.raft",
    "net.decode.proposal_request",
    "net.decode.proposal_response",
];
/// Each sampled message is encoded and decoded this many times per span,
/// so a span is long against the clock's own cost.
const CODEC_REPS: u32 = 16;
/// Store ops per replay span.
const KV_CHUNK: usize = 256;

/// Encodes and decodes every sampled message (grouped by kind) through
/// `Wire::to_bytes` / `Wire::from_bytes`. Returns the mean ns per message
/// per kind and one span per message and direction.
pub fn replay_codec<M: Wire + PartialEq>(
    samples: &[Vec<M>],
) -> ([Option<(f64, f64)>; 5], Vec<Span>) {
    let mut buf = SpanBuf::new(Instant::now(), 0, 0, u64::MAX);
    let mut means = [None; 5];
    for (k, msgs) in samples.iter().enumerate().take(5) {
        if msgs.is_empty() {
            continue;
        }
        let (mut enc_total, mut dec_total) = (0u64, 0u64);
        for msg in msgs {
            let t0 = buf.now();
            let mut bytes = Bytes::new();
            for _ in 0..CODEC_REPS {
                bytes = black_box(msg).to_bytes();
            }
            let t1 = buf.now();
            let mut back = None;
            for _ in 0..CODEC_REPS {
                back = Some(M::from_bytes(black_box(bytes.clone())));
            }
            let t2 = buf.now();
            assert!(
                matches!(&back, Some(Ok(m)) if m == msg),
                "sampled message does not survive a codec round trip"
            );
            buf.push(ENCODE[k], NO_ID, t0, t1, NO_PARENT);
            buf.push(DECODE[k], NO_ID, t1, t2, NO_PARENT);
            enc_total += t1 - t0;
            dec_total += t2 - t1;
        }
        let per = (msgs.len() as u64 * u64::from(CODEC_REPS)) as f64;
        means[k] = Some((enc_total as f64 / per, dec_total as f64 / per));
    }
    (means, buf.into_spans())
}

/// Replays the run's key stream on a fresh store: every `Put` in issue
/// order, then every `Get` against the resulting store. One span per
/// chunk of ops.
pub fn replay_store(ops: &[OpRec]) -> Vec<Span> {
    let mut buf = SpanBuf::new(Instant::now(), 0, 0, u64::MAX);
    let mut store = KvStore::new();
    let puts: Vec<(u64, Bytes)> = ops
        .iter()
        .enumerate()
        .filter(|(_, o)| o.write)
        .map(|(id, o)| (o.key, Bytes::copy_from_slice(&(id as u64).to_le_bytes())))
        .collect();
    let mut puts = puts.into_iter();
    loop {
        let chunk: Vec<(u64, Bytes)> = puts.by_ref().take(KV_CHUNK).collect();
        if chunk.is_empty() {
            break;
        }
        let t0 = buf.now();
        for (k, v) in chunk {
            black_box(store.put(k, v));
        }
        buf.push(names::KV_PUT, NO_ID, t0, buf.now(), NO_PARENT);
    }
    let gets: Vec<u64> = ops.iter().filter(|o| !o.write).map(|o| o.key).collect();
    for chunk in gets.chunks(KV_CHUNK) {
        let t0 = buf.now();
        for k in chunk {
            black_box(store.get(*k));
        }
        buf.push(names::KV_GET, NO_ID, t0, buf.now(), NO_PARENT);
    }
    buf.into_spans()
}
