//! Micro-benchmarks of the protocol hot paths: the state merge that
//! defines the total order, the wire codec, LOT/emulation-table math, a
//! full simulated consensus cycle, the reactor transport, and the
//! key-value store every replica applies committed writes to. Every case
//! runs a fixed iteration budget and reports the best of [`TRIES`] timed
//! batches (best-of defeats scheduler noise), one line per case.
//!
//! The last section is the parser check behind the amortized ingest cost
//! model. `CostModel::ingest_cost` charges weight-1 requests a full
//! per-request parse (1200 ns) but aggregates only a per-batch base
//! (1500 ns) plus a small per-op marginal (120 ns): a batched frame is
//! parsed *once*, and each additional op inside it costs one
//! length-prefixed slice read, not another header/dispatch/route trip. It
//! times decoding N separate single-put `Request` frames against one
//! `MultiPut` frame carrying the same N puts, then fits the batched curve
//! to `base + marginal × ops`. The absolute nanoseconds depend on the
//! host; the *structure* is what the cost model encodes, so the check
//! asserts the structural facts — the per-op marginal inside a batch is a
//! small fraction of a full single-frame parse, and the batch base is the
//! same order as one frame — and prints the measured numbers next to the
//! model's.
//!
//! Usage: cargo run --release -p canopus-bench --bin micro

use bytes::Bytes;
use canopus::{
    CanopusConfig, CanopusMsg, CanopusNode, EmulationTable, LotShape, RequestSet, VnodeId,
    VnodeState,
};
use canopus_kv::{ClientReply, ClientRequest, CostModel, KvStore, Op, OpResult, TimedOp};
use canopus_net::tcp::{read_frame, spawn_node_obs, write_frame, NetObs, PeerMap, TcpNodeHandle};
use canopus_net::wire::Wire;
use canopus_net::FaultRules;
use canopus_sim::{Context, Dur, NodeId, Process, Simulation, Time, UniformFabric};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Instant;

/// Timed batches per case; the fastest one is reported.
const TRIES: u32 = 7;

/// Wall-clock nanoseconds per call of `routine`, best of [`TRIES`]
/// batches of `iters` calls. Each call's input comes from `setup`, built
/// before its batch starts so setup time is never measured; cases that
/// need no input pass `|| ()`.
fn best_ns<I, O>(iters: u32, mut setup: impl FnMut() -> I, mut routine: impl FnMut(I) -> O) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..TRIES {
        let inputs: Vec<I> = (0..iters).map(|_| setup()).collect();
        let start = Instant::now();
        for input in inputs {
            black_box(routine(input));
        }
        best = best.min(start.elapsed().as_nanos() as f64 / f64::from(iters));
    }
    best
}

fn report(name: &str, ns: f64) {
    println!("{name:<40} {ns:>12.1} ns/iter");
}

/// For a case whose iteration is `ops` operations.
fn report_per_op(name: &str, ns: f64, ops: usize) {
    println!(
        "{name:<40} {ns:>12.1} ns/iter ({:.1} ns/op)",
        ns / ops as f64
    );
}

fn proposal(origin: u32, number: u64, ops: usize) -> VnodeState {
    let set = RequestSet {
        origin: NodeId(origin),
        ops: (0..ops)
            .map(|k| TimedOp {
                req: ClientRequest {
                    client: NodeId(100),
                    op_id: k as u64,
                    op: Op::Put {
                        key: k as u64,
                        value: Bytes::from_static(b"12345678"),
                    },
                },
                arrival: Time::ZERO,
            })
            .collect(),
        lease_requests: Vec::new(),
    };
    VnodeState::round1(
        NodeId(origin),
        VnodeId(vec![0]),
        canopus::CycleId(1),
        number,
        set,
        Vec::new(),
    )
}

fn bench_merge() {
    let children: Vec<VnodeState> = (0..9)
        .map(|i| proposal(i, 0x1000 + i as u64 * 7919, 100))
        .collect();
    let ns = best_ns(
        200,
        || children.clone(),
        |children| VnodeState::merge(VnodeId(vec![0]), children),
    );
    report("merge_9_proposals_of_100_ops", ns);
}

fn bench_wire() {
    let msg = CanopusMsg::ProposalResponse {
        state: proposal(1, 12345, 100),
    };
    report(
        "encode_proposal_100_ops",
        best_ns(5_000, || (), |()| msg.to_bytes()),
    );
    let bytes = msg.to_bytes();
    report(
        "decode_proposal_100_ops",
        best_ns(
            5_000,
            || (),
            |()| CanopusMsg::from_bytes(bytes.clone()).unwrap(),
        ),
    );
}

/// The zero-copy receive path: length-prefixed payloads are sliced out of
/// the receive buffer, and strings are validated in place.
fn bench_zero_copy_decode() {
    let blob = {
        let mut buf = bytes::BytesMut::new();
        Bytes::from(vec![0x5Au8; 4096]).encode(&mut buf);
        buf.freeze()
    };
    report(
        "decode_bytes_4k_zero_copy",
        best_ns(
            100_000,
            || (),
            |()| Bytes::decode(&mut blob.clone()).unwrap(),
        ),
    );
    let text = {
        let mut buf = bytes::BytesMut::new();
        "x".repeat(4096).encode(&mut buf);
        buf.freeze()
    };
    report(
        "decode_string_4k_validate_in_place",
        best_ns(
            20_000,
            || (),
            |()| String::decode(&mut text.clone()).unwrap(),
        ),
    );
}

fn bench_lot_math() {
    let shape = LotShape::new(vec![4, 4, 4]);
    let table = EmulationTable::new(
        shape.clone(),
        (0..64)
            .map(|s| (0..3).map(|i| NodeId(s * 3 + i)).collect())
            .collect(),
    );
    let ns = best_ns(
        5_000,
        || (),
        |()| {
            for s in 0..64usize {
                let v = shape.ancestor_of_superleaf(s, 2);
                black_box(table.emulators(&v));
            }
        },
    );
    report("lot_ancestor_and_emulators", ns);
}

fn bench_consensus_cycle() {
    let cluster = || {
        let table = EmulationTable::new(
            LotShape::flat(2),
            vec![
                vec![NodeId(0), NodeId(1), NodeId(2)],
                vec![NodeId(3), NodeId(4), NodeId(5)],
            ],
        );
        let mut sim = Simulation::new(UniformFabric::new(Dur::micros(25)), 7);
        for i in 0..6u32 {
            sim.add_node(Box::new(CanopusNode::new(
                NodeId(i),
                table.clone(),
                CanopusConfig::default(),
                7,
            )));
        }
        sim.inject(
            NodeId(0),
            CanopusMsg::Request(ClientRequest {
                client: canopus_sim::EXTERNAL,
                op_id: 1,
                op: Op::Put {
                    key: 1,
                    value: Bytes::from_static(b"12345678"),
                },
            }),
            Dur::ZERO,
        );
        sim
    };
    let ns = best_ns(50, cluster, |mut sim| {
        sim.run_for(Dur::millis(5));
        sim.node::<CanopusNode>(NodeId(0)).stats().committed_cycles
    });
    report("six_node_cycle_end_to_end", ns);
}

const CLIENT: NodeId = NodeId(1);
/// Requests per `reactor_frames_1k_one_loop` iteration.
const BATCH: u64 = 1024;

fn request(op_id: u64) -> Bytes {
    CanopusMsg::Request(ClientRequest {
        client: CLIENT,
        op_id,
        op: Op::Put {
            key: 1,
            value: Bytes::from_static(b"12345678"),
        },
    })
    .to_bytes()
}

fn ack(client: NodeId, op_id: u64, ctx: &mut Context<'_, CanopusMsg>) {
    ctx.send(
        client,
        CanopusMsg::Reply(ClientReply {
            op_id,
            weight: 1,
            result: OpResult::Written,
        }),
    );
}

/// Replies to every request: one reply per reactor dispatch.
struct Echo;
impl Process<CanopusMsg> for Echo {
    fn on_message(&mut self, _from: NodeId, msg: CanopusMsg, ctx: &mut Context<'_, CanopusMsg>) {
        if let CanopusMsg::Request(req) = msg {
            ack(req.client, req.op_id, ctx);
        }
    }
    canopus_sim::impl_process_any!();
}

/// Counts requests, replying once per `BATCH` of them.
struct Sink {
    seen: u64,
}
impl Process<CanopusMsg> for Sink {
    fn on_message(&mut self, _from: NodeId, msg: CanopusMsg, ctx: &mut Context<'_, CanopusMsg>) {
        if let CanopusMsg::Request(req) = msg {
            self.seen += 1;
            if self.seen.is_multiple_of(BATCH) {
                ack(req.client, self.seen, ctx);
            }
        }
    }
    canopus_sim::impl_process_any!();
}

/// Spawns `process` as reactor node 0 plus a raw client connection to it
/// (handshake already sent); returns (request stream, client listener,
/// node handle).
fn client_and_node(
    process: Box<dyn Process<CanopusMsg>>,
    seed: u64,
) -> (TcpStream, TcpListener, TcpNodeHandle<CanopusMsg>) {
    let mut peers = PeerMap::new();
    let node_l = TcpListener::bind("127.0.0.1:0").unwrap();
    peers.insert(NodeId(0), node_l.local_addr().unwrap());
    let client_l = TcpListener::bind("127.0.0.1:0").unwrap();
    peers.insert(CLIENT, client_l.local_addr().unwrap());
    let addr = peers.get(NodeId(0)).unwrap();
    let handle = spawn_node_obs::<CanopusMsg>(
        NodeId(0),
        process,
        node_l,
        peers,
        seed,
        Arc::new(FaultRules::new(seed)),
        NetObs::disabled(),
    );
    let mut tx = TcpStream::connect(addr).unwrap();
    tx.set_nodelay(true).unwrap();
    write_frame(&mut tx, &CLIENT.to_bytes()).unwrap();
    (tx, client_l, handle)
}

/// The reactor transport's hot path: wakeup-to-dispatch round trips and
/// framed throughput through one shared event loop.
fn bench_reactor_transport() {
    let (mut tx, client_l, handle) = client_and_node(Box::new(Echo), 7);
    // Prime one round trip so the reply connection exists before the
    // measured loop (the node dials back lazily on first send).
    write_frame(&mut tx, &request(0)).unwrap();
    let (mut rx, _) = client_l.accept().unwrap();
    let _ = read_frame(&mut rx); // handshake
    let _ = read_frame(&mut rx); // primed reply
    let mut op = 1u64;
    let ns = best_ns(
        2_000,
        || (),
        |()| {
            write_frame(&mut tx, &request(op)).unwrap();
            op += 1;
            read_frame(&mut rx).unwrap()
        },
    );
    report("reactor_rtt_wakeup_to_dispatch", ns);
    drop(tx);
    handle.stop();

    // Each iteration pushes `BATCH` framed requests and waits for the
    // sink's ack through one reactor loop.
    let (mut tx, client_l, handle) = client_and_node(Box::new(Sink { seen: 0 }), 8);
    let frame = request(1);
    let mut rx: Option<TcpStream> = None;
    let ns = best_ns(
        50,
        || (),
        |()| {
            for _ in 0..BATCH {
                write_frame(&mut tx, &frame).unwrap();
            }
            let rx = rx.get_or_insert_with(|| {
                let (mut s, _) = client_l.accept().unwrap();
                let _ = read_frame(&mut s); // handshake
                s
            });
            read_frame(rx).unwrap()
        },
    );
    report_per_op("reactor_frames_1k_one_loop", ns, BATCH as usize);
    drop(tx);
    handle.stop();
}

/// The store's key space, as in the wall-clock benchmark's workloads.
const KEYS: u64 = 1_000_000;
/// Uniform store ops per `kv_*` iteration.
const KV_OPS: usize = 300_000;

/// Apply cost: uniform puts and gets on a store holding every key. The
/// store is filled once, untimed, and reused across batches (dropping a
/// million-key store per batch would be timed); each batch's keys are
/// drawn in the untimed setup.
fn bench_store() {
    let value = Bytes::from_static(b"12345678");
    let mut store = KvStore::new();
    for key in 0..KEYS {
        store.put(key, value.clone());
    }
    let mut rng = SmallRng::seed_from_u64(11);
    let mut keys = || -> Vec<u64> { (0..KV_OPS).map(|_| rng.gen_range(0..KEYS)).collect() };
    let ns = best_ns(1, &mut keys, |keys| {
        for key in keys {
            store.put(key, value.clone());
        }
    });
    report_per_op("kv_put_300k_of_1m", ns, KV_OPS);
    let ns = best_ns(1, &mut keys, |keys| {
        keys.iter().filter(|&&key| store.get(key).is_some()).count()
    });
    report_per_op("kv_get_300k_of_1m", ns, KV_OPS);
}

fn single_put_frame(key: u64) -> Bytes {
    CanopusMsg::Request(ClientRequest {
        client: NodeId(7),
        op_id: key,
        op: Op::Put {
            key,
            value: Bytes::from(vec![0xAB; 16]),
        },
    })
    .to_bytes()
}

fn multi_put_frame(ops: u64) -> Bytes {
    CanopusMsg::Request(ClientRequest {
        client: NodeId(7),
        op_id: 1,
        op: Op::MultiPut {
            puts: (0..ops).map(|k| (k, Bytes::from(vec![0xAB; 16]))).collect(),
        },
    })
    .to_bytes()
}

fn check_ingest_split() {
    let time_decode = |frame: Bytes, iters| {
        best_ns(
            iters,
            || (),
            |()| CanopusMsg::from_bytes(frame.clone()).expect("valid frame"),
        )
    };
    let single_ns = time_decode(single_put_frame(3), 200_000);

    // Two batch sizes fit the line: marginal = slope, base = intercept.
    let (k1, k2) = (64u64, 1024u64);
    let batch1_ns = time_decode(multi_put_frame(k1), 20_000);
    let batch2_ns = time_decode(multi_put_frame(k2), 2_000);
    let marginal_ns = (batch2_ns - batch1_ns) / (k2 - k1) as f64;
    let base_ns = batch1_ns - marginal_ns * k1 as f64;

    let model = CostModel::default();
    report("ingest_single_put_frame_decode", single_ns);
    report(&format!("ingest_multi_put_{k1}_ops_decode"), batch1_ns);
    report(&format!("ingest_multi_put_{k2}_ops_decode"), batch2_ns);
    println!("  fitted batch base:         {base_ns:>8.1} ns");
    println!("  fitted per-op marginal:    {marginal_ns:>8.1} ns");
    println!(
        "  model: per_request={} ns, per_request_batch={} ns, per_batched_op={} ns",
        model.per_request.as_nanos(),
        model.per_request_batch.as_nanos(),
        model.per_batched_op.as_nanos()
    );
    println!(
        "  structure: marginal/single = {:.3} (model {:.3})",
        marginal_ns / single_ns,
        model.per_batched_op.as_nanos() as f64 / model.per_request.as_nanos() as f64
    );

    // The structural claims the cost model rests on. Wall-clock bounds
    // are deliberately loose — this gates the shape, not the host.
    assert!(
        marginal_ns < single_ns * 0.5,
        "per-op marginal inside a batch ({marginal_ns:.1} ns) should be well below a full \
         single-frame parse ({single_ns:.1} ns) — the amortized ingest split is unjustified"
    );
    assert!(
        base_ns < single_ns * 20.0,
        "batch base ({base_ns:.1} ns) should stay the same order as one frame parse \
         ({single_ns:.1} ns)"
    );
    println!("ok: amortized per-batch + per-op ingest split is justified");
}

fn main() {
    println!("micro-benchmarks (wall clock, best of {TRIES}):");
    bench_merge();
    bench_wire();
    bench_zero_copy_decode();
    bench_lot_math();
    bench_consensus_cycle();
    bench_reactor_transport();
    bench_store();
    check_ingest_split();
}
