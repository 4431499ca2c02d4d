//! One live run: spawn the 9-node cluster and the generator on loopback
//! TCP, time set-up, offer load through a warm-up and the measured
//! window, drain, quiesce, stop, and check the outcome.

use std::net::TcpListener;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use canopus::{CanopusConfig, EmulationTable, LotShape};
use canopus_harness::{live_canopus_config, live_time_unit};
use canopus_net::tcp::{spawn_node_obs, NetObs, PeerMap, TcpNodeHandle};
use canopus_net::{FaultRules, SendGate};
use canopus_obs::{reactor_snapshot, NodeObs, Snapshot};
use canopus_sim::{NodeId, Process};

use crate::gen::{ClientPlane, GenConfig, GenShared, Generator, Load, OpRec, OpState};
use crate::shim::{kind_index, Lots, NodeTrace, Traced, KINDS};
use crate::span::{Span, SpanBuf};
use crate::sys::{self, Cpu};
use crate::trace;

/// Super-leaves of the paper's testbed.
pub const GROUPS: usize = 3;
/// Nodes per super-leaf.
pub const PER_GROUP: usize = 3;
/// Cluster size.
pub const NODES: usize = GROUPS * PER_GROUP;
/// Keys are uniform over one million (the paper's key space).
pub const KEYS: u64 = 1_000_000;
/// Load offered before the measured window.
pub const WARMUP: Duration = Duration::from_secs(2);
/// An op unanswered this long counts as failed.
pub const OP_TIMEOUT: Duration = Duration::from_secs(3);
/// Longest wait for the cluster to acknowledge its first probe write.
const SETUP_LIMIT: Duration = Duration::from_secs(30);

/// The Canopus configuration of every run: the live-socket settings with
/// the batched and pipelined cycle knobs `examples/live_scale.rs` uses.
pub fn node_config() -> CanopusConfig {
    let unit = live_time_unit();
    CanopusConfig {
        max_linger: unit / 8,
        max_pipeline_depth: 4,
        ..live_canopus_config()
    }
}

/// The 3×3 emulation table: three super-leaves of three nodes.
pub fn table() -> EmulationTable {
    let membership = (0..GROUPS)
        .map(|g| {
            (0..PER_GROUP)
                .map(|i| NodeId((g * PER_GROUP + i) as u32))
                .collect()
        })
        .collect();
    EmulationTable::new(LotShape::flat(GROUPS as u16), membership)
}

/// The nodes the generator attaches to: `count` of them, spread over
/// distinct super-leaves first.
pub fn targets(count: usize) -> Vec<NodeId> {
    (0..count.clamp(1, NODES))
        .map(|i| NodeId(((i % GROUPS) * PER_GROUP + i / GROUPS) as u32))
        .collect()
}

/// What a run offers and for how long.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// Offered load.
    pub load: Load,
    /// Share of `Put`s.
    pub write_frac: f64,
    /// Measured window.
    pub window: Duration,
    /// Workload seed.
    pub seed: u64,
    /// Wrap nodes in the timing shim and record spans.
    pub trace: bool,
    /// Nodes are `ShardEngine`s (spans are named `shard.*`).
    pub sharded: bool,
    /// Generator targets.
    pub targets: Vec<NodeId>,
}

/// What the traced run adds.
#[derive(Debug, Default)]
pub struct TraceData {
    /// One per node.
    pub nodes: Vec<NodeTrace>,
    /// The generator's spans.
    pub gen_spans: Vec<Span>,
    /// Mean replay encode and decode time per message, by kind (ns;
    /// `None` when no message of that kind was sampled).
    pub codec_ns: [Option<(f64, f64)>; 5],
    /// Replay spans (codec and store).
    pub replay_spans: Vec<Span>,
    /// Merged node hub metrics.
    pub hubs: Snapshot,
    /// Replies the generator received in the window: messages, bytes.
    pub gen_recv: (u64, u64),
}

/// One second of the measured window.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Second {
    /// Share of host CPU the hypervisor stole (NaN where unknown).
    pub steal: f64,
    /// Process CPU spent, ms (NaN where unknown).
    pub cpu_ms: f64,
}

/// Everything one run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Whether the load was an open loop.
    pub open: bool,
    /// The op log, by op id.
    pub ops: Vec<OpRec>,
    /// Measured window, ns since the run's origin.
    pub window: (u64, u64),
    /// First node spawn to first acknowledged probe write, ns.
    pub setup_ns: u64,
    /// Process CPU spent in the window.
    pub cpu: Cpu,
    /// Share of host CPU stolen by the hypervisor during the window.
    pub steal_frac: f64,
    /// Host steal and process CPU in each second of the window.
    pub seconds: Vec<Second>,
    /// Reactor readiness events in the window.
    pub reactor_events: u64,
    /// Replies that arrived after their op had timed out.
    pub late_replies: u64,
    /// Highest number of ops outstanding in the window.
    pub outstanding_max: u64,
    /// Backpressure incidents on the generator's links.
    pub gate_incidents: u64,
    /// Correctness checks: name, passed, detail.
    pub checks: Vec<(String, bool, String)>,
    /// Per-layer data of a traced run.
    pub trace: Option<TraceData>,
}

fn reactor_events(snap: &Snapshot) -> u64 {
    snap.counter("reactor.readiness.events").unwrap_or(0)
}

fn sleep_until(shared: &GenShared, t: u64) {
    let now = shared.now();
    if t > now {
        std::thread::sleep(Duration::from_nanos(t - now));
    }
}

/// Spawns `NODES` node processes and the generator on loopback TCP, all
/// sharing one fault table with no rules installed.
fn launch<M: ClientPlane>(
    nodes: Vec<Box<dyn Process<M>>>,
    gen: Box<dyn Process<M>>,
    seed: u64,
    hubs: &[NodeObs],
    gate: &SendGate,
) -> (Vec<TcpNodeHandle<M>>, TcpNodeHandle<M>) {
    let mut peers = PeerMap::new();
    let mut listeners = Vec::new();
    for i in 0..=nodes.len() {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        peers.insert(NodeId(i as u32), l.local_addr().expect("bound address"));
        listeners.push(l);
    }
    let gen_listener = listeners.pop().expect("generator listener");
    let rules = Arc::new(FaultRules::new(seed));
    let handles = nodes
        .into_iter()
        .zip(listeners)
        .enumerate()
        .map(|(i, (p, l))| {
            let obs = hubs
                .get(i)
                .map_or_else(NetObs::disabled, |h| NetObs::new(h.clone()));
            spawn_node_obs(
                NodeId(i as u32),
                p,
                l,
                peers.clone(),
                seed.wrapping_add(i as u64),
                Arc::clone(&rules),
                obs,
            )
        })
        .collect::<Vec<_>>();
    let gen_id = NodeId(handles.len() as u32);
    let gen = spawn_node_obs(
        gen_id,
        gen,
        gen_listener,
        peers,
        seed ^ 0x9e37_79b9,
        rules,
        NetObs::disabled().with_gate(gate.clone()),
    );
    (handles, gen)
}

/// Spawns a cluster with a probe-only generator and returns the time from
/// the first node spawn to the first acknowledged probe write.
pub fn measure_setup<M, P>(seed: u64, make: &dyn Fn(NodeId) -> P) -> Result<Duration, String>
where
    M: ClientPlane,
    P: Process<M> + Lots,
{
    let spec = RunSpec {
        load: Load::ProbeOnly,
        write_frac: 1.0,
        window: Duration::ZERO,
        seed,
        trace: false,
        sharded: false,
        targets: targets(1),
    };
    let shared = GenShared::new(Instant::now());
    let gen = Generator::<M>::new(NodeId(NODES as u32), gen_config(&spec), Arc::clone(&shared));
    let nodes = (0..NODES)
        .map(|i| Box::new(make(NodeId(i as u32))) as Box<dyn Process<M>>)
        .collect();
    let (handles, gen) = launch(nodes, Box::new(gen), seed, &[], &SendGate::new());
    let done = await_setup(&shared);
    gen.stop();
    for h in handles {
        h.stop();
    }
    done.map(Duration::from_nanos)
}

/// Waits for the generator's first acknowledged probe write and returns
/// its time, ns since the origin.
fn await_setup(shared: &GenShared) -> Result<u64, String> {
    let deadline = Instant::now() + SETUP_LIMIT;
    loop {
        match shared.setup_done.load(Ordering::SeqCst) {
            0 if Instant::now() >= deadline => {
                return Err(format!(
                    "no probe write acknowledged within {SETUP_LIMIT:?}"
                ))
            }
            0 => std::thread::sleep(Duration::from_millis(2)),
            done => return Ok(done),
        }
    }
}

fn gen_config(spec: &RunSpec) -> GenConfig {
    GenConfig {
        load: spec.load,
        write_frac: spec.write_frac,
        keys: KEYS,
        targets: spec.targets.clone(),
        warmup: WARMUP.as_nanos() as u64,
        window: spec.window.as_nanos() as u64,
        op_timeout: OP_TIMEOUT.as_nanos() as u64,
        drain: OP_TIMEOUT.as_nanos() as u64,
        seed: spec.seed,
        trace: spec.trace,
    }
}

/// Per-LOT agreement facts of one node: last committed cycle, commit
/// digest, store digest.
type LotFacts = Vec<(u64, u64, u64)>;

fn lot_facts<P: Lots>(p: &P) -> LotFacts {
    (0..p.lot_count())
        .map(|i| {
            let n = p.lot(i);
            (
                n.last_committed().0,
                n.stats().commit_digest,
                n.store().digest(),
            )
        })
        .collect()
}

/// Runs the measured load once and checks the result.
pub fn run<M, P>(spec: &RunSpec, make: &dyn Fn(NodeId) -> P) -> Result<Outcome, String>
where
    M: ClientPlane,
    P: Process<M> + Lots,
{
    let gcfg = gen_config(spec);
    let (warmup, window_len) = (gcfg.warmup, gcfg.window);
    let hubs: Vec<NodeObs> = if spec.trace {
        (0..NODES).map(|i| NodeObs::enabled(i as u32, 64)).collect()
    } else {
        Vec::new()
    };
    let gate = SendGate::new();
    let shared = GenShared::new(Instant::now());
    let gen = Generator::<M>::new(NodeId(NODES as u32), gcfg, Arc::clone(&shared));
    let nodes: Vec<Box<dyn Process<M>>> = (0..NODES)
        .map(|i| {
            let (id, p) = (NodeId(i as u32), make(NodeId(i as u32)));
            if spec.trace {
                let shared = Arc::clone(&shared);
                let t = Traced::new(p, id, spec.sharded, shared, warmup, window_len);
                Box::new(t) as Box<dyn Process<M>>
            } else {
                Box::new(p)
            }
        })
        .collect();
    let (handles, gen) = launch(nodes, Box::new(gen), spec.seed, &hubs, &gate);

    let setup_ns = match await_setup(&shared) {
        Ok(t) => t,
        Err(e) => {
            gen.stop();
            for h in handles {
                h.stop();
            }
            return Err(e);
        }
    };
    let (ws, we) = (setup_ns + warmup, setup_ns + warmup + window_len);
    sleep_until(&shared, ws);
    let (cpu0, events0, host0) = (
        Cpu::now(),
        reactor_events(&reactor_snapshot()),
        sys::host_ticks(),
    );
    // Host steal and process CPU, second by second: metrics are taken
    // over the seconds the host left this machine's CPUs alone.
    let mut seconds = Vec::new();
    let (mut prev_host, mut prev_cpu) = (host0, cpu0);
    let mut t = ws;
    while t < we {
        t = (t + 1_000_000_000).min(we);
        sleep_until(&shared, t);
        let (host, cpu) = (sys::host_ticks(), Cpu::now());
        seconds.push(Second {
            steal: sys::steal_frac(prev_host, host),
            cpu_ms: match (prev_cpu, cpu) {
                (Some(a), Some(b)) => b.since(&a).total_ms(),
                _ => f64::NAN,
            },
        });
        (prev_host, prev_cpu) = (host, cpu);
    }
    let (cpu1, events1, host1) = (
        Cpu::now(),
        reactor_events(&reactor_snapshot()),
        sys::host_ticks(),
    );
    let drain_limit = Instant::now() + OP_TIMEOUT + Duration::from_secs(2);
    while !shared.done.load(Ordering::SeqCst) && Instant::now() < drain_limit {
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut gen = gen
        .stop()
        .into_any()
        .downcast::<Generator<M>>()
        .map_err(|_| "generator process has an unexpected type".to_string())?;

    // After the generator's last ack, remote super-leaves finish the cycle
    // one exchange later: let every node commit before comparing.
    std::thread::sleep(Duration::from_nanos(live_time_unit().as_nanos() * 20));
    let mut facts: Vec<LotFacts> = Vec::new();
    let mut traces = Vec::new();
    let mut samples: Vec<Vec<M>> = (0..KINDS.len()).map(|_| Vec::new()).collect();
    for h in handles {
        let any = h.stop().into_any();
        let any = match any.downcast::<Traced<P, M>>() {
            Ok(mut t) => {
                traces.push(t.finish());
                for (k, s) in t.samples.iter_mut().enumerate() {
                    samples[k].append(s);
                }
                facts.push(lot_facts(t.inner()));
                continue;
            }
            Err(any) => any,
        };
        let p = any
            .downcast::<P>()
            .map_err(|_| "node process has an unexpected type".to_string())?;
        facts.push(lot_facts(&*p));
    }

    let mut checks = Vec::new();
    let agree = facts.windows(2).all(|w| w[0] == w[1]);
    checks.push((
        "digests_agree".to_string(),
        agree,
        format!(
            "per-LOT (last committed, commit digest, store digest) on {} nodes: {:?}",
            facts.len(),
            facts.first()
        ),
    ));
    checks.push((
        "reads_valid".to_string(),
        gen.violations == 0,
        format!("{} violations {:?}", gen.violations, gen.violation_notes),
    ));
    let tally = |s: OpState| gen.ops.iter().filter(|o| o.state == s).count() as u64;
    let (completed, failed, outstanding) = (
        tally(OpState::Completed),
        tally(OpState::Failed),
        tally(OpState::Outstanding),
    );
    checks.push((
        "accounting_balances".to_string(),
        gen.issued == gen.ops.len() as u64
            && gen.issued == completed + failed + outstanding
            && gen.completed == completed
            && gen.failed == failed,
        format!(
            "issued {} = completed {completed} + failed {failed} + outstanding {outstanding} \
             (event counts: completed {}, failed {})",
            gen.issued, gen.completed, gen.failed
        ),
    ));

    let trace = if spec.trace {
        samples[kind_index("reply")].append(&mut gen.reply_samples);
        let mut hub_snap = Snapshot::default();
        for h in &hubs {
            hub_snap.merge(&h.metrics.snapshot());
        }
        let (codec_ns, mut replay_spans) = trace::replay_codec(&samples);
        replay_spans.extend(trace::replay_store(&gen.ops));
        Some(TraceData {
            nodes: traces,
            gen_spans: gen
                .spans
                .take()
                .map(SpanBuf::into_spans)
                .unwrap_or_default(),
            codec_ns,
            replay_spans,
            hubs: hub_snap,
            gen_recv: gen.recv_in_window,
        })
    } else {
        None
    };
    let cpu = match (cpu0, cpu1) {
        (Some(a), Some(b)) => b.since(&a),
        _ => Cpu::default(),
    };
    Ok(Outcome {
        open: gen.is_open(),
        window: gen.window,
        setup_ns,
        cpu,
        steal_frac: sys::steal_frac(host0, host1),
        seconds,
        reactor_events: events1 - events0,
        late_replies: gen.late,
        outstanding_max: gen.outstanding_max,
        gate_incidents: gate.incidents(),
        checks,
        trace,
        ops: std::mem::take(&mut gen.ops),
    })
}
