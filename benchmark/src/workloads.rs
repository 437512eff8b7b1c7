//! The four workloads: their set-up and their op loops.
//!
//! Every loop takes the recorder; with it off (the timed runs) a span costs
//! one branch. The traced pass replays the same loops with it on.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use orpheus::{Engine, Session};
use orpheus_graph::{Graph, OpKind};
use orpheus_models::{build_model_with_input, ModelKind};
use orpheus_onnx::export_model;
use orpheus_serve::{ServeReply, ServeResult, Server, ServerConfig, StatsSnapshot, Ticket};
use orpheus_tensor::{SmallRng, Tensor};

use crate::oracle::Oracle;
use crate::stats::WINDOW_OPS;
use crate::trace::Recorder;
use crate::Res;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// One held session, one caller, closed loop over `Session::run`.
    Stream,
    /// A server under an open-loop burst schedule, then a closed window.
    ServeBurst,
    /// Model bytes to first answer, everything dropped between ops.
    ColdStart,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub model: ModelKind,
    pub hw: usize,
    pub driver: Driver,
    /// Warm-up ops in set-up (for `ServeBurst`: passes over the burst sizes).
    pub warmup: usize,
    /// Distinct inputs the ops cycle through.
    pub inputs: usize,
    /// File under `benchmark/golden/` pinning the outputs at the default seed.
    pub golden: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "wrn_stream_b1",
        model: ModelKind::Wrn40_2,
        hw: 32,
        driver: Driver::Stream,
        warmup: 50,
        inputs: 2,
        golden: "wrn40_2_32.txt",
    },
    Workload {
        name: "mobilenet_stream_b1",
        model: ModelKind::MobileNetV1,
        hw: 128,
        driver: Driver::Stream,
        warmup: 30,
        inputs: 2,
        golden: "mobilenetv1_128.txt",
    },
    Workload {
        name: "wrn_serve_burst",
        model: ModelKind::Wrn40_2,
        hw: 32,
        driver: Driver::ServeBurst,
        warmup: 2,
        inputs: 2,
        golden: "wrn40_2_32.txt",
    },
    Workload {
        name: "mobilenet_cold_start",
        model: ModelKind::MobileNetV1,
        hw: 64,
        driver: Driver::ColdStart,
        warmup: 3,
        inputs: 2,
        golden: "mobilenetv1_64.txt",
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn input_dims(&self) -> [usize; 4] {
        [1, 3, self.hw, self.hw]
    }

    /// Batch ladder the workload's engine plans: only serving batches.
    pub fn max_batch(&self) -> usize {
        if self.driver == Driver::ServeBurst {
            SERVE_MAX_BATCH
        } else {
            1
        }
    }
}

pub const SERVE_MAX_BATCH: usize = 8;
/// Burst sizes of the open-loop phase; the schedule is made of whole decks,
/// each shuffled by the seed, so every seed offers the same mix in another
/// order.
pub const BURST_DECK: [usize; 6] = [1, 2, 3, 4, 5, 8];
pub const BURST_PERIOD: Duration = Duration::from_millis(200);
/// Requests the closed window keeps outstanding.
pub const CLOSED_OUTSTANDING: usize = 16;
/// Share of a serve loop's time given to the open-loop phase.
const OPEN_SHARE: f64 = 0.6;

/// The workload's model, ending at its logits: the zoo's synthetic weights
/// saturate the final softmax into a one-hot vector that is the same for
/// every input, which no oracle can tell from a wrong answer.
pub fn model_graph(w: &Workload) -> Graph {
    let mut graph = build_model_with_input(w.model, w.hw, w.hw);
    if let Some(last) = graph.nodes().last().filter(|n| n.op == OpKind::Softmax) {
        let logits = last.inputs[0].clone();
        graph.nodes_mut().pop();
        graph.set_outputs(vec![logits]);
    }
    graph
}

/// One thread everywhere: on a 2-core shared host an inter-op × intra-op
/// sweep would measure the scheduler, not the engine.
pub fn engine(max_batch: usize) -> Res<Engine> {
    Ok(Engine::builder().threads(1).max_batch(max_batch).build()?)
}

pub fn serve_config() -> ServerConfig {
    ServerConfig {
        workers: 1,
        queue_depth: 64,
        default_deadline: None,
        max_batch: SERVE_MAX_BATCH,
        batch_max_wait: Duration::from_micros(200),
        ..ServerConfig::default()
    }
}

/// What set-up leaves behind for the op loop.
pub enum Ready {
    Stream { session: Session },
    Serve { server: Server },
    Cold { bytes: Vec<u8> },
}

impl Ready {
    /// Ends the workload: a server must drain clean.
    pub fn finish(self) -> Res<()> {
        if let Ready::Serve { server } = self {
            let report = server.shutdown();
            if !report.clean {
                return Err(format!("server did not drain clean: {report:?}").into());
            }
        }
        Ok(())
    }
}

/// The whole set-up before the first timed op: graph build, ONNX export,
/// load, and the workload's fixed count of warm-up ops.
pub fn set_up(w: &Workload, inputs: &[Tensor], rec: &mut Recorder) -> Res<Ready> {
    let span = rec.begin("models.build_model");
    let graph = model_graph(w);
    rec.end(span);
    let span = rec.begin("onnx.export_model");
    let bytes = export_model(&graph)?;
    rec.end(span);
    drop(graph);
    let mut ready = deploy(w, bytes, rec)?;
    let span = rec.begin("bench.warm_up");
    warm_up(&mut ready, inputs, w.warmup)?;
    rec.end(span);
    Ok(ready)
}

/// What a deployment does with model bytes before it can answer: load them
/// and hold a session, or start a server. A cold start only keeps the bytes;
/// loading them is its op.
fn deploy(w: &Workload, bytes: Vec<u8>, rec: &mut Recorder) -> Res<Ready> {
    if w.driver == Driver::ColdStart {
        return Ok(Ready::Cold { bytes });
    }
    let engine = engine(w.max_batch())?;
    let span = rec.begin("core.load_onnx");
    let network = engine.load_onnx(&bytes)?;
    rec.end(span);
    drop(bytes);
    if w.driver == Driver::Stream {
        let span = rec.begin("core.session_new");
        let session = network.session();
        rec.end(span);
        return Ok(Ready::Stream { session });
    }
    let span = rec.begin("serve.start");
    let server = Server::start(Arc::new(network), serve_config());
    rec.end(span);
    Ok(Ready::Serve { server })
}

/// `count` unchecked warm-up ops (for a server: passes over the burst sizes,
/// so each batch rung's arena is provisioned before a timed request needs it).
fn warm_up(ready: &mut Ready, inputs: &[Tensor], count: usize) -> Res<()> {
    match ready {
        Ready::Stream { session } => {
            for i in 0..count {
                session.run(&inputs[i % inputs.len()])?;
            }
        }
        Ready::Cold { bytes } => {
            for i in 0..count {
                cold_op(bytes, &inputs[i % inputs.len()], &mut Recorder::new(false))?;
            }
        }
        Ready::Serve { server } => warm_server(server, inputs, count)?,
    }
    Ok(())
}

/// `passes` passes over the burst sizes, each burst answered before the next.
pub fn warm_server(server: &Server, inputs: &[Tensor], passes: usize) -> Res<()> {
    for _ in 0..passes {
        for &size in &BURST_DECK {
            let tickets: Vec<Ticket> = (0..size)
                .map(|i| server.submit(inputs[i % inputs.len()].clone()))
                .collect::<Result<_, _>>()?;
            for ticket in tickets {
                ticket.wait()?;
            }
        }
    }
    Ok(())
}

/// When an op loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// Measure for this long (the timed runs).
    Elapsed(Duration),
    /// Do this many ops (the traced replay and the probes); for the server,
    /// this many bursts, rounded up to whole decks, and no closed window.
    Ops(usize),
}

/// What an op loop measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Latency of every correct op, in the order the ops ran.
    pub latency_ns: Vec<u64>,
    /// Consecutive latencies that make one window: [`WINDOW_OPS`] ops of a
    /// closed loop, the requests of one deck of bursts of the open loop.
    pub latency_window: usize,
    /// When each correct op that counts towards throughput was done and
    /// checked, in nanoseconds since its loop started (for the server: the
    /// closed window only).
    pub done_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Server-side stages; only the serve driver fills it.
    pub serve: Option<ServeStages>,
}

/// Raw server-side samples of an open-loop phase.
#[derive(Debug, Default)]
pub struct ServeStages {
    pub queue_wait_ns: Vec<u64>,
    pub service_ns: Vec<u64>,
    pub submit_ns: Vec<u64>,
    /// How late each burst's first submit was against its due instant.
    pub lag_ns: Vec<u64>,
    /// Server counters over both phases (difference of two snapshots).
    pub stats: StatsSnapshot,
}

/// Runs one op loop of the workload's driver.
pub fn run_ops(
    ready: &mut Ready,
    inputs: &[Tensor],
    oracle: &Oracle,
    seed: u64,
    until: Until,
    rec: &mut Recorder,
) -> Res<Measured> {
    match ready {
        Ready::Stream { session } => Ok(closed_loop(
            until,
            |i, rec| {
                let index = i % inputs.len();
                rec.next_op();
                let span = rec.begin("core.session_run");
                let t0 = Instant::now();
                let result = session.run(&inputs[index]);
                let t1 = Instant::now();
                rec.end(span);
                result
                    .is_ok_and(|out| oracle.accepts(index, out))
                    .then(|| t1.duration_since(t0))
            },
            rec,
        )),
        Ready::Cold { bytes } => Ok(closed_loop(
            until,
            |i, rec| {
                let index = i % inputs.len();
                rec.next_op();
                let t0 = Instant::now();
                // The op ends at the first answer; dropping the engine,
                // network and session comes after and is not latency.
                let (out, ended) = cold_op(bytes, &inputs[index], rec).ok()?;
                oracle
                    .accepts(index, &out)
                    .then(|| ended.duration_since(t0))
            },
            rec,
        )),
        Ready::Serve { server } => {
            let (bursts, window) = match until {
                Until::Elapsed(d) => {
                    let open = d.mul_f64(OPEN_SHARE);
                    let decks = (open.as_secs_f64() / BURST_PERIOD.as_secs_f64()).round() as usize
                        / BURST_DECK.len();
                    let bursts = decks.max(1) * BURST_DECK.len();
                    (bursts, d.saturating_sub(BURST_PERIOD * bursts as u32))
                }
                Until::Ops(n) => (
                    n.div_ceil(BURST_DECK.len()) * BURST_DECK.len(),
                    Duration::ZERO,
                ),
            };
            serve_ops(
                server,
                inputs,
                oracle,
                &burst_sizes(seed, bursts),
                BURST_PERIOD,
                window,
                rec,
            )
        }
    }
}

/// One caller, closed loop: the next op starts when the last one was
/// checked. `op` returns the op's latency, or `None` for an op that failed
/// or answered wrong.
fn closed_loop(
    until: Until,
    mut op: impl FnMut(usize, &mut Recorder) -> Option<Duration>,
    rec: &mut Recorder,
) -> Measured {
    let mut out = Measured {
        latency_window: WINDOW_OPS,
        ..Measured::default()
    };
    let capacity = match until {
        Until::Elapsed(d) => (d.as_secs() as usize + 1) * 2048,
        Until::Ops(n) => n,
    };
    out.latency_ns.reserve(capacity);
    out.done_ns.reserve(capacity);
    let start = Instant::now();
    loop {
        let latency = op(out.attempted as usize, rec);
        let elapsed = start.elapsed();
        match latency {
            Some(latency) => {
                out.latency_ns.push(latency.as_nanos() as u64);
                out.done_ns.push(elapsed.as_nanos() as u64);
            }
            None => out.failed += 1,
        }
        out.attempted += 1;
        let done = match until {
            Until::Elapsed(d) => elapsed >= d,
            Until::Ops(n) => out.attempted as usize >= n,
        };
        if done {
            break;
        }
    }
    out
}

/// Model bytes to first answer: engine, load, session, first run. Returns
/// the output and the instant the answer was there, taken before the engine,
/// network and session are dropped.
pub fn cold_op(bytes: &[u8], input: &Tensor, rec: &mut Recorder) -> Res<(Tensor, Instant)> {
    let op = rec.begin("bench.cold_op");
    let answer = cold_steps(bytes, input, rec);
    // Also closes the span of a step that failed.
    rec.end(op);
    answer
}

fn cold_steps(bytes: &[u8], input: &Tensor, rec: &mut Recorder) -> Res<(Tensor, Instant)> {
    let engine = engine(1)?;
    let span = rec.begin("core.load_onnx");
    let network = engine.load_onnx(bytes)?;
    rec.end(span);
    let span = rec.begin("core.session_new");
    let mut session = network.session();
    rec.end(span);
    let span = rec.begin("core.first_run");
    let output = session.run(input)?.clone();
    rec.end(span);
    Ok((output, Instant::now()))
}

/// The burst-size schedule: `bursts / 6` decks of [`BURST_DECK`], each
/// shuffled by the seed (Fisher–Yates), so any six consecutive bursts from a
/// deck boundary offer every size once.
pub fn burst_sizes(seed: u64, bursts: usize) -> Vec<usize> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xb0b5_7b0b_5ca1_ab1e);
    let mut sizes = Vec::with_capacity(bursts);
    for _ in 0..bursts / BURST_DECK.len() {
        let mut deck = BURST_DECK;
        for i in (1..deck.len()).rev() {
            deck.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        sizes.extend(deck);
    }
    sizes
}

/// Sleeps to just before `due`, then spins: the generator must not be the
/// thing that is late. On the shared host a sleep overshoots by up to a
/// millisecond; 2 ms of spinning per 200 ms period covers that for 1% of a
/// core.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_millis(2);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

fn stats_since(before: StatsSnapshot, after: StatsSnapshot) -> StatsSnapshot {
    StatsSnapshot {
        completed_primary: after.completed_primary - before.completed_primary,
        completed_reference: after.completed_reference - before.completed_reference,
        shed_overload: after.shed_overload - before.shed_overload,
        shed_deadline: after.shed_deadline - before.shed_deadline,
        shed_shutdown: after.shed_shutdown - before.shed_shutdown,
        faulted: after.faulted - before.faulted,
        exec_errors: after.exec_errors - before.exec_errors,
        panics_isolated: after.panics_isolated - before.panics_isolated,
        respawns: after.respawns - before.respawns,
        breaker_trips: after.breaker_trips - before.breaker_trips,
        breaker_closes: after.breaker_closes - before.breaker_closes,
        batches: after.batches - before.batches,
        batched_requests: after.batched_requests - before.batched_requests,
    }
}

/// Phase A, open loop: one generator thread submits a burst every `period`
/// and times each request from the burst's *due* instant to
/// its reply, so a stall delays — and is charged to — the requests behind it.
/// Phase B, closed window: the same thread keeps [`CLOSED_OUTSTANDING`]
/// requests in flight for `window`; only this phase feeds `done_ns`, and so
/// throughput.
pub fn serve_ops(
    server: &Server,
    inputs: &[Tensor],
    oracle: &Oracle,
    sizes: &[usize],
    period: Duration,
    window: Duration,
    rec: &mut Recorder,
) -> Res<Measured> {
    let before = server.stats();
    let mut out = Measured {
        latency_window: BURST_DECK.iter().sum(),
        ..Measured::default()
    };
    let mut stages = ServeStages::default();
    let mut next_input = 0usize;
    let check = |result: ServeResult, index: usize| -> Option<ServeReply> {
        result
            .ok()
            .filter(|reply| oracle.accepts(index, &reply.output))
    };

    let start = Instant::now() + Duration::from_millis(5);
    for (b, &size) in sizes.iter().enumerate() {
        // Clone the burst's inputs while idle, not while its clock runs.
        let batch: Vec<(usize, Tensor)> = (0..size)
            .map(|_| {
                let index = next_input % inputs.len();
                next_input += 1;
                (index, inputs[index].clone())
            })
            .collect();
        let due = start + period * b as u32;
        wait_until(due);
        rec.next_op();
        let burst = rec.begin("bench.burst");
        let mut tickets = Vec::with_capacity(size);
        for (index, input) in batch {
            let span = rec.begin("serve.submit");
            let t0 = Instant::now();
            let ticket = server.submit(input);
            let t1 = Instant::now();
            rec.end(span);
            stages
                .submit_ns
                .push(t1.duration_since(t0).as_nanos() as u64);
            tickets.push((index, t0, ticket));
        }
        stages
            .lag_ns
            .push(tickets[0].1.duration_since(due).as_nanos() as u64);
        for (index, submitted, ticket) in tickets {
            out.attempted += 1;
            let span = rec.begin("serve.ticket_wait");
            let result = ticket.and_then(Ticket::wait);
            rec.end(span);
            match check(result, index) {
                Some(reply) => {
                    let late = submitted.duration_since(due);
                    out.latency_ns.push((late + reply.total).as_nanos() as u64);
                    stages
                        .queue_wait_ns
                        .push(reply.queue_wait.as_nanos() as u64);
                    stages
                        .service_ns
                        .push((reply.total - reply.queue_wait).as_nanos() as u64);
                    rec.add("serve.queue_wait", submitted, submitted + reply.queue_wait);
                    rec.add(
                        "serve.service",
                        submitted + reply.queue_wait,
                        submitted + reply.total,
                    );
                }
                None => out.failed += 1,
            }
        }
        rec.end(burst);
    }

    if !window.is_zero() {
        let mut flight: VecDeque<(usize, Ticket)> = VecDeque::with_capacity(CLOSED_OUTSTANDING);
        let start = Instant::now();
        let mut submit = |flight: &mut VecDeque<(usize, Ticket)>| -> Res<()> {
            let index = next_input % inputs.len();
            next_input += 1;
            flight.push_back((index, server.submit(inputs[index].clone())?));
            Ok(())
        };
        for _ in 0..CLOSED_OUTSTANDING {
            submit(&mut flight)?;
        }
        while let Some((index, ticket)) = flight.pop_front() {
            let ok = check(ticket.wait(), index).is_some();
            let elapsed = start.elapsed();
            // Requests answered after the window closed ran at falling
            // concurrency: they are checked, but not counted in throughput.
            if elapsed < window {
                if ok {
                    out.done_ns.push(elapsed.as_nanos() as u64);
                }
                submit(&mut flight)?;
            }
            out.attempted += 1;
            out.failed += u64::from(!ok);
        }
    }
    stages.stats = stats_since(before, server.stats());
    out.serve = Some(stages);
    Ok(out)
}
