//! The fault-isolated concurrent serving core.
//!
//! A [`Server`] owns a bounded intake queue and a pool of worker threads,
//! each holding a pre-planned [`Session`] over a shared [`Network`] (the
//! plan and weights live behind an `Arc`; each worker owns a private
//! activation arena). Robustness is wired at every layer:
//!
//! * **Load shedding** — the queue is bounded; a full queue rejects with
//!   [`ServeError::Overloaded`] at submit time instead of growing.
//! * **Deadlines** — a request's budget is checked at enqueue *and* again
//!   before dispatch; expired requests are shed, never run.
//! * **Panic isolation** — `Session::run` executes under `catch_unwind`; a
//!   poisoned worker responds with an error and keeps serving on the same
//!   session, which holds no state a panic can strand (no replanning).
//! * **Circuit breaker** — N consecutive primary failures trip the breaker
//!   open and traffic degrades to a reference-implementation session; a
//!   half-open probe schedule restores the primary path when it recovers.
//! * **Graceful drain** — [`Server::shutdown`] stops intake, finishes the
//!   backlog within a drain timeout, and force-sheds whatever remains.
//! * **Dynamic batching** — when the network was loaded with a batch
//!   ladder, a worker coalesces up to [`ServerConfig::max_batch`] queued
//!   requests into one bucketed session run (lingering at most
//!   [`ServerConfig::batch_max_wait`] for stragglers) and scatters the
//!   output rows back to the individual responders. A failed or panicked
//!   batched run degrades to per-request serving, so coalescing never
//!   weakens the isolation guarantees.
//!
//! Every shed, trip, respawn, and drain event lands in the always-on flight
//! recorder and (when recording is enabled) the metrics registry, so the
//! OpenMetrics export covers the serving layer out of the box.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use orpheus::{Network, Session};
use orpheus_observe as observe;
use orpheus_tensor::Tensor;

use crate::breaker::{CircuitBreaker, Route, Transition};
use crate::queue::{BoundedQueue, PushError};

/// Serving configuration; every knob has a production-shaped default.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads, each with a private pre-planned session.
    pub workers: usize,
    /// Intake queue bound; a full queue sheds with [`ServeError::Overloaded`].
    pub queue_depth: usize,
    /// Deadline budget applied to requests submitted without an explicit
    /// one. `None` = no deadline.
    pub default_deadline: Option<Duration>,
    /// Consecutive primary failures before the circuit breaker trips.
    pub breaker_threshold: u32,
    /// How long the breaker stays open before half-opening a probe.
    pub breaker_cooldown: Duration,
    /// How long [`Server::shutdown`] waits for the backlog before
    /// force-shedding the remainder.
    pub drain_timeout: Duration,
    /// Most requests a worker coalesces into one batched session run.
    ///
    /// Effective only when the network was loaded with a batch ladder
    /// (`Engine::builder().max_batch(..)`); the server clamps this to what
    /// the network can actually serve. `1` (the default) disables
    /// coalescing entirely — every request runs alone, exactly as before.
    pub max_batch: usize,
    /// How long a worker lingers for more requests after picking up the
    /// first one of a batch. Bounds the latency cost of coalescing: a lone
    /// request waits at most this long, a full batch not at all.
    pub batch_max_wait: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            queue_depth: 64,
            default_deadline: None,
            breaker_threshold: 5,
            breaker_cooldown: Duration::from_millis(250),
            drain_timeout: Duration::from_secs(5),
            max_batch: 1,
            batch_max_wait: Duration::from_micros(200),
        }
    }
}

/// Why a request did not produce an output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The bounded queue was full; the request was shed at enqueue.
    Overloaded,
    /// The deadline budget expired before the request could run.
    DeadlineExpired,
    /// The server is draining; intake is closed.
    ShuttingDown,
    /// Execution failed on both the primary and the reference path.
    Faulted(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded => write!(f, "queue full: request shed"),
            ServeError::DeadlineExpired => write!(f, "deadline expired before execution"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Faulted(msg) => write!(f, "execution faulted: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A completed inference, with where and how it ran.
#[derive(Debug, Clone)]
pub struct ServeReply {
    /// The model output.
    pub output: Tensor,
    /// Which execution path served the request.
    pub route: Route,
    /// Time spent queued before a worker picked the request up.
    pub queue_wait: Duration,
    /// End-to-end time from enqueue to response.
    pub total: Duration,
}

/// The outcome every submitted request eventually resolves to.
pub type ServeResult = Result<ServeReply, ServeError>;

/// A handle to one in-flight request.
#[derive(Debug)]
pub struct Ticket {
    rx: Receiver<ServeResult>,
}

impl Ticket {
    /// Blocks until the request resolves. Every accepted request resolves:
    /// completion, shed, fallback, or fault — a worker panic cannot leave
    /// the ticket dangling.
    pub fn wait(self) -> ServeResult {
        self.rx
            .recv()
            .unwrap_or_else(|_| Err(ServeError::Faulted("response channel dropped".into())))
    }
}

struct Request {
    input: Tensor,
    deadline: Option<Instant>,
    enqueued: Instant,
    responder: Sender<ServeResult>,
}

/// Monotonic serving counters, updated lock-free by workers and callers.
#[derive(Debug, Default)]
pub struct ServerStats {
    completed_primary: AtomicU64,
    completed_reference: AtomicU64,
    shed_overload: AtomicU64,
    shed_deadline: AtomicU64,
    shed_shutdown: AtomicU64,
    faulted: AtomicU64,
    exec_errors: AtomicU64,
    panics_isolated: AtomicU64,
    respawns: AtomicU64,
    breaker_trips: AtomicU64,
    breaker_closes: AtomicU64,
    batches: AtomicU64,
    batched_requests: AtomicU64,
}

/// A point-in-time copy of [`ServerStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Requests completed on the primary (planned) path.
    pub completed_primary: u64,
    /// Requests completed on the reference path (breaker open, or rescued
    /// by the request-level fallback retry).
    pub completed_reference: u64,
    /// Requests shed because the queue was full.
    pub shed_overload: u64,
    /// Requests shed because their deadline expired.
    pub shed_deadline: u64,
    /// Requests shed because the server was draining.
    pub shed_shutdown: u64,
    /// Requests that failed on both paths.
    pub faulted: u64,
    /// Primary execution errors observed (before any rescue).
    pub exec_errors: u64,
    /// Panics caught by worker isolation.
    pub panics_isolated: u64,
    /// Session re-arms after a caught panic.
    pub respawns: u64,
    /// Circuit-breaker trips (including failed probes re-tripping).
    pub breaker_trips: u64,
    /// Circuit-breaker half-open probes that closed the breaker.
    pub breaker_closes: u64,
    /// Coalesced session runs that served two or more requests at once.
    pub batches: u64,
    /// Requests served through a coalesced (multi-request) run.
    pub batched_requests: u64,
}

impl StatsSnapshot {
    /// Total requests that received a terminal response.
    pub fn resolved(&self) -> u64 {
        self.completed_primary
            + self.completed_reference
            + self.shed_overload
            + self.shed_deadline
            + self.shed_shutdown
            + self.faulted
    }

    /// Completions across both routes.
    pub fn completed(&self) -> u64 {
        self.completed_primary + self.completed_reference
    }
}

impl ServerStats {
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            completed_primary: self.completed_primary.load(Ordering::Relaxed),
            completed_reference: self.completed_reference.load(Ordering::Relaxed),
            shed_overload: self.shed_overload.load(Ordering::Relaxed),
            shed_deadline: self.shed_deadline.load(Ordering::Relaxed),
            shed_shutdown: self.shed_shutdown.load(Ordering::Relaxed),
            faulted: self.faulted.load(Ordering::Relaxed),
            exec_errors: self.exec_errors.load(Ordering::Relaxed),
            panics_isolated: self.panics_isolated.load(Ordering::Relaxed),
            respawns: self.respawns.load(Ordering::Relaxed),
            breaker_trips: self.breaker_trips.load(Ordering::Relaxed),
            breaker_closes: self.breaker_closes.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batched_requests: self.batched_requests.load(Ordering::Relaxed),
        }
    }
}

/// How [`Server::shutdown`] went.
#[derive(Debug, Clone, Copy)]
pub struct DrainReport {
    /// True when the backlog drained in time and every worker exited
    /// normally: nothing was force-shed and no worker thread had died.
    pub clean: bool,
    /// Requests force-shed with [`ServeError::ShuttingDown`] after the
    /// drain timeout.
    pub shed: usize,
    /// Worker threads that terminated by panic instead of joining cleanly.
    /// Always 0 unless panic isolation itself is broken.
    pub worker_panics: usize,
    /// Wall time the drain took (including joining in-flight work).
    pub waited: Duration,
}

struct Shared {
    network: Arc<Network>,
    queue: BoundedQueue<Request>,
    breaker: Mutex<CircuitBreaker>,
    stats: ServerStats,
    accepting: AtomicBool,
    in_flight: AtomicUsize,
    /// Requests a worker may coalesce per run: `config.max_batch` clamped
    /// to the network's planned batch headroom. 1 = no coalescing.
    coalesce: usize,
    /// The network's batch-bucket ladder in request units (bucket batch
    /// over the per-request batch), ascending. Coalesced runs happen only
    /// at these exact sizes — padding a half-full bucket wastes compute on
    /// rows that are sliced away.
    bucket_rungs: Vec<usize>,
    batch_wait: Duration,
}

impl Shared {
    fn breaker_lock(&self) -> std::sync::MutexGuard<'_, CircuitBreaker> {
        self.breaker.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Largest coalescible run size (a planned rung) not exceeding
    /// `pending` requests; 1 when no multi-request rung fits.
    fn bucket_fit(&self, pending: usize) -> usize {
        let cap = pending.min(self.coalesce);
        self.bucket_rungs
            .iter()
            .rev()
            .find(|&&rung| rung <= cap)
            .copied()
            .unwrap_or(1)
    }
}

/// A concurrent, fault-isolated model server over one loaded [`Network`].
pub struct Server {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    config: ServerConfig,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("model", &self.shared.network.name())
            .field("config", &self.config)
            .finish()
    }
}

impl Server {
    /// Starts the worker pool: `config.workers` threads, each pre-planning
    /// its private session before intake opens (cold-start work happens
    /// here, not on the first request).
    pub fn start(network: Arc<Network>, config: ServerConfig) -> Server {
        // How many base-shaped requests fit one planned bucket run: the
        // network's max batch over its per-request batch, clamped by config.
        // The read-only plan summary is the supported view of the ladder.
        let summary = network.plan_summary();
        let base_batch = summary.input_dims.first().copied().unwrap_or(1).max(1);
        let mut bucket_rungs: Vec<usize> = summary
            .batch_buckets
            .iter()
            .map(|bucket| bucket.batch)
            .filter(|b| b.is_multiple_of(base_batch))
            .map(|b| b / base_batch)
            .filter(|&rung| rung >= 1)
            .collect();
        if bucket_rungs.is_empty() {
            bucket_rungs.push(1);
        }
        let coalesce = config
            .max_batch
            .max(1)
            .min(bucket_rungs.last().copied().unwrap_or(1));
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(config.queue_depth),
            breaker: Mutex::new(CircuitBreaker::new(
                config.breaker_threshold,
                config.breaker_cooldown,
            )),
            stats: ServerStats::default(),
            accepting: AtomicBool::new(true),
            in_flight: AtomicUsize::new(0),
            coalesce,
            bucket_rungs,
            batch_wait: config.batch_max_wait,
            network,
        });
        let workers = (0..config.workers.max(1))
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("orpheus-serve-{id}"))
                    .spawn(move || worker_main(&shared, id))
                    .expect("spawn serve worker")
            })
            .collect();
        observe::flight_record(
            "serve",
            "start",
            format!(
                "{}: {} worker(s), queue depth {}, batch up to {} request(s), gemm {}",
                shared.network.name(),
                config.workers.max(1),
                shared.queue.capacity(),
                shared.coalesce,
                summary.gemm_isa
            ),
        );
        Server {
            shared,
            workers: Mutex::new(workers),
            config,
        }
    }

    /// The served model's name.
    pub fn model(&self) -> &str {
        self.shared.network.name()
    }

    /// Requests currently queued (excludes in-flight).
    pub fn queue_len(&self) -> usize {
        self.shared.queue.len()
    }

    /// Current serving counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// The breaker's current state.
    pub fn breaker_state(&self) -> crate::breaker::BreakerState {
        self.shared.breaker_lock().state()
    }

    /// Submits a request with the configured default deadline.
    ///
    /// # Errors
    ///
    /// Sheds immediately with [`ServeError::Overloaded`] (queue full),
    /// [`ServeError::DeadlineExpired`] (zero budget), or
    /// [`ServeError::ShuttingDown`] (drain in progress).
    pub fn submit(&self, input: Tensor) -> Result<Ticket, ServeError> {
        self.submit_with_deadline(input, self.config.default_deadline)
    }

    /// Submits a request with an explicit deadline budget (`None` = no
    /// deadline), overriding the configured default.
    ///
    /// # Errors
    ///
    /// See [`Server::submit`].
    pub fn submit_with_deadline(
        &self,
        input: Tensor,
        budget: Option<Duration>,
    ) -> Result<Ticket, ServeError> {
        if !self.shared.accepting.load(Ordering::Acquire) {
            self.shared
                .stats
                .shed_shutdown
                .fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::ShuttingDown);
        }
        let now = Instant::now();
        let deadline = budget.map(|b| now + b);
        // Enqueue-side deadline check: a zero budget is dead on arrival.
        if deadline.is_some_and(|d| d <= now) {
            self.shared
                .stats
                .shed_deadline
                .fetch_add(1, Ordering::Relaxed);
            observe::counter_add("serve.deadline_expired", 1);
            observe::flight_record(
                "serve",
                "deadline.expired",
                format!("{}: expired at enqueue", self.model()),
            );
            return Err(ServeError::DeadlineExpired);
        }
        let (tx, rx) = channel();
        let request = Request {
            input,
            deadline,
            enqueued: now,
            responder: tx,
        };
        match self.shared.queue.try_push(request) {
            Ok(()) => Ok(Ticket { rx }),
            Err(PushError::Full(_)) => {
                self.shared
                    .stats
                    .shed_overload
                    .fetch_add(1, Ordering::Relaxed);
                observe::counter_add("serve.shed", 1);
                observe::flight_record(
                    "serve",
                    "shed",
                    format!(
                        "{}: queue full (depth {})",
                        self.model(),
                        self.shared.queue.capacity()
                    ),
                );
                Err(ServeError::Overloaded)
            }
            Err(PushError::Closed(_)) => {
                self.shared
                    .stats
                    .shed_shutdown
                    .fetch_add(1, Ordering::Relaxed);
                Err(ServeError::ShuttingDown)
            }
        }
    }

    /// Submits a request and blocks for its outcome.
    pub fn infer(&self, input: Tensor) -> ServeResult {
        self.submit(input)?.wait()
    }

    /// Gracefully drains and stops the server: intake closes immediately,
    /// workers finish the backlog, and whatever is still queued when the
    /// drain timeout expires is shed with [`ServeError::ShuttingDown`].
    /// In-flight requests always run to completion.
    ///
    /// Idempotent: a second call returns an empty clean report.
    pub fn shutdown(&self) -> DrainReport {
        let start = Instant::now();
        let first = self.shared.accepting.swap(false, Ordering::AcqRel);
        self.shared.queue.close();
        if first {
            observe::flight_record(
                "serve",
                "drain.begin",
                format!("{}: {} queued", self.model(), self.shared.queue.len()),
            );
        }
        let deadline = start + self.config.drain_timeout;
        while !(self.shared.queue.is_empty() && self.shared.in_flight.load(Ordering::Acquire) == 0)
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_micros(500));
        }
        // Timeout-bounded drain: everything still queued is shed; the
        // responses make the shutdown visible to waiting callers.
        let mut shed = 0;
        for request in self.shared.queue.drain() {
            let _ = request.responder.send(Err(ServeError::ShuttingDown));
            self.shared
                .stats
                .shed_shutdown
                .fetch_add(1, Ordering::Relaxed);
            observe::counter_add("serve.shed", 1);
            shed += 1;
        }
        // Workers exit once the queue is closed and empty; join bounds the
        // in-flight work. A join error means a panic escaped isolation —
        // surfaced in the report, never swallowed.
        let handles: Vec<JoinHandle<()>> = {
            let mut workers = self.workers.lock().unwrap_or_else(PoisonError::into_inner);
            workers.drain(..).collect()
        };
        let worker_panics = handles
            .into_iter()
            .map(|h| h.join())
            .filter(Result::is_err)
            .count();
        let waited = start.elapsed();
        let clean = shed == 0 && worker_panics == 0;
        if first {
            observe::flight_record(
                "serve",
                "drain.end",
                format!(
                    "{}: clean={clean} shed={shed} worker_panics={worker_panics} in {waited:?}",
                    self.model()
                ),
            );
        }
        DrainReport {
            clean,
            shed,
            worker_panics,
            waited,
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Belt and braces: a dropped server still stops its workers. The
        // explicit shutdown() path is the one that reports.
        self.shared.accepting.store(false, Ordering::Release);
        self.shared.queue.close();
        let handles: Vec<JoinHandle<()>> = {
            let mut workers = self.workers.lock().unwrap_or_else(PoisonError::into_inner);
            workers.drain(..).collect()
        };
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// What one isolated execution attempt produced.
enum Attempt {
    Ok(Tensor),
    Error(String),
    Panicked(String),
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one inference under `catch_unwind`. A panic is converted into data;
/// the session stays usable as it is.
fn isolated_run(session: &mut Session, input: &Tensor) -> Attempt {
    match catch_unwind(AssertUnwindSafe(|| session.run(input).cloned())) {
        Ok(Ok(output)) => Attempt::Ok(output),
        Ok(Err(e)) => Attempt::Error(e.to_string()),
        Err(payload) => Attempt::Panicked(panic_message(payload.as_ref())),
    }
}

/// Per-worker state: the primary session plus a lazily-built reference
/// session for degraded routes.
struct Worker<'a> {
    shared: &'a Shared,
    id: usize,
    session: Session,
    reference: Option<Session>,
}

impl Worker<'_> {
    /// Records a caught panic. The faulted session needs no repair: its
    /// arena is never taken apart, so the next run simply overwrites it.
    fn respawn(&mut self, which: Route, message: &str) {
        self.shared
            .stats
            .panics_isolated
            .fetch_add(1, Ordering::Relaxed);
        self.shared.stats.respawns.fetch_add(1, Ordering::Relaxed);
        observe::counter_add("serve.worker_respawn", 1);
        observe::flight_record(
            "serve",
            "worker.respawn",
            format!(
                "worker {} ({:?} route) isolated panic, session kept: {}",
                self.id,
                which,
                observe::truncate(message, 120)
            ),
        );
    }

    /// Reports a primary failure to the breaker, recording a trip.
    fn breaker_failure(&mut self) {
        let transition = self.shared.breaker_lock().on_failure(Instant::now());
        if transition == Transition::Opened {
            self.shared
                .stats
                .breaker_trips
                .fetch_add(1, Ordering::Relaxed);
            observe::counter_add("serve.breaker_open", 1);
            observe::flight_record(
                "serve",
                "breaker.open",
                format!(
                    "{}: tripped to the reference path",
                    self.shared.network.name()
                ),
            );
        }
    }

    /// Runs the request on the reference session (breaker-open traffic and
    /// the request-level rescue after a primary failure).
    fn serve_reference(&mut self, input: &Tensor) -> Attempt {
        let reference = self
            .reference
            .get_or_insert_with(|| self.shared.network.reference_session());
        let attempt = isolated_run(reference, input);
        if let Attempt::Panicked(msg) = &attempt {
            let msg = msg.clone();
            self.respawn(Route::Reference, &msg);
        }
        attempt
    }

    fn serve_one(&mut self, request: Request) {
        let now = Instant::now();
        // Dispatch-side deadline check: a request that expired while queued
        // is shed, never run.
        if request.deadline.is_some_and(|d| now >= d) {
            self.shared
                .stats
                .shed_deadline
                .fetch_add(1, Ordering::Relaxed);
            observe::counter_add("serve.deadline_expired", 1);
            observe::flight_record(
                "serve",
                "deadline.expired",
                format!(
                    "{}: expired after {:?} queued",
                    self.shared.network.name(),
                    now.duration_since(request.enqueued)
                ),
            );
            let _ = request.responder.send(Err(ServeError::DeadlineExpired));
            return;
        }
        let queue_wait = now.duration_since(request.enqueued);
        observe::histogram_record("serve.queue_wait_us", queue_wait.as_micros() as u64);

        let route = self.shared.breaker_lock().route(now);
        let (attempt, served_route) = match route {
            Route::Primary => match isolated_run(&mut self.session, &request.input) {
                Attempt::Ok(output) => {
                    let transition = self.shared.breaker_lock().on_success();
                    if transition == Transition::Closed {
                        self.shared
                            .stats
                            .breaker_closes
                            .fetch_add(1, Ordering::Relaxed);
                        observe::counter_add("serve.breaker_close", 1);
                        observe::flight_record(
                            "serve",
                            "breaker.close",
                            format!(
                                "{}: probe succeeded, primary path restored",
                                self.shared.network.name()
                            ),
                        );
                    }
                    (Attempt::Ok(output), Route::Primary)
                }
                Attempt::Error(e) => {
                    self.shared
                        .stats
                        .exec_errors
                        .fetch_add(1, Ordering::Relaxed);
                    self.breaker_failure();
                    // Request-level rescue: one retry on the reference path
                    // so the caller sees a completion, not a 500.
                    let _ = e;
                    (self.serve_reference(&request.input), Route::Reference)
                }
                Attempt::Panicked(msg) => {
                    self.respawn(Route::Primary, &msg);
                    self.breaker_failure();
                    (self.serve_reference(&request.input), Route::Reference)
                }
            },
            Route::Reference => (self.serve_reference(&request.input), Route::Reference),
        };

        let result = match attempt {
            Attempt::Ok(output) => {
                match served_route {
                    Route::Primary => {
                        self.shared
                            .stats
                            .completed_primary
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    Route::Reference => {
                        self.shared
                            .stats
                            .completed_reference
                            .fetch_add(1, Ordering::Relaxed);
                        observe::counter_add("serve.fallback", 1);
                    }
                }
                let total = request.enqueued.elapsed();
                observe::histogram_record("serve.latency_us", total.as_micros() as u64);
                Ok(ServeReply {
                    output,
                    route: served_route,
                    queue_wait,
                    total,
                })
            }
            Attempt::Error(e) => {
                self.shared.stats.faulted.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::Faulted(e))
            }
            Attempt::Panicked(msg) => {
                self.shared.stats.faulted.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::Faulted(format!("panic isolated: {msg}")))
            }
        };
        let _ = request.responder.send(result);
    }

    /// Serves a coalesced intake batch: compatible requests are stacked
    /// into one bucketed session run and the output rows scattered back to
    /// their responders; anything that cannot batch (mixed shapes, breaker
    /// open, or a failed/panicked batched run) degrades to the per-request
    /// [`serve_one`] path, so every coalesced request still resolves with
    /// its own routing, rescue, and deadline handling.
    ///
    /// [`serve_one`]: Worker::serve_one
    fn serve_batch(&mut self, mut batch: Vec<Request>) {
        if batch.len() == 1 {
            return self.serve_one(batch.pop().expect("len checked"));
        }
        let now = Instant::now();
        // Expired requests are shed through `serve_one`'s dispatch-side
        // check; only live ones are worth stacking.
        let (mut live, expired): (Vec<Request>, Vec<Request>) = batch
            .drain(..)
            .partition(|r| r.deadline.is_none_or(|d| now < d));
        for request in expired {
            self.serve_one(request);
        }
        let base = self.shared.network.input_dims().to_vec();
        let uniform = live.iter().all(|r| r.input.dims() == base.as_slice());
        // Coalesced runs happen only at exact planned rungs: padding a
        // half-full bucket run wastes compute on rows that are sliced
        // away, so the intake batch is chunked into the largest rungs
        // that fit and any tail is served serially below.
        while uniform
            && live.len() > 1
            && self.shared.breaker_lock().route(Instant::now()) == Route::Primary
        {
            let n = self.shared.bucket_fit(live.len());
            if n <= 1 {
                break;
            }
            let chunk: Vec<Request> = live.drain(..n).collect();
            self.run_coalesced(chunk, &base);
        }
        for request in live {
            self.serve_one(request);
        }
    }

    /// One stacked session run over `chunk` (all inputs base-shaped and
    /// live, `chunk.len()` a planned bucket rung), scattering the output
    /// rows back to their responders. A failed or panicked run degrades
    /// every chunked request to [`serve_one`], so each still resolves
    /// with its own routing, rescue, and deadline handling.
    ///
    /// [`serve_one`]: Worker::serve_one
    fn run_coalesced(&mut self, live: Vec<Request>, base: &[usize]) {
        let n = live.len();
        let now = Instant::now();
        let coalesce_started = now;
        let mut dims = base.to_vec();
        dims[0] *= n;
        let mut data = Vec::with_capacity(dims.iter().product());
        for request in &live {
            data.extend_from_slice(request.input.as_slice());
        }
        let stacked = match Tensor::from_vec(data, &dims) {
            Ok(t) => t,
            Err(_) => {
                // Unreachable with shape-checked inputs; degrade, don't drop.
                for request in live {
                    self.serve_one(request);
                }
                return;
            }
        };
        observe::histogram_record("serve.batch.occupancy", n as u64);

        match isolated_run(&mut self.session, &stacked) {
            Attempt::Ok(output) => {
                let transition = self.shared.breaker_lock().on_success();
                if transition == Transition::Closed {
                    self.shared
                        .stats
                        .breaker_closes
                        .fetch_add(1, Ordering::Relaxed);
                    observe::counter_add("serve.breaker_close", 1);
                }
                self.shared.stats.batches.fetch_add(1, Ordering::Relaxed);
                self.shared
                    .stats
                    .batched_requests
                    .fetch_add(n as u64, Ordering::Relaxed);
                observe::counter_add("serve.batch.runs", 1);
                observe::counter_add("serve.batch.requests", n as u64);
                observe::histogram_record(
                    "serve.batch.run_us",
                    coalesce_started.elapsed().as_micros() as u64,
                );
                let per_output = output.len() / n;
                let mut out_dims = output.dims().to_vec();
                out_dims[0] /= n;
                for (i, request) in live.into_iter().enumerate() {
                    let rows = output.as_slice()[i * per_output..(i + 1) * per_output].to_vec();
                    let result = match Tensor::from_vec(rows, &out_dims) {
                        Ok(slice) => {
                            self.shared
                                .stats
                                .completed_primary
                                .fetch_add(1, Ordering::Relaxed);
                            let queue_wait = now.duration_since(request.enqueued);
                            observe::histogram_record(
                                "serve.queue_wait_us",
                                queue_wait.as_micros() as u64,
                            );
                            let total = request.enqueued.elapsed();
                            observe::histogram_record("serve.latency_us", total.as_micros() as u64);
                            Ok(ServeReply {
                                output: slice,
                                route: Route::Primary,
                                queue_wait,
                                total,
                            })
                        }
                        Err(e) => {
                            self.shared.stats.faulted.fetch_add(1, Ordering::Relaxed);
                            Err(ServeError::Faulted(format!(
                                "batched output scatter failed: {e:?}"
                            )))
                        }
                    };
                    let _ = request.responder.send(result);
                }
            }
            Attempt::Error(e) => {
                self.shared
                    .stats
                    .exec_errors
                    .fetch_add(1, Ordering::Relaxed);
                self.breaker_failure();
                observe::counter_add("serve.batch.fallback", 1);
                observe::flight_record(
                    "serve",
                    "batch.fallback",
                    format!(
                        "{}: batched run of {n} failed ({}); serving serially",
                        self.shared.network.name(),
                        observe::truncate(&e, 120)
                    ),
                );
                for request in live {
                    self.serve_one(request);
                }
            }
            Attempt::Panicked(msg) => {
                self.respawn(Route::Primary, &msg);
                self.breaker_failure();
                observe::counter_add("serve.batch.fallback", 1);
                observe::flight_record(
                    "serve",
                    "batch.fallback",
                    format!(
                        "{}: batched run of {n} panicked; serving serially",
                        self.shared.network.name()
                    ),
                );
                for request in live {
                    self.serve_one(request);
                }
            }
        }
    }
}

fn worker_main(shared: &Shared, id: usize) {
    let mut worker = Worker {
        shared,
        id,
        session: shared.network.session(),
        reference: None,
    };
    loop {
        let batch = shared.queue.pop_batch(shared.coalesce, shared.batch_wait);
        if batch.is_empty() {
            break;
        }
        shared.in_flight.fetch_add(batch.len(), Ordering::AcqRel);
        let served = batch.len();
        worker.serve_batch(batch);
        shared.in_flight.fetch_sub(served, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orpheus::Engine;
    use orpheus_models::{build_model, ModelKind};

    fn tiny_network() -> Arc<Network> {
        Arc::new(
            Engine::builder()
                .build()
                .unwrap()
                .load(build_model(ModelKind::TinyCnn))
                .unwrap(),
        )
    }

    fn input(k: usize) -> Tensor {
        Tensor::from_fn(&[1, 3, 8, 8], move |i| ((i + k) % 13) as f32 * 0.1)
    }

    #[test]
    fn serves_and_matches_direct_run() {
        let network = tiny_network();
        let server = Server::start(Arc::clone(&network), ServerConfig::default());
        for k in 0..8 {
            let reply = server.infer(input(k)).unwrap();
            assert_eq!(reply.route, Route::Primary);
            let expected = network.run(&input(k)).unwrap();
            assert_eq!(reply.output.as_slice(), expected.as_slice());
        }
        let report = server.shutdown();
        assert!(report.clean, "{report:?}");
        assert_eq!(report.worker_panics, 0);
        assert_eq!(server.stats().completed_primary, 8);
    }

    #[test]
    fn zero_budget_is_shed_at_enqueue() {
        let server = Server::start(tiny_network(), ServerConfig::default());
        let err = server
            .submit_with_deadline(input(0), Some(Duration::ZERO))
            .unwrap_err();
        assert_eq!(err, ServeError::DeadlineExpired);
        assert_eq!(server.stats().shed_deadline, 1);
        server.shutdown();
    }

    #[test]
    fn overload_sheds_instead_of_growing() {
        let network = tiny_network();
        let server = Arc::new(Server::start(
            network,
            ServerConfig {
                workers: 1,
                queue_depth: 1,
                ..ServerConfig::default()
            },
        ));
        let total = 800;
        let outcomes: Vec<ServeResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|c| {
                    let server = Arc::clone(&server);
                    scope.spawn(move || {
                        (0..total / 8)
                            .map(|k| match server.submit(input(c * 1000 + k)) {
                                Ok(ticket) => ticket.wait(),
                                Err(e) => Err(e),
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(outcomes.len(), total, "every request resolves");
        let shed = outcomes
            .iter()
            .filter(|o| matches!(o, Err(ServeError::Overloaded)))
            .count();
        let completed = outcomes.iter().filter(|o| o.is_ok()).count();
        assert!(completed > 0, "some requests complete");
        assert!(
            shed > 0,
            "8 producers vs 1 worker with queue depth 1 must shed"
        );
        assert_eq!(server.stats().shed_overload as usize, shed);
        let report = server.shutdown();
        assert_eq!(report.worker_panics, 0);
    }

    #[test]
    fn shutdown_closes_intake_and_drains_backlog() {
        let network = tiny_network();
        let server = Server::start(
            network,
            ServerConfig {
                workers: 2,
                queue_depth: 64,
                ..ServerConfig::default()
            },
        );
        let tickets: Vec<Ticket> = (0..32).map(|k| server.submit(input(k)).unwrap()).collect();
        let report = server.shutdown();
        assert!(report.clean, "{report:?}");
        for ticket in tickets {
            assert!(ticket.wait().is_ok(), "backlog finishes during drain");
        }
        assert_eq!(
            server.submit(input(0)).unwrap_err(),
            ServeError::ShuttingDown
        );
        // Idempotent second shutdown.
        let again = server.shutdown();
        assert!(again.clean);
        assert_eq!(again.shed, 0);
    }

    #[test]
    fn tiny_drain_timeout_sheds_backlog_but_resolves_everything() {
        let network = tiny_network();
        let server = Server::start(
            network,
            ServerConfig {
                workers: 1,
                queue_depth: 64,
                drain_timeout: Duration::ZERO,
                ..ServerConfig::default()
            },
        );
        let tickets: Vec<Ticket> = (0..64).map(|k| server.submit(input(k)).unwrap()).collect();
        let report = server.shutdown();
        assert_eq!(report.worker_panics, 0);
        let mut shut = 0;
        for ticket in tickets {
            match ticket.wait() {
                Ok(_) => {}
                Err(ServeError::ShuttingDown) => shut += 1,
                Err(other) => panic!("unexpected outcome: {other}"),
            }
        }
        assert_eq!(shut, report.shed, "every forced shed resolved a ticket");
    }

    fn batched_network(max_batch: usize) -> Arc<Network> {
        Arc::new(
            Engine::builder()
                .max_batch(max_batch)
                .build()
                .unwrap()
                .load(build_model(ModelKind::TinyCnn))
                .unwrap(),
        )
    }

    #[test]
    fn dynamic_batching_coalesces_and_matches_per_request_outputs() {
        let network = batched_network(4);
        let server = Server::start(
            Arc::clone(&network),
            ServerConfig {
                workers: 1,
                max_batch: 4,
                batch_max_wait: Duration::from_millis(20),
                ..ServerConfig::default()
            },
        );
        let tickets: Vec<(usize, Ticket)> = (0..16)
            .map(|k| (k, server.submit(input(k)).unwrap()))
            .collect();
        for (k, ticket) in tickets {
            let reply = ticket.wait().unwrap();
            assert_eq!(reply.route, Route::Primary);
            let expected = network.run(&input(k)).unwrap();
            assert_eq!(reply.output.dims(), expected.dims());
            assert_eq!(
                reply.output.as_slice(),
                expected.as_slice(),
                "request {k}: batched output must be bit-identical to a solo run"
            );
        }
        let stats = server.stats();
        assert!(
            stats.batches >= 1,
            "16 requests vs 1 worker with a 20ms linger must coalesce: {stats:?}"
        );
        assert_eq!(stats.completed(), 16);
        let report = server.shutdown();
        assert!(report.clean, "{report:?}");
    }

    #[test]
    fn max_batch_one_never_coalesces() {
        let network = batched_network(4);
        let server = Server::start(
            network,
            ServerConfig {
                workers: 1,
                max_batch: 1,
                ..ServerConfig::default()
            },
        );
        let tickets: Vec<Ticket> = (0..8).map(|k| server.submit(input(k)).unwrap()).collect();
        for ticket in tickets {
            assert!(ticket.wait().is_ok());
        }
        let stats = server.stats();
        assert_eq!(stats.batches, 0);
        assert_eq!(stats.batched_requests, 0);
        server.shutdown();
    }

    #[test]
    fn session_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Session>();
        assert_send::<Server>();
        assert_send::<Ticket>();
    }
}
