//! orpheus-serve: the fault-isolated concurrent serving core.
//!
//! Wraps a loaded [`orpheus::Network`] in a production-shaped serving loop:
//!
//! * a [`BoundedQueue`] intake that sheds load explicitly
//!   ([`ServeError::Overloaded`]) instead of growing without bound,
//! * per-request deadline budgets checked at enqueue and again before
//!   dispatch ([`ServeError::DeadlineExpired`]),
//! * worker threads with pre-planned sessions and `catch_unwind` panic
//!   isolation (a session needs no repair after a caught panic),
//! * a per-model [`CircuitBreaker`] that trips traffic onto the
//!   reference-implementation path and half-open-probes its way back,
//! * graceful, timeout-bounded drain on [`Server::shutdown`].
//!
//! ```no_run
//! use std::sync::Arc;
//! use orpheus::Engine;
//! use orpheus_models::{build_model, ModelKind};
//! use orpheus_serve::{Server, ServerConfig};
//!
//! let engine = Engine::builder().build().unwrap();
//! let network = Arc::new(engine.load(build_model(ModelKind::TinyCnn)).unwrap());
//! let server = Server::start(Arc::clone(&network), ServerConfig::default());
//! let input = orpheus_tensor::Tensor::zeros(network.input_dims());
//! let reply = server.infer(input).unwrap();
//! println!("served via {:?} in {:?}", reply.route, reply.total);
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod breaker;
mod loadgen;
mod queue;
mod server;

pub use breaker::{BreakerState, CircuitBreaker, Route, Transition};
pub use loadgen::{run_load_gen, LoadGenConfig, LoadGenReport};
pub use queue::{BoundedQueue, PushError};
pub use server::{
    DrainReport, ServeError, ServeReply, ServeResult, Server, ServerConfig, StatsSnapshot, Ticket,
};
