//! # `ule-sim` — synchronous network simulator for universal leader election
//!
//! Implements the execution model of Section 2 of *Kutten, Pandurangan,
//! Peleg, Robinson, Trehan: "On the Complexity of Universal Leader
//! Election"* (PODC 2013 / JACM 2015):
//!
//! * **Synchronous rounds** — messages sent in round `r` arrive at round
//!   `r+1`; local computation is free.
//! * **CONGEST / LOCAL** — per-message bit budgets are declared by the
//!   protocol's [`message::Message::size_bits`] and checked by the engine
//!   ([`Model`]); the lower bounds hold even in LOCAL, the algorithms run
//!   in CONGEST.
//! * **Port numbering** — a node addresses neighbours only through ports;
//!   neighbour identity leaks only through messages.
//! * **Identifiers** — adversarial unique IDs from `Z = [1, n⁴]`, or
//!   anonymous networks ([`IdMode`]).
//! * **Knowledge** — each run declares which of `n`, `m`, `D` the nodes
//!   know ([`Knowledge`]), mechanizing Table 1's knowledge column.
//! * **Wakeup** — simultaneous or adversarial ([`Wakeup`]).
//! * **Private coins** — every node owns a deterministic seeded RNG stream.
//!
//! The engine additionally records the metrics the paper's claims are
//! stated in: message and round totals, per-directed-edge first-use rounds
//! (the experiment of Lemma 3.5), and first-crossing bookkeeping for
//! designated "bridge" edges (Theorem 3.1). Runs can be truncated at a
//! round cap to reproduce the time-lower-bound experiment (Theorem 3.13).
//!
//! A runtime is a **scheduling policy** over one execution core
//! ([`exec`]): it decides when a node steps and hands the core's
//! `step_node` a `send` closure; what a send costs, what becomes of it
//! and — on the round engine — where it lands (`Ledger::deliver`: inbox
//! arena or delay calendar) is the core's, written once. The round
//! engine's policy is **event-driven**: per simulated round it touches
//! only the nodes that receive a message or whose wakeup timer fires
//! (active set + wakeup calendar + dedup bitmap — see the `engine` module
//! docs), so sparsely active executions at `n = 10⁶` are cheap and idle
//! stretches fast-forward to the next queued event in one step. Idle
//! rounds still count toward [`RunOutcome::rounds`]; they just cost no
//! work.
//!
//! Execution is additionally **sharded-parallel** under [`Parallelism`]
//! (the default `Auto` engages on large runs): each shard thread owns a
//! contiguous node range for the whole run — state, accounting, inboxes,
//! timers — and message-dense rounds run as a step phase and a deliver
//! phase that fills every inbox in the sequential send order, so a run's
//! [`RunOutcome`] is byte-for-byte identical at any thread count — see
//! the `engine` module docs for the order argument.
//!
//! The **execution model itself is pluggable** ([`SimConfig::adversary`],
//! module [`adversary`]): seeded, deterministic [`Schedule`] adversaries
//! impose bounded message delays, fail-stop crashes, or permanent link
//! failures below the [`Protocol`] trait, so every algorithm runs
//! unchanged under every model. The default [`Adversary::Lockstep`] is the
//! synchronous model above, byte-for-byte. Message fates are a pure
//! function of `(seed, directed edge, per-edge send index)`, so both the
//! round engine and the async threads+channels runtime derive identical
//! fates — every adversary runs on every runtime with field-for-field
//! equal outcomes.
//!
//! ## Writing a protocol
//!
//! Implement [`Protocol`] with a message enum implementing
//! [`message::Message`], then run it through a [`Runner`] — the single
//! entrypoint for every runtime (the in-process simulator and the async
//! threads+channels runtime, selected with [`Runner::runtime`]):
//!
//! ```
//! use ule_sim::{Runner, SimConfig, Protocol, Context, Status, message::Signal};
//! use ule_graph::gen;
//!
//! struct Ping;
//! impl Protocol for Ping {
//!     type Msg = Signal;
//!     fn on_round(&mut self, ctx: &mut Context<'_, Signal>, _inbox: &[(usize, Signal)]) {
//!         if ctx.first_activation() && ctx.degree() > 0 {
//!             ctx.send(0, Signal);
//!         }
//!     }
//!     fn status(&self) -> Status { Status::NonLeader }
//! }
//!
//! let g = gen::cycle(4)?;
//! let out = Runner::new(&g, &SimConfig::seeded(0)).run(|_, _, _| Ping);
//! assert_eq!(out.messages, 4);
//! # Ok::<(), ule_graph::GraphError>(())
//! ```

#![warn(missing_docs)]

pub mod adversary;
pub mod calendar;
mod config;
mod engine;
pub mod exec;
pub mod harness;
pub mod message;
pub mod outbox;
mod protocol;
pub mod rt;
mod runner;
pub mod transport;

pub use adversary::{Adversary, Fate, Schedule, SendView};
pub use calendar::CalendarQueue;
pub use config::{IdMode, Model, Parallelism, SimConfig, Wakeup};
pub use exec::{node_rng_seed, RunOutcome, Termination, WatchHit};
pub use outbox::PortOutbox;
pub use protocol::{Context, Knowledge, NodeSetup, Protocol, Status};
pub use rt::{replay, AsyncRun, AsyncRuntime, DeliveryTrace, RuntimeKind};
pub use runner::Runner;
