//! The unified run entrypoint: one way to execute a [`Protocol`] on any
//! runtime.
//!
//! [`Runner`] replaces the historical sprawl of free functions
//! (`engine::run`, `rt::run_async`, `rt::run_on` — all removed):
//! construct it from a graph and a [`SimConfig`], optionally select a
//! runtime, and call [`Runner::run`]. Both runtimes execute the identical
//! protocol code over the identical execution core ([`crate::exec`]) and
//! accept every configuration, so the two outcomes are equal field for
//! field.

use crate::config::{Parallelism, SimConfig};
use crate::exec::RunOutcome;
use crate::protocol::{NodeSetup, Protocol};
use crate::rt::{AsyncRuntime, RuntimeKind};
use rand::rngs::StdRng;
use ule_graph::{Graph, NodeId, Topology};

/// The single entrypoint for executing a [`Protocol`]: a borrowed graph
/// and config, a runtime selection, and [`Runner::run`].
///
/// ```
/// use ule_sim::{Runner, RuntimeKind, SimConfig, Protocol, Context, Status, message::Signal};
/// use ule_graph::gen;
///
/// struct Ping { got: bool }
/// impl Protocol for Ping {
///     type Msg = Signal;
///     fn on_round(&mut self, ctx: &mut Context<'_, Signal>, inbox: &[(usize, Signal)]) {
///         if ctx.first_activation() { ctx.broadcast(Signal); }
///         if !inbox.is_empty() { self.got = true; }
///     }
///     fn status(&self) -> Status {
///         if self.got { Status::NonLeader } else { Status::Undecided }
///     }
/// }
///
/// let g = gen::cycle(6)?;
/// let cfg = SimConfig::seeded(0);
/// let sim = Runner::new(&g, &cfg).run(|_, _, _| Ping { got: false });
/// let over_channels = Runner::new(&g, &cfg)
///     .runtime(RuntimeKind::Async)
///     .run(|_, _, _| Ping { got: false });
/// assert_eq!(sim, over_channels); // exact cross-runtime conformance
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// The runner is generic over [`Topology`], defaulting to a materialized
/// [`Graph`]: pass an [`ule_graph::ImplicitTopology`] to run a structured
/// family procedurally, with no adjacency arrays in memory at all. The
/// outcome is byte-for-byte identical either way.
#[derive(Debug)]
pub struct Runner<'a, T: Topology = Graph> {
    graph: &'a T,
    config: &'a SimConfig,
    kind: RuntimeKind,
}

// Manual impls: derived ones would demand `T: Clone` / `T: Copy`, and the
// runner only holds a reference.
impl<T: Topology> Clone for Runner<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: Topology> Copy for Runner<'_, T> {}

impl<'a, T: Topology> Runner<'a, T> {
    /// A runner for `graph` under `config`, on the default runtime
    /// ([`RuntimeKind::Sim`]).
    pub fn new(graph: &'a T, config: &'a SimConfig) -> Self {
        Runner {
            graph,
            config,
            kind: RuntimeKind::default(),
        }
    }

    /// Selects the runtime that drives the run.
    pub fn runtime(mut self, kind: RuntimeKind) -> Self {
        self.kind = kind;
        self
    }

    /// Runs `factory`-created protocol instances on the selected runtime.
    ///
    /// `factory` is called once per node, in index order, with the node's
    /// index, its [`NodeSetup`], and its private RNG (already seeded) —
    /// identically on every runtime, so a protocol's coin flips do not
    /// depend on where it runs. Protocol logic must depend on the index
    /// only where the harness legitimately distinguishes roles (e.g. the
    /// designated broadcast source); election protocols should ignore it.
    /// The config's [`Parallelism`] sizes the engine's shards or the async
    /// runtime's worker pool.
    ///
    /// # Panics
    ///
    /// Panics if an explicit [`crate::IdMode`] assignment does not cover
    /// the graph, if the config is invalid ([`crate::Wakeup::Adversarial`]
    /// naming a node `>= n`, a watched edge that is not an edge of the
    /// graph, or an [`crate::Adversary`] schedule naming an out-of-range
    /// node or a non-edge), or on protocol API misuse (double-send on a
    /// port, past wakeups).
    pub fn run<P, F>(self, factory: F) -> RunOutcome
    where
        P: Protocol,
        F: FnMut(NodeId, &NodeSetup, &mut StdRng) -> P,
    {
        match self.kind {
            RuntimeKind::Sim => crate::engine::run_sim(self.graph, self.config, factory),
            RuntimeKind::Async => {
                let runtime = AsyncRuntime::new().without_trace();
                let runtime = match self.config.parallelism {
                    Parallelism::Auto => runtime,
                    set => runtime.with_workers(set.effective_threads(self.graph.n())),
                };
                runtime.run(self.graph, self.config, factory).outcome
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::Adversary;
    use crate::config::Wakeup;
    use crate::message::Signal;
    use crate::protocol::{Context, Status};
    use ule_graph::gen;

    struct Flood {
        got: bool,
    }
    impl Protocol for Flood {
        type Msg = Signal;
        fn on_round(&mut self, ctx: &mut Context<'_, Signal>, inbox: &[(usize, Signal)]) {
            if ctx.first_activation() {
                ctx.broadcast(Signal);
            }
            if !inbox.is_empty() {
                self.got = true;
            }
        }
        fn status(&self) -> Status {
            if self.got {
                Status::NonLeader
            } else {
                Status::Undecided
            }
        }
    }

    fn mk(_: NodeId, _: &NodeSetup, _: &mut StdRng) -> Flood {
        Flood { got: false }
    }

    #[test]
    fn runner_default_runtime_is_sim() {
        let g = gen::path(2).unwrap();
        let cfg = SimConfig::seeded(0);
        let r = Runner::new(&g, &cfg);
        assert_eq!(r.kind, RuntimeKind::Sim);
        assert_eq!(r.runtime(RuntimeKind::Async).kind, RuntimeKind::Async);
    }

    #[test]
    fn runner_runs_adversaries_on_both_runtimes() {
        let g = gen::path(3).unwrap();
        let delayed = SimConfig::seeded(0).with_adversary(Adversary::BoundedDelay { max_delay: 2 });
        let sim = Runner::new(&g, &delayed).run(mk);
        let asy = Runner::new(&g, &delayed)
            .runtime(RuntimeKind::Async)
            .run(mk);
        assert_eq!(sim, asy);
    }

    #[test]
    fn runner_accepts_adversarial_wakeup_on_both_runtimes() {
        let g = gen::path(5).unwrap();
        let cfg = SimConfig::seeded(2).with_wakeup(Wakeup::Adversarial(vec![0]));
        let sim = Runner::new(&g, &cfg).run(mk);
        let asy = Runner::new(&g, &cfg).runtime(RuntimeKind::Async).run(mk);
        assert_eq!(sim, asy);
    }

    #[test]
    fn adversarial_wakeup_is_a_set_and_a_round_zero_crash_never_steps() {
        // Order and repeats in the wakeup list are immaterial; a listed
        // node that fail-stops at round 0 never steps, yet the outcome
        // reports it crashed — on both runtimes.
        let g = gen::path(5).unwrap();
        let crash = Adversary::CrashStop {
            schedule: vec![(3, 0)],
        };
        for kind in [RuntimeKind::Sim, RuntimeKind::Async] {
            let run = |set: Vec<NodeId>, adversary: &Adversary| {
                let cfg = SimConfig::seeded(2)
                    .with_wakeup(Wakeup::Adversarial(set))
                    .with_adversary(adversary.clone());
                Runner::new(&g, &cfg).runtime(kind).run(mk)
            };
            let listed = run(vec![3, 0, 3], &Adversary::Lockstep);
            assert_eq!(listed, run(vec![0, 3], &Adversary::Lockstep), "{kind:?}");
            assert_ne!(listed, run(vec![0], &Adversary::Lockstep), "{kind:?}");

            let out = run(vec![3, 0, 3], &crash);
            assert_eq!(out, run(vec![0], &crash), "{kind:?}: node 3 never woke");
            assert_eq!(out.crashed, vec![3], "{kind:?}");
            assert_eq!(out.statuses[3], Status::Undecided, "{kind:?}");
        }
    }

    #[test]
    fn async_worker_pool_follows_the_configured_parallelism() {
        use std::collections::HashSet;
        use std::sync::{Arc, Mutex};
        use std::thread::ThreadId;

        struct Spot(Arc<Mutex<HashSet<ThreadId>>>);
        impl Protocol for Spot {
            type Msg = Signal;
            fn on_round(&mut self, _: &mut Context<'_, Signal>, _: &[(usize, Signal)]) {
                let seen = &self.0;
                seen.lock()
                    .expect("no stepper panicked")
                    .insert(std::thread::current().id());
            }
            fn status(&self) -> Status {
                Status::Undecided
            }
        }
        // Every node steps in round 0, and every worker owns a node.
        let g = gen::cycle(12).unwrap();
        let cores = crate::harness::host_cores().min(g.len());
        for (parallelism, workers) in [
            (Parallelism::Off, 1),
            (Parallelism::Threads(3), 3),
            (Parallelism::Auto, cores),
        ] {
            let cfg = SimConfig::seeded(0).with_parallelism(parallelism);
            let seen = Arc::new(Mutex::new(HashSet::new()));
            Runner::new(&g, &cfg)
                .runtime(RuntimeKind::Async)
                .run(|_, _, _| Spot(Arc::clone(&seen)));
            let stepped = seen.lock().expect("no stepper panicked").len();
            assert_eq!(stepped, workers, "{parallelism:?}");
        }
    }

    #[test]
    fn node_counts_past_u32_fail_fast_on_both_runtimes() {
        // Wake calendars and delivery queues compact node indices to u32.
        // The set-up must refuse a larger graph before it builds any
        // per-node state: 4·10⁹ nodes of it would not fit in memory.
        let n = u32::MAX as usize + 2;
        let cycle = ule_graph::ImplicitTopology::Cycle { n };
        let cfg = SimConfig::seeded(0);
        let expected =
            format!("the engine's delivery queue addresses nodes as u32; {n} nodes exceed that");
        for kind in [RuntimeKind::Sim, RuntimeKind::Async] {
            let run = || Runner::new(&cycle, &cfg).runtime(kind).run(mk);
            let panic = std::panic::catch_unwind(run).expect_err("the run must refuse the graph");
            assert_eq!(panic.downcast_ref::<String>(), Some(&expected), "{kind:?}");
        }
    }

    #[test]
    fn degrees_past_two_to_the_31_fail_fast_on_both_runtimes() {
        // Inbox entries keep a mark in a port's top bit, so a port must
        // stay below 2^31 — which an implicit star's centre passes while
        // its node count still fits in u32.
        let n = (1usize << 31) + 2;
        let star = ule_graph::ImplicitTopology::Star { n };
        let cfg = SimConfig::seeded(0);
        let expected = format!(
            "the engine's inboxes keep ports below 2^31; a node of degree {} exceeds that",
            n - 1
        );
        for kind in [RuntimeKind::Sim, RuntimeKind::Async] {
            let run = || Runner::new(&star, &cfg).runtime(kind).run(mk);
            let panic = std::panic::catch_unwind(run).expect_err("the run must refuse the graph");
            assert_eq!(panic.downcast_ref::<String>(), Some(&expected), "{kind:?}");
        }
    }
}
