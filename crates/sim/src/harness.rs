//! Monte Carlo trial harness.
//!
//! The paper's randomized claims are about success *probabilities* and
//! *expected* costs; estimating them needs many independent runs. The
//! functions here fan trials out over threads (`std::thread::scope`) and
//! summarize outcomes.
//!
//! Trial-level parallelism composes with the engine's *intra-run*
//! sharding ([`crate::Parallelism`]): worker threads spawned here are
//! marked, and [`crate::Parallelism::Auto`] and the async runtime's default
//! pool resolve to one thread inside them — the machine's cores are
//! already saturated by the trial fan-out, so letting every trial also
//! spawn `cores` shard threads per round would oversubscribe
//! quadratically. An *explicit* `Parallelism::Threads(k)` or
//! `AsyncRuntime::with_workers(k)` inside a trial closure is honored as
//! written; combining it with a wide trial fan-out is the caller's
//! responsibility.

use crate::exec::RunOutcome;
use std::cell::Cell;

thread_local! {
    /// Set on worker threads spawned by [`parallel_trials`]; read by
    /// [`host_cores`].
    static IN_TRIAL_FANOUT: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as a trial-fanout worker (idempotent; worker
/// threads are per-call, so the mark needs no reset).
fn mark_trial_fanout() {
    IN_TRIAL_FANOUT.with(|f| f.set(true));
}

/// The cores a run may take for itself: the machine's, or 1 on a
/// [`parallel_trials`] worker, whose fan-out already saturates them.
/// Sizes [`crate::Parallelism::Auto`]'s shards and the async runtime's
/// default worker pool.
pub(crate) fn host_cores() -> usize {
    if IN_TRIAL_FANOUT.with(|f| f.get()) {
        1
    } else {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    }
}

/// Runs `trials` independent executions of `f` (typically a closure that
/// builds a seeded [`crate::SimConfig`] and calls [`crate::Runner::run`]), in
/// parallel, preserving trial order in the result.
///
/// `f` receives the trial index; use it as the seed (or to derive one) so
/// trials are independent and the whole experiment is reproducible.
///
/// # Examples
///
/// ```
/// use ule_sim::harness::parallel_trials;
///
/// // A cheap stand-in for a real simulation call:
/// let outcomes = parallel_trials(8, |t| t * 2);
/// assert_eq!(outcomes, vec![0, 2, 4, 6, 8, 10, 12, 14]);
/// ```
pub fn parallel_trials<T, F>(trials: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(trials.max(1) as usize);
    if threads <= 1 || trials <= 1 {
        return (0..trials).map(f).collect();
    }
    let mut results: Vec<Option<T>> = (0..trials).map(|_| None).collect();
    // `threads` was clamped to `trials` above, so every chunk is non-empty
    // even when fewer trials than cores are requested.
    let chunk = trials.div_ceil(threads as u64) as usize;
    std::thread::scope(|scope| {
        for (i, slot_chunk) in results.chunks_mut(chunk).enumerate() {
            let f = &f;
            let base = (i * chunk) as u64;
            scope.spawn(move || {
                mark_trial_fanout();
                for (j, slot) in slot_chunk.iter_mut().enumerate() {
                    *slot = Some(f(base + j as u64));
                }
            });
        }
    });
    results
        .into_iter()
        .map(|s| s.expect("every trial filled"))
        .collect()
}

/// Aggregate statistics over a set of election runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of runs aggregated.
    pub trials: u64,
    /// Runs satisfying the implicit-election success predicate.
    pub successes: u64,
    /// Mean rounds across all runs.
    pub mean_rounds: f64,
    /// Mean messages across all runs.
    pub mean_messages: f64,
    /// Maximum rounds observed.
    pub max_rounds: u64,
    /// Maximum messages observed.
    pub max_messages: u64,
    /// Mean total payload bits across all runs (the CONGEST bit cost the
    /// figure binaries report).
    pub mean_bits: f64,
    /// Largest single message observed in any run, in bits.
    pub max_message_bits: u64,
    /// Total CONGEST violations across runs (tests expect 0).
    pub congest_violations: u64,
}

impl Summary {
    /// Summarizes a batch of outcomes.
    ///
    /// # Panics
    ///
    /// Panics on an empty batch.
    pub fn from_outcomes(outcomes: &[RunOutcome]) -> Summary {
        assert!(!outcomes.is_empty(), "cannot summarize zero runs");
        let trials = outcomes.len() as u64;
        let successes = outcomes.iter().filter(|o| o.election_succeeded()).count() as u64;
        Summary {
            trials,
            successes,
            mean_rounds: outcomes.iter().map(|o| o.rounds as f64).sum::<f64>() / trials as f64,
            mean_messages: outcomes.iter().map(|o| o.messages as f64).sum::<f64>() / trials as f64,
            max_rounds: outcomes.iter().map(|o| o.rounds).max().unwrap(),
            max_messages: outcomes.iter().map(|o| o.messages).max().unwrap(),
            mean_bits: outcomes.iter().map(|o| o.bits as f64).sum::<f64>() / trials as f64,
            max_message_bits: outcomes.iter().map(|o| o.max_message_bits).max().unwrap(),
            congest_violations: outcomes.iter().map(|o| o.congest_violations).sum(),
        }
    }

    /// Empirical success probability.
    pub fn success_rate(&self) -> f64 {
        self.successes as f64 / self.trials as f64
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{} ok ({:.1}%), rounds {:.1} (max {}), msgs {:.1} (max {}), bits {:.1} (max msg {}b)",
            self.successes,
            self.trials,
            100.0 * self.success_rate(),
            self.mean_rounds,
            self.max_rounds,
            self.mean_messages,
            self.max_messages,
            self.mean_bits,
            self.max_message_bits
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Termination, WatchHit};
    use crate::protocol::Status;

    fn fake_outcome(ok: bool, rounds: u64, messages: u64) -> RunOutcome {
        RunOutcome {
            rounds,
            messages,
            bits: messages * 8,
            statuses: if ok {
                vec![Status::Leader, Status::NonLeader]
            } else {
                vec![Status::NonLeader, Status::NonLeader]
            },
            termination: Termination::Quiescent,
            congest_violations: 0,
            max_message_bits: 8,
            watch_hits: vec![None::<WatchHit>],
            first_directed_use: vec![],
            directed_message_counts: vec![],
            last_status_change: Some(rounds.saturating_sub(1)),
            round_totals: vec![(0, messages)],
            crashed: vec![],
            messages_dropped: 0,
            late_deliveries: vec![],
        }
    }

    #[test]
    fn summary_math() {
        let outs = vec![fake_outcome(true, 10, 100), fake_outcome(false, 20, 300)];
        let s = Summary::from_outcomes(&outs);
        assert_eq!(s.trials, 2);
        assert_eq!(s.successes, 1);
        assert!((s.mean_rounds - 15.0).abs() < 1e-9);
        assert!((s.mean_messages - 200.0).abs() < 1e-9);
        assert_eq!(s.max_rounds, 20);
        assert_eq!(s.max_messages, 300);
        assert!((s.mean_bits - 1600.0).abs() < 1e-9);
        assert_eq!(s.max_message_bits, 8);
        assert!((s.success_rate() - 0.5).abs() < 1e-9);
        let shown = format!("{s}");
        assert!(shown.contains("1/2 ok"));
        assert!(shown.contains("bits 1600.0 (max msg 8b)"));
    }

    #[test]
    #[should_panic(expected = "zero runs")]
    fn empty_summary_panics() {
        Summary::from_outcomes(&[]);
    }

    #[test]
    fn parallel_trials_order_and_coverage() {
        let r = parallel_trials(100, |t| t * t);
        assert_eq!(r.len(), 100);
        for (i, v) in r.iter().enumerate() {
            assert_eq!(*v, (i as u64) * (i as u64));
        }
    }

    #[test]
    fn parallel_single_trial() {
        assert_eq!(parallel_trials(1, |t| t + 7), vec![7]);
        assert_eq!(parallel_trials(0, |t| t), Vec::<u64>::new());
    }

    #[test]
    fn auto_parallelism_demotes_inside_trial_fanout_workers() {
        use crate::Parallelism;
        let huge = 1 << 30;
        // The mechanism, independent of this machine's core count: a
        // marked thread resolves Auto to sequential at any n …
        std::thread::spawn(move || {
            mark_trial_fanout();
            assert_eq!(Parallelism::Auto.effective_threads(huge), 1);
            // … while an explicit request is honored as written.
            assert_eq!(Parallelism::Threads(3).effective_threads(huge), 3);
        })
        .join()
        .unwrap();
        assert!(Parallelism::Auto.effective_threads(huge) >= 1);
        // And `parallel_trials` really marks its workers (observable only
        // when the fan-out actually spawns, i.e. on multicore boxes).
        if std::thread::available_parallelism().map_or(1, |p| p.get()) >= 2 {
            let flags = parallel_trials(8, |_| host_cores() == 1);
            assert!(flags.iter().all(|&b| b), "{flags:?}");
        }
    }
}
