//! Failure injection: truncation, candidate droughts, adversarial wakeup
//! and placement, fail-stop crashes, and link failures — the ways a run is
//! *supposed* to degrade, observed.

use ule_core::dfs_agent::DfsAgent;
use ule_core::las_vegas::{LasVegasConfig, LasVegasElect};
use ule_core::least_el::{LeastEl, LeastElConfig};
use ule_core::Algorithm;
use ule_graph::{analysis, dumbbell, gen, Graph, IdAssignment};
use ule_sim::harness::{parallel_trials, Summary};
use ule_sim::{
    Adversary, Knowledge, RunOutcome, Runner, RuntimeKind, SimConfig, Status, Termination, Wakeup,
};

fn le_elect(g: &Graph, sim: &SimConfig, cfg: &LeastElConfig) -> RunOutcome {
    Runner::new(g, sim).run(|_, s, _| LeastEl::new(cfg.clone(), s.degree))
}

fn lv_elect(g: &Graph, sim: &SimConfig, cfg: &LasVegasConfig) -> RunOutcome {
    Runner::new(g, sim).run(|_, s, _| LasVegasElect::new(*cfg, s.degree))
}

#[test]
fn truncated_runs_report_round_limit_and_partial_state() {
    let g = gen::path(40).unwrap();
    let mut cfg = Algorithm::LeastElAll.config_for(&g, 0);
    cfg.max_rounds = 3;
    let out = Algorithm::LeastElAll.run_on(RuntimeKind::Sim, &g, &cfg);
    assert_eq!(out.termination, Termination::RoundLimit);
    assert!(!out.election_succeeded());
    assert_eq!(
        out.leader_count(),
        0,
        "nobody can win in 3 rounds on a 40-path"
    );
}

#[test]
fn zero_candidate_drought_is_a_clean_failure() {
    let g = gen::cycle(16).unwrap();
    let cfg = SimConfig::seeded(5).with_knowledge(Knowledge::n(16));
    let out = le_elect(&g, &cfg, &LeastElConfig::expected_candidates(1e-9));
    assert_eq!(out.messages, 0);
    assert_eq!(out.leader_count(), 0);
    assert!(out.statuses.iter().all(|s| *s == Status::NonLeader));
    assert_eq!(out.termination, Termination::Quiescent);
}

#[test]
fn las_vegas_recovers_from_droughts() {
    // Candidate probability so small that several epochs are silent; the
    // restart machinery must still converge to exactly one leader.
    let g = gen::cycle(12).unwrap();
    let d = analysis::diameter_exact(&g).unwrap() as usize;
    let lv = LasVegasConfig {
        expected_candidates: 0.05,
        epoch_factor: 3,
    };
    let outs = parallel_trials(25, |t| {
        let cfg = SimConfig::seeded(t).with_knowledge(Knowledge::n_and_diameter(12, d));
        lv_elect(&g, &cfg, &lv)
    });
    let s = Summary::from_outcomes(&outs);
    assert_eq!(s.successes, 25, "Las Vegas must absorb droughts: {s}");
    // At least one run must actually have needed more than one epoch.
    let epoch_len = 3 * d as u64 + 4;
    assert!(
        outs.iter().any(|o| o.rounds > epoch_len),
        "test should exercise the restart path"
    );
}

#[test]
fn single_initiator_adversarial_wakeup() {
    let g = gen::path(30).unwrap();
    for waker in [0usize, 15, 29] {
        let cfg = SimConfig::seeded(2)
            .with_knowledge(Knowledge::n(30))
            .with_wakeup(Wakeup::Adversarial(vec![waker]));
        let out = le_elect(&g, &cfg, &LeastElConfig::all_candidates());
        assert!(out.election_succeeded(), "waker at {waker}");
    }
}

#[test]
fn dfs_agents_with_adversarial_wakeup_and_min_far_away() {
    // Wakeup starts at one end; the minimum identifier sits at the other.
    let g = gen::path(20).unwrap();
    let mut ids: Vec<u64> = (2..=20).collect();
    ids.push(1);
    let cfg = SimConfig::seeded(0)
        .with_ids(IdAssignment::new(ids))
        .with_wakeup(Wakeup::Adversarial(vec![0]))
        .with_max_rounds(u64::MAX / 4);
    let out = Runner::new(&g, &cfg).run(|_, s, _| DfsAgent::new(s.id.unwrap(), s.degree, true));
    assert!(out.election_succeeded());
    assert_eq!(out.leader(), Some(19));
    // Wakeup flood (2m) + walk (≤ 4m + 2n) + pre-wakeup drift (≤ 2D).
    let m = g.edge_count() as u64;
    let bound = 6 * m + 2 * 20 + 2 * 19;
    assert!(out.messages <= bound, "{} > {bound}", out.messages);
}

#[test]
fn coin_flip_failure_modes_are_the_expected_ones() {
    let g = gen::cycle(50).unwrap();
    let outs = parallel_trials(600, |t| Algorithm::CoinFlip.run(&g, t));
    let zero = outs.iter().filter(|o| o.leader_count() == 0).count() as f64;
    let one = outs.iter().filter(|o| o.leader_count() == 1).count() as f64;
    let multi = outs.iter().filter(|o| o.leader_count() >= 2).count() as f64;
    let total = outs.len() as f64;
    // P(0) ≈ 1/e ≈ P(1); P(≥2) ≈ 1 − 2/e ≈ 0.26.
    assert!(
        (zero / total - 0.368).abs() < 0.07,
        "P(0 leaders) = {}",
        zero / total
    );
    assert!(
        (one / total - 0.368).abs() < 0.07,
        "P(1 leader) = {}",
        one / total
    );
    assert!(
        (multi / total - 0.264).abs() < 0.07,
        "P(2+) = {}",
        multi / total
    );
}

#[test]
fn truncation_sweep_is_monotone_for_flood_broadcast() {
    let g = gen::path(20).unwrap();
    let mut last = 0;
    for t in [1u64, 3, 6, 10, 20] {
        let cfg = SimConfig::seeded(0).with_max_rounds(t);
        let out = ule_core::broadcast::flood_broadcast(&g, &cfg, 0);
        let covered = ule_core::broadcast::informed_count(&out);
        assert!(covered >= last, "coverage must be monotone in budget");
        last = covered;
    }
    assert_eq!(last, 20);
}

#[test]
fn las_vegas_reconverges_or_reports_cleanly_when_the_leader_crashes() {
    // Crash the node that *would have* won, early in the election, on a
    // 2-connected graph (the survivors stay connected). Las Vegas must
    // either re-converge to exactly one surviving leader or fail cleanly
    // — never split-brain, never panic, never hang past the round cap.
    //
    // This implementation's waves are echo-terminated, and a fail-stopped
    // node never echoes: any crash permanently stalls every wave that
    // reached it, so re-convergence is structurally impossible and every
    // seed must take the report-cleanly branch (quiescent or capped, no
    // surviving self-appointed leader). The test verifies exactly that —
    // and that nothing worse (split-brain, a dead leader counted as a
    // win, a panic) ever happens.
    let g = gen::torus(4, 4).unwrap();
    let d = analysis::diameter_exact(&g).unwrap().max(1) as usize;
    let lv = LasVegasConfig::default();
    let mut reconverged = 0;
    let mut clean_failures = 0;
    for seed in 0..8u64 {
        let cfg = SimConfig::seeded(seed)
            .with_knowledge(Knowledge::n_and_diameter(16, d))
            .with_max_rounds(50_000);
        let healthy = lv_elect(&g, &cfg, &lv);
        assert!(healthy.election_succeeded(), "seed {seed} baseline");
        let leader = healthy.leader().unwrap();
        // Kill the winner at round 2 — mid-election for every seed here
        // (the healthy runs all take longer than 2 rounds).
        assert!(healthy.rounds > 2);
        let faulty_cfg = cfg.clone().with_adversary(Adversary::CrashStop {
            schedule: vec![(leader, 2)],
        });
        let out = lv_elect(&g, &faulty_cfg, &lv);
        assert_eq!(out.crashed, vec![leader], "seed {seed}");
        let alive_leaders = out
            .statuses
            .iter()
            .enumerate()
            .filter(|&(v, s)| *s == Status::Leader && !out.is_crashed(v))
            .count();
        assert!(alive_leaders <= 1, "seed {seed}: split-brain");
        if out.election_succeeded() {
            assert_ne!(out.leader(), Some(leader), "seed {seed}: dead leader");
            assert_eq!(out.termination, Termination::Quiescent, "seed {seed}");
            reconverged += 1;
        } else {
            // Clean failure: a stalled wave (quiescent, survivors left
            // undecided) or a run cut at the cap — reported as such.
            assert!(
                matches!(
                    out.termination,
                    Termination::Quiescent | Termination::RoundLimit
                ),
                "seed {seed}: {:?}",
                out.termination
            );
            clean_failures += 1;
        }
    }
    assert_eq!(reconverged + clean_failures, 8);
    assert_eq!(
        reconverged, 0,
        "echo-terminated waves cannot complete past a dead node; if this \
         starts passing, Las Vegas gained genuine crash recovery — \
         celebrate, then update this pin"
    );
}

#[test]
fn partitioned_dumbbell_elects_per_component() {
    // Kill both bridges of a dumbbell at round 0: no message ever crosses
    // between the halves, so deadline-driven FloodMax elects one leader
    // *per component* — the run ends quiescent with a clean two-leader
    // outcome, which the (global) success predicate correctly rejects.
    let d = dumbbell::clique_path_dumbbell(12, 20, 0, 1).unwrap();
    let g = &d.graph;
    let n = g.len();
    let diam = analysis::diameter_exact(g).unwrap().max(1) as usize;
    let cfg = SimConfig::seeded(3)
        .with_ids(IdAssignment::sequential(n))
        .with_knowledge(Knowledge::n_and_diameter(n, diam))
        .watching(&d.bridges)
        .with_adversary(Adversary::LinkFailure {
            schedule: d.bridges.iter().map(|&e| (e, 0)).collect(),
        });
    let out = Algorithm::FloodMax.run_on(RuntimeKind::Sim, g, &cfg);
    assert_eq!(out.termination, Termination::Quiescent);
    assert_eq!(out.leader_count(), 2, "one leader per component");
    assert!(!out.election_succeeded());
    let leaders: Vec<usize> = out
        .statuses
        .iter()
        .enumerate()
        .filter(|&(_, s)| *s == Status::Leader)
        .map(|(v, _)| v)
        .collect();
    assert_ne!(
        d.side(leaders[0]),
        d.side(leaders[1]),
        "the two leaders sit in different components"
    );
    assert!(out.messages_dropped > 0, "bridge sends are lost");
    assert!(
        out.watch_hits.iter().all(Option::is_none),
        "no bridge was ever crossed"
    );
    assert!(out.crashed.is_empty());
}

#[test]
fn bridges_that_die_after_the_crossing_change_nothing() {
    // The same dumbbell, but the bridges die long after FloodMax's
    // deadline: the failure schedule exists yet never fires within the
    // run, so the outcome equals the healthy one byte-for-byte.
    let d = dumbbell::clique_path_dumbbell(12, 20, 0, 1).unwrap();
    let g = &d.graph;
    let n = g.len();
    let diam = analysis::diameter_exact(g).unwrap().max(1) as usize;
    let base = SimConfig::seeded(3)
        .with_ids(IdAssignment::sequential(n))
        .with_knowledge(Knowledge::n_and_diameter(n, diam))
        .watching(&d.bridges);
    let healthy = Algorithm::FloodMax.run_on(RuntimeKind::Sim, g, &base);
    let late_failure = base.clone().with_adversary(Adversary::LinkFailure {
        schedule: d.bridges.iter().map(|&e| (e, 100_000)).collect(),
    });
    let out = Algorithm::FloodMax.run_on(RuntimeKind::Sim, g, &late_failure);
    assert_eq!(out, healthy);
    assert!(out.election_succeeded());
    assert!(
        out.watch_hits.iter().all(Option::is_some),
        "bridges crossed"
    );
}

#[test]
fn all_crashed_run_reports_its_termination() {
    let g = gen::cycle(10).unwrap();
    let cfg = SimConfig::seeded(0)
        .with_knowledge(Knowledge::n(10))
        .with_adversary(Adversary::CrashStop {
            schedule: (0..10).map(|v| (v, 0)).collect(),
        });
    let out = le_elect(&g, &cfg, &LeastElConfig::all_candidates());
    assert_eq!(out.termination, Termination::AllCrashed);
    assert_eq!(out.crashed.len(), 10);
    assert_eq!(out.messages, 0, "nobody lived long enough to send");
    assert!(!out.election_succeeded());
    assert_eq!(out.undecided_count(), 10);
}

#[test]
fn kingdom_survives_stress_reseeding() {
    // The deterministic kingdom algorithm under many identifier draws —
    // each defines a different collision structure.
    let g = gen::grid(5, 5).unwrap();
    for seed in 0..12u64 {
        let out = Algorithm::KingdomKnownD.run(&g, seed);
        assert!(out.election_succeeded(), "seed {seed}");
        let out = Algorithm::KingdomDoubling.run(&g, seed);
        assert!(out.election_succeeded(), "doubling seed {seed}");
    }
}
