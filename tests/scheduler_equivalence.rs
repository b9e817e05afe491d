//! Scheduler-equivalence regression suite.
//!
//! The engine's event-driven scheduler (active set + wakeup heap) and its
//! sharded-parallel stepping mode must be observationally identical to the
//! sequential reference semantics: same messages, same rounds, same
//! statuses, same per-round totals, same per-directed-edge first uses —
//! byte for byte, for every algorithm in the registry, at every thread
//! count. Four layers of defence:
//!
//! 1. `full_outcome_is_reproducible`: two runs of the same seeded config
//!    produce identical `RunOutcome`s (determinism of the scheduler itself).
//! 2. `outcomes_match_pins`: headline numbers *and* a fingerprint over
//!    every `RunOutcome` field equal pinned ground-truth values, so any
//!    behavioural drift in the scheduler is caught against a recording,
//!    not just against itself. The pins were first recorded with the
//!    pre-refactor full-scan engine (commit 6e75ad2) and re-recorded with
//!    the sequential engine when the per-node RNG derivation was fixed to
//!    chain instead of XOR ([`ule_sim::node_rng_seed`]) — deterministic
//!    algorithms (`dfs-agent`, `kingdom(*)`, `floodmax`, `tole`) kept
//!    their original full-scan values across that re-recording, which
//!    cross-checks the recording procedure itself. The `spanner` pins
//!    were recorded from the Corollary 4.2 election's standalone entry
//!    point (`SpannerConfig::for_epsilon(0.5)`, knowledge of `n`) before
//!    it became a registry row, so they also check that the registry runs
//!    it unchanged. Regenerate after an
//!    intentional behaviour change with
//!    `cargo test --release --test scheduler_equivalence -- --ignored regenerate_pins --nocapture`.
//! 3. The pin matrix runs under `Parallelism::Off`, `Threads(2)`, and
//!    `Threads(4)`: the sharded engine's merge phase must reproduce the
//!    sequential recording exactly at every thread count (the determinism
//!    contract of `ule_sim::Parallelism`).
//! 4. `dfs_agent_matches_pins*`: `DfsAgent` under what the registry pins
//!    never exercise — permuted identifiers, adversarial wakeup with the
//!    wakeup flood, bounded delay, crashes — with a watched edge, on the
//!    engine at 1, 2 and 4 threads and on the async runtime.

use ule_core::dfs_agent::DfsAgent;
use ule_core::Algorithm;
use ule_graph::{dumbbell, gen, Graph, IdAssignment};
use ule_sim::{
    Adversary, Parallelism, RunOutcome, Runner, RuntimeKind, Status, Termination, Wakeup,
};

fn graphs() -> Vec<(&'static str, Graph)> {
    vec![
        ("cycle16", gen::cycle(16).unwrap()),
        ("grid4x4", gen::grid(4, 4).unwrap()),
        ("torus4x4", gen::torus(4, 4).unwrap()),
        (
            "dumbbell24",
            dumbbell::clique_path_dumbbell(12, 20, 0, 1).unwrap().graph,
        ),
    ]
}

/// `(seed, graph, algorithm, messages, rounds, bits, leader-or-minus-one,
/// full-outcome fingerprint)` recorded by running the sequential engine
/// on this exact workload matrix (see the module docs for provenance and
/// the regeneration procedure). The fingerprint is [`fingerprint`] over
/// *every* `RunOutcome` field — statuses, termination, watch hits,
/// per-directed-edge first uses and counts, `last_status_change`, and the
/// per-active-round totals — so drift in any observable, not just the
/// four headline numbers, fails the pin.
type Pin = (u64, &'static str, &'static str, u64, u64, u64, i64, u64);

/// Order-sensitive FNV-1a-style fold over every field of a [`RunOutcome`].
/// Deliberately hand-rolled (no `std::hash`): the constants are fixed, so
/// pinned values are stable across Rust releases.
fn fingerprint(out: &RunOutcome) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut mix = |x: u64| {
        h = (h ^ x).wrapping_mul(0x100000001b3);
    };
    mix(out.rounds);
    mix(out.messages);
    mix(out.bits);
    mix(out.statuses.len() as u64);
    for s in &out.statuses {
        mix(match s {
            Status::Undecided => 0,
            Status::Leader => 1,
            Status::NonLeader => 2,
        });
    }
    mix(match out.termination {
        Termination::Quiescent => 0,
        Termination::RoundLimit => 1,
        // Impossible under the pinned Lockstep matrix (no adversary ever
        // crashes anything there); the discriminant exists so fault-model
        // pins recorded in the future stay distinguishable.
        Termination::AllCrashed => 2,
    });
    mix(out.congest_violations);
    mix(out.max_message_bits);
    mix(out.watch_hits.len() as u64);
    for hit in &out.watch_hits {
        match hit {
            Some(w) => {
                mix(1);
                mix(w.round);
                mix(w.messages_before);
            }
            None => mix(0),
        }
    }
    mix(out.first_directed_use.len() as u64);
    for &r in &out.first_directed_use {
        mix(r);
    }
    mix(out.directed_message_counts.len() as u64);
    for &c in &out.directed_message_counts {
        mix(c);
    }
    match out.last_status_change {
        Some(r) => {
            mix(1);
            mix(r);
        }
        None => mix(0),
    }
    mix(out.round_totals.len() as u64);
    for &(r, t) in &out.round_totals {
        mix(r);
        mix(t);
    }
    h
}

const PINS: &[Pin] = &[
    // seed 1
    (
        1,
        "cycle16",
        "least-el(n)",
        128,
        19,
        4078,
        1,
        0x3d8c1778f27a1ee7,
    ),
    (
        1,
        "cycle16",
        "least-el(log n)",
        70,
        19,
        2431,
        13,
        0x5fcc2465a5764e1f,
    ),
    (
        1,
        "cycle16",
        "least-el(const)",
        104,
        19,
        3408,
        10,
        0x46c35277e2f0b136,
    ),
    (
        1,
        "cycle16",
        "size-estimate",
        297,
        47,
        11925,
        10,
        0x19be823df878da0b,
    ),
    (
        1,
        "cycle16",
        "las-vegas(n,D)",
        68,
        29,
        2312,
        0,
        0x0915a0eab49cf49e,
    ),
    (
        1,
        "cycle16",
        "clustering",
        170,
        21,
        6145,
        7,
        0x00cd88142e3113a1,
    ),
    (
        1,
        "cycle16",
        "dfs-agent",
        32,
        67,
        160,
        0,
        0xec377f73c7006519,
    ),
    (
        1,
        "cycle16",
        "kingdom(D)",
        202,
        113,
        3497,
        13,
        0xf011b28afc7b9888,
    ),
    (
        1,
        "cycle16",
        "kingdom(2^p)",
        244,
        83,
        4003,
        13,
        0x6b10a71053f4aa50,
    ),
    (
        1,
        "cycle16",
        "floodmax",
        110,
        9,
        2140,
        13,
        0x4f8046ea878d7987,
    ),
    (1, "cycle16", "tole", 146, 22, 5121, 13, 0xb09962417f073c1c),
    (1, "cycle16", "coin-flip", 0, 1, 0, -1, 0xdf59dd14e349bc7e),
    (
        1,
        "cycle16",
        "spanner",
        286,
        56,
        7384,
        7,
        0xcf3087c45d1feecc,
    ),
    (
        1,
        "grid4x4",
        "least-el(n)",
        216,
        14,
        6804,
        1,
        0xd86afcbacd02399c,
    ),
    (
        1,
        "grid4x4",
        "least-el(log n)",
        104,
        13,
        3632,
        13,
        0xf54c364219fc2360,
    ),
    (
        1,
        "grid4x4",
        "least-el(const)",
        154,
        12,
        4963,
        10,
        0xeb727de9c30f4a11,
    ),
    (
        1,
        "grid4x4",
        "size-estimate",
        465,
        33,
        18423,
        10,
        0x1c99e2abd5e61eee,
    ),
    (
        1,
        "grid4x4",
        "las-vegas(n,D)",
        110,
        23,
        3773,
        0,
        0x4ad848ca59429434,
    ),
    (
        1,
        "grid4x4",
        "clustering",
        252,
        15,
        9070,
        7,
        0x688de9fb01df23e1,
    ),
    (
        1,
        "grid4x4",
        "dfs-agent",
        48,
        99,
        240,
        0,
        0x7401c5f1c828eb01,
    ),
    (
        1,
        "grid4x4",
        "kingdom(D)",
        174,
        59,
        3121,
        13,
        0x6fc3db5889bdf22d,
    ),
    (
        1,
        "grid4x4",
        "kingdom(2^p)",
        308,
        83,
        4964,
        13,
        0x480b5ac758853075,
    ),
    (
        1,
        "grid4x4",
        "floodmax",
        138,
        7,
        2680,
        13,
        0x3116df4991001d53,
    ),
    (1, "grid4x4", "tole", 218, 15, 7661, 13, 0x6068c13c7e8724f3),
    (1, "grid4x4", "coin-flip", 0, 1, 0, -1, 0xdb0095d33064c6ae),
    (
        1,
        "grid4x4",
        "spanner",
        439,
        50,
        10845,
        7,
        0x05e07d8854fa7580,
    ),
    (
        1,
        "torus4x4",
        "least-el(n)",
        296,
        13,
        9370,
        1,
        0xfa21a55eefa70e85,
    ),
    (
        1,
        "torus4x4",
        "least-el(log n)",
        152,
        11,
        5312,
        13,
        0x8a8b15882b4e19ea,
    ),
    (
        1,
        "torus4x4",
        "least-el(const)",
        242,
        12,
        7827,
        10,
        0xa28556dbd153c353,
    ),
    (
        1,
        "torus4x4",
        "size-estimate",
        707,
        31,
        28038,
        10,
        0x90376128963f607e,
    ),
    (
        1,
        "torus4x4",
        "las-vegas(n,D)",
        150,
        17,
        5169,
        0,
        0x32330489888d70c4,
    ),
    (
        1,
        "torus4x4",
        "clustering",
        342,
        13,
        12319,
        7,
        0x25fdbbc6fe013f1d,
    ),
    (
        1,
        "torus4x4",
        "dfs-agent",
        64,
        131,
        320,
        0,
        0xc344b326159156b1,
    ),
    (
        1,
        "torus4x4",
        "kingdom(D)",
        222,
        43,
        4114,
        13,
        0xe33a9863b3b06cc2,
    ),
    (
        1,
        "torus4x4",
        "kingdom(2^p)",
        296,
        45,
        5206,
        13,
        0xb5f26be77e7fd688,
    ),
    (
        1,
        "torus4x4",
        "floodmax",
        172,
        5,
        3336,
        13,
        0xcb2ee4cd81e48173,
    ),
    (
        1,
        "torus4x4",
        "tole",
        296,
        13,
        10404,
        13,
        0xeeab7ed2003aaf8c,
    ),
    (1, "torus4x4", "coin-flip", 0, 1, 0, -1, 0xb60e818c44aab1de),
    (
        1,
        "torus4x4",
        "spanner",
        593,
        48,
        14902,
        7,
        0x7d368901dff7b30d,
    ),
    (
        1,
        "dumbbell24",
        "least-el(n)",
        352,
        20,
        13502,
        16,
        0xd3a43a82468c9500,
    ),
    (
        1,
        "dumbbell24",
        "least-el(log n)",
        220,
        17,
        8608,
        0,
        0xf5a49f206f38528e,
    ),
    (
        1,
        "dumbbell24",
        "least-el(const)",
        222,
        19,
        7893,
        13,
        0x6cd704cb5c42f65b,
    ),
    (
        1,
        "dumbbell24",
        "size-estimate",
        1027,
        57,
        44302,
        10,
        0x8d3ad4883fc1fdcd,
    ),
    (
        1,
        "dumbbell24",
        "las-vegas(n,D)",
        270,
        50,
        10701,
        20,
        0x707f57828514a5be,
    ),
    (
        1,
        "dumbbell24",
        "clustering",
        534,
        30,
        22077,
        10,
        0xb0580d021e0da0e6,
    ),
    (
        1,
        "dumbbell24",
        "dfs-agent",
        87,
        171,
        439,
        0,
        0xfc05bff511853e7d,
    ),
    (
        1,
        "dumbbell24",
        "kingdom(D)",
        450,
        197,
        9094,
        15,
        0xb08b5285cdaeab1e,
    ),
    (
        1,
        "dumbbell24",
        "kingdom(2^p)",
        705,
        153,
        13293,
        15,
        0x832512617e43396f,
    ),
    (
        1,
        "dumbbell24",
        "floodmax",
        218,
        16,
        4916,
        15,
        0x0e01b98cc1c16fd0,
    ),
    (
        1,
        "dumbbell24",
        "tole",
        350,
        21,
        14491,
        15,
        0x54b4efa55cecd143,
    ),
    (
        1,
        "dumbbell24",
        "coin-flip",
        0,
        1,
        0,
        -1,
        0xfbd2ad6541ec0c37,
    ),
    (
        1,
        "dumbbell24",
        "spanner",
        810,
        68,
        24040,
        10,
        0x3e64a4faf8d8027c,
    ),
    // seed 2
    (
        2,
        "cycle16",
        "least-el(n)",
        128,
        19,
        4326,
        15,
        0x2c0961c1eaebf19e,
    ),
    (
        2,
        "cycle16",
        "least-el(log n)",
        82,
        19,
        2859,
        4,
        0xcd005a2472f6d182,
    ),
    (
        2,
        "cycle16",
        "least-el(const)",
        110,
        19,
        3727,
        5,
        0x587b219534841cbe,
    ),
    (
        2,
        "cycle16",
        "size-estimate",
        293,
        43,
        10848,
        14,
        0x5bd3a419dcaaca86,
    ),
    (
        2,
        "cycle16",
        "las-vegas(n,D)",
        82,
        29,
        2859,
        4,
        0x90a4c8be4af5cd53,
    ),
    (
        2,
        "cycle16",
        "clustering",
        158,
        20,
        5923,
        8,
        0x54881373cbb82ac4,
    ),
    (
        2,
        "cycle16",
        "dfs-agent",
        32,
        67,
        160,
        0,
        0xec377f73c7006519,
    ),
    (
        2,
        "cycle16",
        "kingdom(D)",
        203,
        113,
        3545,
        5,
        0x5c437df062610226,
    ),
    (
        2,
        "cycle16",
        "kingdom(2^p)",
        262,
        83,
        4355,
        5,
        0x7b909e341042621e,
    ),
    (
        2,
        "cycle16",
        "floodmax",
        100,
        9,
        1968,
        5,
        0x40f8cd669172ddad,
    ),
    (2, "cycle16", "tole", 136, 21, 4844, 5, 0x28c86debe9411bb0),
    (2, "cycle16", "coin-flip", 0, 1, 0, 7, 0xf38a809d622cd0e7),
    (
        2,
        "cycle16",
        "spanner",
        271,
        55,
        6932,
        6,
        0x6421657a28a3f7cd,
    ),
    (
        2,
        "grid4x4",
        "least-el(n)",
        220,
        15,
        7344,
        15,
        0xa0c9785f110feea6,
    ),
    (
        2,
        "grid4x4",
        "least-el(log n)",
        146,
        13,
        5089,
        4,
        0xfbb7226e1bd677aa,
    ),
    (
        2,
        "grid4x4",
        "least-el(const)",
        144,
        11,
        4826,
        5,
        0xaad8b35abddb4838,
    ),
    (
        2,
        "grid4x4",
        "size-estimate",
        523,
        35,
        18833,
        14,
        0x1ea4c03e3507e5e5,
    ),
    (
        2,
        "grid4x4",
        "las-vegas(n,D)",
        146,
        23,
        5089,
        4,
        0x75337b565ab4eabd,
    ),
    (
        2,
        "grid4x4",
        "clustering",
        248,
        15,
        9332,
        8,
        0x8712a3fec633bd01,
    ),
    (
        2,
        "grid4x4",
        "dfs-agent",
        48,
        99,
        240,
        0,
        0x7401c5f1c828eb01,
    ),
    (
        2,
        "grid4x4",
        "kingdom(D)",
        274,
        89,
        4890,
        5,
        0x92a2efc66489d757,
    ),
    (
        2,
        "grid4x4",
        "kingdom(2^p)",
        256,
        45,
        4562,
        5,
        0xee6b9fdbadf07a79,
    ),
    (
        2,
        "grid4x4",
        "floodmax",
        127,
        7,
        2494,
        5,
        0x3e78085909eaa2ca,
    ),
    (2, "grid4x4", "tole", 198, 15, 7043, 5, 0x6a7ca1499256b9e6),
    (2, "grid4x4", "coin-flip", 0, 1, 0, 7, 0x89ed92165d3d4137),
    (
        2,
        "grid4x4",
        "spanner",
        459,
        48,
        11399,
        6,
        0x69ad765d0f24e856,
    ),
    (
        2,
        "torus4x4",
        "least-el(n)",
        290,
        12,
        9679,
        15,
        0x25160b5ec7531eb8,
    ),
    (
        2,
        "torus4x4",
        "least-el(log n)",
        204,
        12,
        7080,
        4,
        0xbec4716a13c46d5a,
    ),
    (
        2,
        "torus4x4",
        "least-el(const)",
        242,
        12,
        8107,
        5,
        0x7db45a50690008d4,
    ),
    (
        2,
        "torus4x4",
        "size-estimate",
        689,
        32,
        24816,
        14,
        0xc249068cee4a9282,
    ),
    (
        2,
        "torus4x4",
        "las-vegas(n,D)",
        204,
        17,
        7080,
        4,
        0xd1d7b486ad5cb752,
    ),
    (
        2,
        "torus4x4",
        "clustering",
        336,
        13,
        12648,
        8,
        0xbcce2a000ea4d912,
    ),
    (
        2,
        "torus4x4",
        "dfs-agent",
        64,
        131,
        320,
        0,
        0xc344b326159156b1,
    ),
    (
        2,
        "torus4x4",
        "kingdom(D)",
        352,
        65,
        6628,
        5,
        0xdcc0520d623650de,
    ),
    (
        2,
        "torus4x4",
        "kingdom(2^p)",
        352,
        45,
        6628,
        5,
        0xb343490e5795b6c2,
    ),
    (
        2,
        "torus4x4",
        "floodmax",
        164,
        5,
        3224,
        5,
        0x485dff05c3ca17ff,
    ),
    (2, "torus4x4", "tole", 284, 13, 10142, 5, 0xee3eef56cd3cb280),
    (2, "torus4x4", "coin-flip", 0, 1, 0, 7, 0x85f3f0d9cb0d16c7),
    (
        2,
        "torus4x4",
        "spanner",
        579,
        48,
        14652,
        6,
        0xe142decaba267189,
    ),
    (
        2,
        "dumbbell24",
        "least-el(n)",
        442,
        29,
        16685,
        10,
        0x119a8660f43319f3,
    ),
    (
        2,
        "dumbbell24",
        "least-el(log n)",
        226,
        19,
        8817,
        15,
        0xaed8b0d07bfeddfd,
    ),
    (
        2,
        "dumbbell24",
        "least-el(const)",
        226,
        19,
        8817,
        15,
        0xaed8b0d07bfeddfd,
    ),
    (
        2,
        "dumbbell24",
        "size-estimate",
        793,
        41,
        34105,
        0,
        0x2ff9b3fdf4f142b8,
    ),
    (
        2,
        "dumbbell24",
        "las-vegas(n,D)",
        252,
        50,
        10196,
        7,
        0x53eedc7e8e61a053,
    ),
    (
        2,
        "dumbbell24",
        "clustering",
        522,
        30,
        21487,
        9,
        0xe2c68aac80c9216e,
    ),
    (
        2,
        "dumbbell24",
        "dfs-agent",
        87,
        171,
        439,
        0,
        0xfc05bff511853e7d,
    ),
    (
        2,
        "dumbbell24",
        "kingdom(D)",
        450,
        197,
        9139,
        7,
        0xf5374c5bb1959364,
    ),
    (
        2,
        "dumbbell24",
        "kingdom(2^p)",
        698,
        153,
        13328,
        7,
        0x874b1a9a8b2605a9,
    ),
    (
        2,
        "dumbbell24",
        "floodmax",
        257,
        16,
        5776,
        7,
        0x5b585a366a4f11c4,
    ),
    (
        2,
        "dumbbell24",
        "tole",
        412,
        24,
        17018,
        7,
        0xfaf21660b1faa2d0,
    ),
    (2, "dumbbell24", "coin-flip", 0, 1, 0, 7, 0x38ddf06c17d37c1b),
    (
        2,
        "dumbbell24",
        "spanner",
        666,
        56,
        18671,
        16,
        0x36bb73cb26ed4d51,
    ),
];

#[test]
fn full_outcome_is_reproducible() {
    for (gname, g) in graphs() {
        for alg in Algorithm::ALL {
            for seed in [1u64, 2] {
                let a = alg.run(&g, seed);
                let b = alg.run(&g, seed);
                assert_eq!(
                    a, b,
                    "{alg} on {gname} seed {seed}: two identically seeded runs diverged"
                );
            }
        }
    }
}

/// Runs the full pin matrix under one parallelism setting.
fn check_pins(parallelism: Parallelism) {
    let graphs = graphs();
    assert_eq!(PINS.len(), 2 * graphs.len() * Algorithm::ALL.len());
    for &(seed, gname, alg_name, messages, rounds, bits, leader, fp) in PINS {
        let (_, g) = graphs
            .iter()
            .find(|(name, _)| *name == gname)
            .expect("pinned graph exists");
        let alg = Algorithm::ALL
            .into_iter()
            .find(|a| a.spec().name == alg_name)
            .expect("pinned algorithm exists");
        let mut cfg = alg.config_for(g, seed);
        cfg.parallelism = parallelism;
        let out = alg.run_on(RuntimeKind::Sim, g, &cfg);
        let got_leader = out.leader().map(|v| v as i64).unwrap_or(-1);
        assert_eq!(
            (
                out.messages,
                out.rounds,
                out.bits,
                got_leader,
                fingerprint(&out)
            ),
            (messages, rounds, bits, leader, fp),
            "{alg_name} on {gname} seed {seed} drifted from the pinned \
             sequential recording under {parallelism:?}"
        );
    }
}

#[test]
fn outcomes_match_pins() {
    check_pins(Parallelism::Off);
}

#[test]
fn outcomes_match_pins_with_2_threads() {
    check_pins(Parallelism::Threads(2));
}

#[test]
fn outcomes_match_pins_with_4_threads() {
    check_pins(Parallelism::Threads(4));
}

/// The DfsAgent scenarios the registry pins miss (those run sequential
/// identifiers under lockstep with simultaneous wakeup): every scenario
/// uses a fixed non-sequential identifier permutation and watches one
/// edge in both orientations, so `messages_before` pins the send order.
const DFS_SCENARIOS: [&str; 4] = ["permuted", "wakeup", "delay", "crash"];

/// `(scenario, graph, messages, rounds, bits, leader-or-minus-one,
/// full-outcome fingerprint)` for [`dfs_outcome`], recorded on the
/// sequential engine before `DfsAgent` collapsed its node state to one
/// walker.
type DfsPin = (&'static str, &'static str, u64, u64, u64, i64, u64);

const DFS_PINS: &[DfsPin] = &[
    ("permuted", "cycle16", 39, 67, 202, 13, 0x2af6ab83be026ac7),
    ("permuted", "grid4x4", 55, 99, 283, 13, 0x92ddcc9bd2f8f9df),
    ("permuted", "torus4x4", 71, 131, 363, 13, 0x200464a207f43b13),
    (
        "permuted",
        "dumbbell24",
        95,
        171,
        492,
        13,
        0x9e4147f9358271d4,
    ),
    ("wakeup", "cycle16", 71, 69, 330, 13, 0xdcff50e6c7a9bb58),
    ("wakeup", "grid4x4", 103, 101, 475, 13, 0xcd77a51e2c64f9f0),
    ("wakeup", "torus4x4", 135, 133, 619, 13, 0x07652c3d33a53bde),
    (
        "wakeup",
        "dumbbell24",
        179,
        173,
        828,
        13,
        0xbe43fb04f030eaf3,
    ),
    ("delay", "cycle16", 39, 109, 202, 13, 0x4336a05c1da76ab9),
    ("delay", "grid4x4", 59, 159, 306, 13, 0x24d0c38c1311151d),
    ("delay", "torus4x4", 71, 209, 363, 13, 0x83a0da0aeafc3272),
    ("delay", "dumbbell24", 95, 277, 492, 13, 0x89b950648dd613cf),
    ("crash", "cycle16", 14, 162, 91, -1, 0x232c9e30903a9edb),
    ("crash", "grid4x4", 27, 65538, 151, -1, 0xa527c086bce7c80a),
    ("crash", "torus4x4", 26, 65538, 143, -1, 0x8f5a25aa574beeb8),
    (
        "crash",
        "dumbbell24",
        56,
        2097154,
        303,
        -1,
        0x2c5b4a6a5a9f625b,
    ),
];

/// One DfsAgent run of `scenario` on `g`. Identifiers are the
/// permutation `v ↦ (7v + 5) mod n + 1` (7 is coprime to every pin
/// graph's size); the watched edge is the dumbbell's first bridge, and
/// node 0's port-0 edge on the other graphs.
fn dfs_outcome(
    scenario: &str,
    gname: &str,
    g: &Graph,
    parallelism: Parallelism,
    kind: RuntimeKind,
) -> RunOutcome {
    let n = g.len();
    let ids = (0..n).map(|v| ((7 * v + 5) % n + 1) as u64).collect();
    let (u, v) = if gname == "dumbbell24" {
        dumbbell::clique_path_dumbbell(12, 20, 0, 1)
            .unwrap()
            .bridges[0]
    } else {
        (0, g.neighbor(0, 0))
    };
    let mut cfg = Algorithm::DfsAgent
        .config_for(g, 1)
        .with_ids(IdAssignment::new(ids))
        .with_parallelism(parallelism)
        .watching(&[(u, v), (v, u)]);
    match scenario {
        "permuted" => {}
        "wakeup" => cfg = cfg.with_wakeup(Wakeup::Adversarial(vec![5, 11])),
        "delay" => cfg = cfg.with_adversary(Adversary::BoundedDelay { max_delay: 2 }),
        "crash" => {
            cfg = cfg.with_adversary(Adversary::CrashStop {
                schedule: vec![(3, 4), (10, 6)],
            })
        }
        other => panic!("unknown DfsAgent scenario {other}"),
    }
    let send_wakeup = scenario == "wakeup";
    Runner::new(g, &cfg)
        .runtime(kind)
        .run(|_, s, _| DfsAgent::new(s.id.unwrap(), s.degree, send_wakeup))
}

/// Runs the DfsAgent pin matrix on one engine/runtime setting.
fn check_dfs_pins(parallelism: Parallelism, kind: RuntimeKind) {
    let graphs = graphs();
    assert_eq!(DFS_PINS.len(), DFS_SCENARIOS.len() * graphs.len());
    for &(scenario, gname, messages, rounds, bits, leader, fp) in DFS_PINS {
        let (_, g) = graphs
            .iter()
            .find(|(name, _)| *name == gname)
            .expect("pinned graph exists");
        let out = dfs_outcome(scenario, gname, g, parallelism, kind);
        let got_leader = out.leader().map(|v| v as i64).unwrap_or(-1);
        assert_eq!(
            (
                out.messages,
                out.rounds,
                out.bits,
                got_leader,
                fingerprint(&out)
            ),
            (messages, rounds, bits, leader, fp),
            "dfs-agent {scenario} on {gname} drifted from the pinned \
             recording under {parallelism:?} on {kind:?}"
        );
    }
}

#[test]
fn dfs_agent_matches_pins() {
    check_dfs_pins(Parallelism::Off, RuntimeKind::Sim);
}

#[test]
fn dfs_agent_matches_pins_with_2_threads() {
    check_dfs_pins(Parallelism::Threads(2), RuntimeKind::Sim);
}

#[test]
fn dfs_agent_matches_pins_with_4_threads() {
    check_dfs_pins(Parallelism::Threads(4), RuntimeKind::Sim);
}

#[test]
fn dfs_agent_matches_pins_on_async_runtime() {
    check_dfs_pins(Parallelism::Off, RuntimeKind::Async);
}

/// Pin-regeneration tool, not a check: prints the `PINS` table body for
/// pasting into this file after an *intentional* behaviour change (engine
/// semantics, RNG derivation, algorithm retuning). Run with
/// `cargo test --release --test scheduler_equivalence -- --ignored regenerate_pins --nocapture`.
#[test]
#[ignore = "regeneration tool: prints the PINS table, never fails"]
fn regenerate_pins() {
    for seed in [1u64, 2] {
        println!("    // seed {seed}");
        for (gname, g) in graphs() {
            for alg in Algorithm::ALL {
                let out = alg.run(&g, seed);
                let leader = out.leader().map(|v| v as i64).unwrap_or(-1);
                println!(
                    "    ({seed}, {gname:?}, {:?}, {}, {}, {}, {leader}, {:#018x}),",
                    alg.spec().name,
                    out.messages,
                    out.rounds,
                    out.bits,
                    fingerprint(&out)
                );
            }
        }
    }
    println!("    // DFS_PINS");
    for scenario in DFS_SCENARIOS {
        for (gname, g) in graphs() {
            let out = dfs_outcome(scenario, gname, &g, Parallelism::Off, RuntimeKind::Sim);
            let leader = out.leader().map(|v| v as i64).unwrap_or(-1);
            println!(
                "    ({scenario:?}, {gname:?}, {}, {}, {}, {leader}, {:#018x}),",
                out.messages,
                out.rounds,
                out.bits,
                fingerprint(&out)
            );
        }
    }
}
