//! Golden-file test for the campaign result JSON schema.
//!
//! Serializes a tiny deterministic campaign with fixed provenance and
//! compares the bytes against a checked-in fixture. Any schema change —
//! field added, renamed, reordered, number formatting drift, seed
//! derivation drift — shows up as a diff here and must be deliberate
//! (bump [`ule_xp::SCHEMA_VERSION`] on breaking changes so `compare`
//! rejects stale baselines).

use ule_core::Algorithm;
use ule_graph::gen::Family;
use ule_xp::json::Json;
use ule_xp::spec::{
    AdversaryProfile, CampaignSpec, DiameterMode, JobGroup, KnowledgeMode, WakeupMode,
};
use ule_xp::{execute, parse_cells, RunMeta};

fn golden_spec() -> CampaignSpec {
    CampaignSpec {
        name: "golden-tiny".into(),
        graph_seed: 7,
        groups: vec![JobGroup {
            algorithms: vec![Algorithm::FloodMax, Algorithm::KingdomKnownD],
            families: vec![Family::Cycle, Family::CompleteBinaryTree],
            sizes: vec![15],
            trials: 2,
            diameter: DiameterMode::Exact,
            knowledge: KnowledgeMode::AlgorithmDefault,
            wakeup: WakeupMode::Simultaneous,
            timed: false,
            threads: None,
            adversary: AdversaryProfile::Lockstep,
            runtime: ule_sim::RuntimeKind::Sim,
            implicit: false,
        }],
    }
}

#[test]
fn result_json_matches_checked_in_fixture() {
    let result = execute(&golden_spec(), RunMeta::fixed(), false).unwrap();
    let mut emitted = result.to_json().pretty();
    emitted.push('\n');
    let fixture = include_str!("fixtures/golden_tiny.json");
    assert_eq!(
        emitted, fixture,
        "campaign result schema drifted from fixtures/golden_tiny.json; \
         if intentional, regenerate the fixture and consider bumping SCHEMA_VERSION"
    );
}

#[test]
fn fixture_parses_back_as_comparable_cells() {
    let fixture = include_str!("fixtures/golden_tiny.json");
    let cells = parse_cells(&Json::parse(fixture).unwrap()).unwrap();
    assert_eq!(cells.len(), 4);
    let c = &cells["floodmax @ cycle/15"];
    assert!(c.mean_messages > 0.0 && c.mean_rounds > 0.0);
    assert_eq!(c.success_rate, Some(1.0));
    assert_eq!(c.msgs_per_s, None);
}
