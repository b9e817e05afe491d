//! # `ule-xp` — the unified experiment-campaign runner
//!
//! The paper's results section is a grid: algorithm × graph family × size
//! × seed. This crate makes that grid *declarative*: a [`CampaignSpec`]
//! names the axes (plus trials, knowledge regime, wakeup model, diameter
//! mode), [`run::execute`] expands it into cells and fans seeded trials
//! out across threads, and the result serializes to versioned JSON —
//! per-cell rounds/messages/bits statistics plus provenance (git describe,
//! timestamp, spec hash) — that CI can diff. [`compare::compare`] is that
//! diff: it matches cells between two result files under configurable
//! tolerance bands
//! and reports pass / warn / fail, which the `ule-xp compare` subcommand
//! maps to exit codes for the perf gate.
//!
//! This is the one campaign runner: Table 1 of the paper is `ule-xp run
//! --campaign table1` (every registry algorithm, the Corollary 4.2
//! spanner included), the §1.1.2 trade-off figure is `--campaign
//! fig-tradeoff`, and the engine-throughput baseline `BENCH_engine.json`
//! is `--campaign engine-scale` ([`spec::builtin`]). The tables `run`
//! prints come from [`report`] over the same cells as the result JSON, so
//! both views always agree.
//!
//! | Module | Role |
//! |---|---|
//! | [`spec`] | [`CampaignSpec`] model, JSON (de)serialization, built-ins |
//! | [`run`] | grid expansion + execution + result JSON |
//! | [`mod@compare`] | tolerance-banded diffing of counts and wall-clock (the CI gate) |
//! | [`report`] | human tables rendered from campaign cells |
//! | [`json`] | dependency-free JSON parse/emit |

#![warn(missing_docs)]

pub mod compare;
pub mod json;
pub mod report;
pub mod run;
pub mod spec;

pub use compare::{compare, parse_cells, Report, Tolerances, Verdict};
pub use run::{execute, CampaignResult, CellResult, RunMeta, SCHEMA_VERSION};
pub use spec::{builtin, AdversaryProfile, CampaignSpec, JobGroup, BUILTIN_CAMPAIGNS};

/// Error type for spec parsing, execution, and comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XpError(String);

impl XpError {
    /// Wraps a message.
    pub fn new(msg: impl Into<String>) -> XpError {
        XpError(msg.into())
    }
}

impl std::fmt::Display for XpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for XpError {}
