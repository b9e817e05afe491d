//! Human-readable campaign tables: the stdout of `ule-xp run`, generated
//! from the same campaign cells as the result JSON, so both views always
//! agree.

use crate::run::{CampaignResult, CellResult};
use ule_core::Algorithm;

/// The Table 1-style column header; timed campaigns get two extra columns.
fn row_header(timed: bool) -> String {
    let mut h = format!(
        "{:<16} {:>7} {:>8} {:>6} {:>10} {:>12} {:>13} {:>7} {:>8} {:>9} {:>9}",
        "workload",
        "n",
        "m",
        "D",
        "rounds",
        "messages",
        "bits",
        "maxmsg",
        "ok",
        "t/shape",
        "msg/shape"
    );
    if timed {
        h.push_str(&format!(" {:>9} {:>12}", "elapsed", "msgs/s"));
    }
    h
}

/// One formatted cell under [`row_header`]: the `(n, m, D)` instance,
/// the summary, the `(t/shape, msg/shape)` ratios, and `(elapsed seconds,
/// msgs/s)` for timed cells.
fn format_row(c: &CellResult) -> String {
    let summary = &c.summary;
    let mut r = format!(
        "{:<16} {:>7} {:>8} {:>6} {:>10.1} {:>12.1} {:>13.1} {:>6}b {:>7.0}% {:>9.2} {:>9.2}",
        c.workload,
        c.n,
        c.m,
        c.d,
        summary.mean_rounds,
        summary.mean_messages,
        summary.mean_bits,
        summary.max_message_bits,
        100.0 * summary.success_rate(),
        c.time_ratio,
        c.msg_ratio
    );
    if let Some((elapsed, tput)) = c.elapsed_s.zip(c.msgs_per_s) {
        r.push_str(&format!(" {elapsed:>8.3}s {tput:>12.0}"));
    }
    r
}

/// Renders the whole campaign as per-algorithm blocks (algorithms in
/// first-appearance order, cells in grid order).
pub fn render(result: &CampaignResult) -> String {
    let mut order: Vec<Algorithm> = Vec::new();
    for cell in &result.cells {
        if !order.contains(&cell.algorithm) {
            order.push(cell.algorithm);
        }
    }
    let mut out = String::new();
    for alg in order {
        let cells: Vec<&CellResult> = result.cells.iter().filter(|c| c.algorithm == alg).collect();
        let timed = cells.iter().any(|c| c.elapsed_s.is_some());
        let spec = alg.spec();
        out.push_str(&format!(
            "### {} — {} | claimed: time {}, messages {}, success {}\n",
            spec.name, spec.reference, spec.time, spec.messages, spec.success
        ));
        out.push_str(&row_header(timed));
        out.push('\n');
        for c in cells {
            out.push_str(&format_row(c));
            out.push('\n');
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{execute, RunMeta};
    use crate::spec::{
        AdversaryProfile, CampaignSpec, DiameterMode, JobGroup, KnowledgeMode, WakeupMode,
    };
    use ule_graph::gen::Family;

    #[test]
    fn renders_one_block_per_algorithm() {
        let spec = CampaignSpec {
            name: "r".into(),
            graph_seed: 3,
            groups: vec![JobGroup {
                algorithms: vec![Algorithm::FloodMax, Algorithm::Tole],
                families: vec![Family::Cycle],
                sizes: vec![12],
                trials: 1,
                diameter: DiameterMode::Exact,
                knowledge: KnowledgeMode::AlgorithmDefault,
                wakeup: WakeupMode::Simultaneous,
                timed: true,
                threads: None,
                adversary: AdversaryProfile::Lockstep,
                runtime: ule_sim::RuntimeKind::Sim,
                implicit: false,
            }],
        };
        let result = execute(&spec, RunMeta::fixed(), false).unwrap();
        let text = render(&result);
        assert_eq!(text.matches("### ").count(), 2);
        assert!(text.contains("floodmax"));
        assert!(text.contains("cycle/12"));
        assert!(text.contains("msgs/s"));
    }
}
