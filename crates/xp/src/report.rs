//! Human-readable campaign tables (the stdout the legacy binaries
//! printed, generated from campaign cells so both views always agree).

use crate::run::{CampaignResult, CellResult};
use ule_core::Algorithm;
use ule_sim::harness::Summary;

/// The Table 1-style column header; timed campaigns get two extra columns.
pub fn row_header(timed: bool) -> String {
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

/// One formatted row under [`row_header`], from the row's fields (so rows
/// that are not campaign cells — the `table1` binary's spanner section —
/// share the format): the `(n, m, D)` instance, the `(t/shape, msg/shape)`
/// ratios, and `(elapsed seconds, msgs/s)` for timed rows.
pub fn format_row(
    workload: &str,
    (n, m, d): (usize, usize, usize),
    summary: &Summary,
    (time_ratio, msg_ratio): (f64, f64),
    timing: Option<(f64, f64)>,
) -> String {
    let mut r = format!(
        "{:<16} {:>7} {:>8} {:>6} {:>10.1} {:>12.1} {:>13.1} {:>6}b {:>7.0}% {:>9.2} {:>9.2}",
        workload,
        n,
        m,
        d,
        summary.mean_rounds,
        summary.mean_messages,
        summary.mean_bits,
        summary.max_message_bits,
        100.0 * summary.success_rate(),
        time_ratio,
        msg_ratio
    );
    if let Some((elapsed, tput)) = timing {
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
            out.push_str(&format_row(
                &c.workload,
                (c.n, c.m, c.d),
                &c.summary,
                (c.time_ratio, c.msg_ratio),
                c.elapsed_s.zip(c.msgs_per_s),
            ));
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
