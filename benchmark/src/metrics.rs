//! The metric tables: names, units, bounds, and which workload a layer
//! metric is observed on. `BENCHMARK.json` lists the same names; the
//! package's tests hold the two together.

use crate::workloads::{Kind, Workload};

/// A metric a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// Share of the baseline by which the metric may worsen before it counts
    /// as a regression. Set from the spread measured on the reference box
    /// (see the README): a quiet machine would allow a tighter one.
    pub bound: f64,
}

/// Every workload reports all of these, from its untraced children.
/// `failed_frac` is reported beside them as `failed` ÷ `attempted`; its
/// bound is zero.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "run_s",
        unit: "s",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "total_s",
        unit: "s",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "msgs_per_s",
        unit: "1/s",
        lower_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        lower_is_better: true,
        bound: 0.10,
    },
];

/// Where a layer metric is observed. Elsewhere the layer did no work the
/// benchmark can see, and the result line carries a zero for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum On {
    All,
    /// The six single-cell workloads, whose protocol and topology the
    /// traced child can decorate.
    Cells,
    Sweep,
    Only(&'static str),
}

/// A metric of a single layer, from the traced child.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub on: On,
}

impl Layer {
    pub fn applies(&self, w: &Workload) -> bool {
        match self.on {
            On::All => true,
            On::Cells => matches!(w.kind, Kind::Cell(_)),
            On::Sweep => matches!(w.kind, Kind::Sweep),
            On::Only(name) => w.name == name,
        }
    }
}

const fn layer(name: &'static str, unit: &'static str, on: On) -> Layer {
    Layer { name, unit, on }
}

/// Names are `<crate>.<module>.<metric>`.
pub const PER_LAYER: [Layer; 45] = [
    layer("graph.gen.build_s", "s", On::All),
    layer("graph.analysis.diameter_s", "s", On::All),
    layer("graph.ids.sample_s", "s", On::All),
    layer("graph.gen.rss_mib", "MiB", On::All),
    layer("graph.topo.endpoint_calls", "count", On::All),
    layer("graph.topo.endpoint_ns", "ns", On::All),
    layer("graph.topo.endpoint_share", "ratio", On::All),
    layer("core.protocol.steps", "count", On::Cells),
    layer("core.protocol.on_round_s", "s", On::Cells),
    layer("core.protocol.on_round_ns", "ns", On::Cells),
    layer("core.protocol.inbox_msgs_per_step", "ratio", On::Cells),
    layer("core.registry.rounds", "count", On::All),
    layer("core.registry.messages", "count", On::All),
    layer("core.registry.bits", "count", On::All),
    layer("core.registry.success_frac", "ratio", On::All),
    layer("sim.runner.run_s", "s", On::All),
    layer("sim.engine.self_s", "s", On::Cells),
    layer("sim.engine.self_ns_per_msg", "ns", On::Cells),
    layer("sim.engine.active_rounds", "count", On::All),
    layer("sim.engine.steps_per_active_round", "ratio", On::Cells),
    layer("sim.engine.self_us_per_active_round", "us", On::Cells),
    layer("sim.engine.self_ns_per_step", "ns", On::Cells),
    layer("sim.engine.shard_ratio", "ratio", On::Only("sharded-torus")),
    layer("sim.engine.run_rss_mib", "MiB", On::All),
    layer("sim.adversary.fate_calls", "count", On::All),
    layer("sim.adversary.fate_ns", "ns", On::All),
    layer("sim.adversary.fate_share", "ratio", On::All),
    layer("sim.adversary.dropped", "count", On::All),
    layer("sim.adversary.late_deliveries", "count", On::All),
    layer("sim.calendar.item_ns", "ns", On::All),
    layer("sim.calendar.share", "ratio", On::All),
    layer("sim.rt.run_s", "s", On::Only("async-torus")),
    layer("sim.rt.ratio_vs_engine", "ratio", On::Only("async-torus")),
    layer("sim.transport.frame_ns", "ns", On::All),
    layer("sim.exec.congest_violations", "count", On::All),
    layer("sim.harness.trials", "count", On::All),
    layer("sim.harness.summary_s", "s", On::All),
    layer("xp.execute_s", "s", On::Sweep),
    layer("xp.cells", "count", On::Sweep),
    layer("xp.cells_per_s", "1/s", On::Sweep),
    layer("xp.json.emit_s", "s", On::Sweep),
    layer("xp.json.parse_s", "s", On::Sweep),
    layer("xp.json.bytes", "count", On::Sweep),
    layer("xp.compare_s", "s", On::Sweep),
    layer("trace.overhead_ratio", "ratio", On::All),
];

/// Layer metrics that are simulated statistics or call counts: identical
/// between any two runs of the same inputs, on any commit that claims
/// only speed.
pub fn is_exact_count(layer: &Layer) -> bool {
    layer.unit == "count" && layer.name != "xp.json.bytes"
        || layer.name == "core.registry.success_frac"
}
