//! Memory of this process, read from `/proc/self/status`.

/// One `Vm*` field of `/proc/self/status`, in MiB.
fn field_mib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let rest = status.lines().find_map(|l| l.strip_prefix(field))?;
    let kib: f64 = rest.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kib / 1024.0)
}

/// Peak resident set (`VmHWM`) in MiB. A fresh child per run is what makes
/// this number belong to that run alone: the mark never falls.
pub fn peak_rss_mib() -> Option<f64> {
    field_mib("VmHWM:")
}

/// Resident set right now (`VmRSS`) in MiB.
pub fn rss_mib() -> Option<f64> {
    field_mib("VmRSS:")
}
