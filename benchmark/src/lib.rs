//! The repo benchmark of the `ule` simulator: seven workloads, each run in
//! fresh child processes by a parent that only waits, with benchmark-owned
//! tracing for the per-layer numbers. See `README.md` beside this package.

pub mod child;
pub mod metrics;
pub mod parent;
pub mod procstat;
pub mod replay;
pub mod trace;
pub mod workloads;
