//! Experiment runners: one module per table/figure of the paper's
//! evaluation, plus runners that go beyond the paper ([`tenant_mix`],
//! [`tenant_qos`]).
//!
//! Every module exposes a `run` function returning structured rows and a
//! `table` function rendering them in the layout the paper uses, so the
//! examples (`cargo run --example fig10`) and the Criterion benches share
//! the same code path. Each runner builds its grid through
//! [`crate::experiment::Experiment`] and also offers a `run_with` variant
//! taking any [`crate::experiment::Executor`] (the examples pass a
//! [`crate::experiment::ThreadPoolExecutor`] to fan the independent runs
//! across cores). The README's "Reproducing figures" table names the
//! example and the bench that run each figure.

pub mod fig03;
pub mod fig04;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod load_curve;
pub mod memory_tech;
pub mod shard_scaling;
pub mod tenant_mix;
pub mod tenant_qos;

use palermo_workloads::Workload;

/// The four workloads the paper uses for its deep-dive figures
/// (Figs. 3, 9, 11, 12, 13).
pub const DEEP_DIVE_WORKLOADS: [Workload; 4] = [
    Workload::Mcf,
    Workload::PageRank,
    Workload::Llm,
    Workload::Redis,
];

/// A configuration scaled for quick figure smoke tests.
#[cfg(test)]
pub(crate) fn smoke_config() -> crate::system::SystemConfig {
    use crate::system::SystemConfig;
    let mut cfg = SystemConfig::small_for_tests();
    cfg.measured_requests = 30;
    cfg.warmup_requests = 10;
    cfg
}
