//! Experiment harness: regenerates every table and figure of the RedEye
//! paper's evaluation (§V).
//!
//! Each `src/bin/*.rs` binary reproduces one artifact and prints
//! paper-vs-measured rows:
//!
//! | Binary | Artifact |
//! |---|---|
//! | `fig6` | GoogLeNet partition depths |
//! | `fig7` | energy / timing / readout workload per depth vs image sensor |
//! | `fig8` | per-frame system energy on Jetson CPU/GPU/cloudlet ± RedEye |
//! | `fig9` | accuracy & energy vs Gaussian SNR |
//! | `fig10` | accuracy & energy vs ADC resolution |
//! | `table1` | operation modes (40/50/60 dB) |
//! | `headline` | §V-B sensor reduction, ShiDianNao, area (§V-D) |
//! | `ablation` | charge-sharing tunable capacitor vs naïve DAC |
//! | `alexnet` | AlexNet partition sweep ("similar findings") |
//! | `lowlight` | §VII situational noise scaling |
//! | `noise_plan` | §III-C per-layer SNR plans |
//! | `noise_aware` | §VII noise-aware fine-tuning |
//! | `privacy` | §VII feature-inversion irreversibility |
//! | `utilization` | §III-B column-mapping ablation |
//! | `all_experiments` | the paper artifacts above, in order |
//! | `redeye-fleet` | §V-B sensor population over the cloudlet queue, with a worker-count digest check |
//!
//! The simulator's own speed is measured elsewhere, by the repository
//! benchmark in `perfbench/` (workloads and metrics in `perfbench/METRICS.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod report;
pub mod workload;
