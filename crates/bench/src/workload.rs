//! Shared experiment workloads: the trained stand-in network and the
//! raw-captured validation set.
//!
//! The paper's accuracy experiments use a pre-trained GoogLeNet over
//! ImageNet. We have neither, so (per the documented substitution) the
//! accuracy sweeps run a *trained-in-repo* network of the same layer
//! vocabulary over the synthetic dataset, captured through the paper's
//! raw-input pipeline (gamma undone, Poisson shot noise, fixed-pattern
//! noise). Energy curves always come from the exact GoogLeNet geometry.

use redeye_core::{auto_workers, compile, CompileOptions, Depth, Program, WeightBank};
use redeye_dataset::{sensor, SyntheticDataset};
use redeye_nn::train::{evaluate, train_epoch, Example, Sgd};
use redeye_nn::{build_network, summarize, zoo, NetworkSpec, WeightInit};
use redeye_sim::extract_params;
use redeye_tensor::{Rng, Tensor};
use std::num::NonZeroUsize;

/// Number of classes in the stand-in task.
pub const CLASSES: usize = 32;

/// Task difficulty (see [`SyntheticDataset::with_difficulty`]): the hardest
/// setting, so fine hue/contrast distinctions — the kind analog noise
/// destroys — carry the label and the Fig. 9/10 knees are visible.
pub const DIFFICULTY: f32 = 1.0;

/// A trained stand-in model: its spec, trained parameters, and clean
/// validation accuracy.
pub struct TrainedModel {
    /// The network spec (micronet; ends in logits).
    pub spec: NetworkSpec,
    /// Trained parameters in visit order.
    pub params: Vec<Tensor>,
    /// Clean (noise-free) Top-1 validation accuracy after training.
    pub clean_top1: f32,
}

/// Captures a display-domain image through the §V-A raw pipeline.
pub fn capture(
    image: &Tensor,
    fpn: &sensor::FixedPatternNoise,
    full_well: f64,
    rng: &mut Rng,
) -> Tensor {
    sensor::capture_raw(image, full_well, fpn, rng)
}

/// Generates a raw-captured labeled set from the synthetic dataset.
pub fn captured_set(
    dataset: &SyntheticDataset,
    start: u64,
    n: usize,
    full_well: f64,
    seed: u64,
) -> Vec<(Tensor, usize)> {
    let mut rng = Rng::seed_from(seed);
    let fpn =
        sensor::FixedPatternNoise::new(&[3, dataset.side(), dataset.side()], 0.01, 0.005, &mut rng);
    dataset
        .batch(start, n)
        .into_iter()
        .map(|li| (capture(&li.image, &fpn, full_well, &mut rng), li.label))
        .collect()
}

/// Trains the micronet stand-in on raw-captured synthetic images.
///
/// `train_n` examples, `epochs` passes. Returns the trained model; training
/// is deterministic in `seed`.
///
/// # Panics
///
/// Panics if training diverges (it does not at the default hyperparameters).
pub fn train_standin(train_n: usize, epochs: usize, seed: u64) -> TrainedModel {
    let spec = zoo::micronet(8, CLASSES);
    let dataset = SyntheticDataset::with_difficulty(CLASSES, 32, seed, DIFFICULTY);
    let train_set = captured_set(&dataset, 0, train_n, 10_000.0, seed ^ 0xAB);
    let examples: Vec<Example> = train_set
        .into_iter()
        .map(|(input, label)| Example { input, label })
        .collect();

    let mut rng = Rng::seed_from(seed);
    let mut net =
        build_network(&spec, WeightInit::HeNormal, &mut rng).expect("micronet spec is well-formed");
    let mut opt = Sgd::new(0.02, 0.9, 1e-4);
    for epoch in 0..epochs {
        let stats = train_epoch(&mut net, &mut opt, &examples, 16)
            .unwrap_or_else(|e| panic!("training failed at epoch {epoch}: {e}"));
        // Simple step decay keeps late epochs stable.
        if epoch == epochs * 2 / 3 {
            opt.learning_rate *= 0.3;
        }
        let _ = stats;
    }

    let val = captured_set(&dataset, train_n as u64, 200, 10_000.0, seed ^ 0xCD);
    let val_examples: Vec<Example> = val
        .iter()
        .map(|(input, label)| Example {
            input: input.clone(),
            label: *label,
        })
        .collect();
    let clean_top1 = evaluate(&mut net, &val_examples).expect("evaluation");
    TrainedModel {
        spec,
        params: extract_params(&mut net),
        clean_top1,
    }
}

/// One fleet scenario: a compiled prefix program for the whole
/// population plus the host-side suffix workload the cloudlet finishes per
/// frame.
pub struct FleetScenario {
    /// Scenario tag ("depth1" full, "micronet" smoke).
    pub tag: &'static str,
    /// The compiled prefix program every fleet device runs.
    pub program: Program,
    /// Input frame geometry `[c, h, w]`.
    pub input_dims: [usize; 3],
    /// MACs the cloudlet computes per frame (the network suffix).
    pub suffix_macs: u64,
    /// Parameters the cloudlet touches per frame (the network suffix).
    pub suffix_params: u64,
}

/// Builds the fleet scenario: the full GoogLeNet Depth1 cut, or — under
/// `smoke` — a micronet cut small enough that CI can push a four-digit
/// fleet through it.
///
/// # Panics
///
/// Panics if the zoo specs fail to summarize, build, or compile — a
/// programming error, not a data condition.
pub fn fleet_scenario(smoke: bool) -> FleetScenario {
    let (spec, cut, tag, seed) = if smoke {
        (zoo::micronet(4, CLASSES), "pool1", "micronet", 17)
    } else {
        (zoo::googlenet(), Depth::D1.cut_layer(), "depth1", 41)
    };
    let prefix = spec.prefix_through(cut).expect("cut exists");
    let mut rng = Rng::seed_from(seed);
    let mut net = build_network(&prefix, WeightInit::HeNormal, &mut rng).expect("prefix builds");
    let mut bank = WeightBank::from_network(&mut net);
    let program = compile(&prefix, &mut bank, &CompileOptions::default()).expect("compiles");
    let summary = summarize(&spec).expect("spec summarizes");
    let pos = summary
        .layers
        .iter()
        .position(|l| l.name == cut)
        .expect("cut layer exists in summary");
    let suffix = &summary.layers[pos + 1..];
    FleetScenario {
        tag,
        program,
        input_dims: summary.input,
        suffix_macs: suffix.iter().map(|l| l.macs).sum(),
        suffix_params: suffix.iter().map(|l| l.params).sum(),
    }
}

/// Parses `--workers <n|auto>` from a bin's arguments; without the flag,
/// or with `auto`, the budget is the host's [`auto_workers`].
///
/// # Panics
///
/// Panics with a usage message when the value is missing, zero or not a
/// number.
pub fn parse_workers(args: &[String]) -> usize {
    let Some(pos) = args.iter().position(|a| a == "--workers") else {
        return auto_workers();
    };
    let v = args
        .get(pos + 1)
        .expect("--workers needs a value: a count or `auto`");
    if v == "auto" {
        return auto_workers();
    }
    v.parse::<NonZeroUsize>()
        .expect("--workers value must be a positive count or `auto`")
        .get()
}

/// The validation shard for noise sweeps (fresh indices, same capture
/// pipeline).
pub fn validation_set(n: usize, seed: u64) -> Vec<(Tensor, usize)> {
    let dataset = SyntheticDataset::with_difficulty(CLASSES, 32, seed, DIFFICULTY);
    captured_set(&dataset, 1_000_000, n, 10_000.0, seed ^ 0xEF)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_training_beats_chance() {
        // A deliberately tiny run — the real sweeps train longer.
        let model = train_standin(320, 8, 7);
        assert!(
            model.clean_top1 > 0.15,
            "32-class chance is ~0.03; got {}",
            model.clean_top1
        );
    }

    #[test]
    fn fleet_scenario_smoke_has_a_real_suffix() {
        let s = fleet_scenario(true);
        assert_eq!(s.tag, "micronet");
        assert_eq!(s.input_dims, [3, 32, 32]);
        assert!(s.suffix_macs > 0, "the cloudlet must have work to do");
        assert!(s.suffix_params > 0);
        assert!(!s.program.instructions.is_empty());
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| (*a).to_string()).collect()
    }

    #[test]
    fn parse_workers_reads_counts_and_auto() {
        assert_eq!(parse_workers(&args(&["--smoke", "--workers", "3"])), 3);
        assert_eq!(parse_workers(&args(&["--workers", "auto"])), auto_workers());
        assert_eq!(parse_workers(&args(&["--smoke"])), auto_workers());
    }

    #[test]
    #[should_panic(expected = "positive count or `auto`")]
    fn parse_workers_rejects_zero() {
        parse_workers(&args(&["--workers", "0"]));
    }

    #[test]
    #[should_panic(expected = "positive count or `auto`")]
    fn parse_workers_rejects_non_numeric() {
        parse_workers(&args(&["--workers", "many"]));
    }

    #[test]
    fn captured_set_is_raw_domain() {
        let val = validation_set(20, 3);
        assert_eq!(val.len(), 20);
        // Raw domain darkens midtones: mean well below display mean.
        let mean: f32 = val.iter().map(|(t, _)| t.mean().unwrap()).sum::<f32>() / val.len() as f32;
        assert!((0.0..0.5).contains(&mean), "raw mean {mean}");
    }
}
