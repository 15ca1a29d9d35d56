//! Differential harness: the static analyses against real `FrameEngine`
//! runs.
//!
//! Two contracts are property-tested over the compiled model zoo:
//!
//! 1. **Cost bracket** — the executor reports the cost pass's nominal
//!    ledger, so ledger equality holds by construction; what this checks
//!    is the bracket (`lower ≤ ledger ≤ upper`, nominal = ledger) and that
//!    the static op counts describe the run itself: the frame delivers
//!    exactly `conversions` codes and feature values.
//! 2. **Saturation soundness** — a program the RE06xx signal-range pass
//!    declares clean (no RE06xx diagnostics at all) must execute without
//!    any feature clipping at the SAR quantizer's 0 V rail, across several
//!    noise seeds.
//!
//! Plus directed completeness checks: a program the range pass *warns*
//! about really does clip at run time, and the executor/compiler refuse
//! over-budget programs.

use proptest::prelude::*;
use redeye_analog::{Joules, SnrDb};
use redeye_core::{
    analyze_cost, compile, verify, verify_with_options, CompileOptions, CoreError, CostBudget,
    Executor, Instruction, Program, Severity, VerifyOptions, WeightBank,
};
use redeye_nn::{build_network, zoo, WeightInit};
use redeye_tensor::{Rng, Tensor};

fn compiled(spec: &redeye_nn::NetworkSpec, cut: &str, seed: u64, opts: &CompileOptions) -> Program {
    let prefix = spec.prefix_through(cut).expect("cut exists");
    let mut rng = Rng::seed_from(seed);
    let mut net = build_network(&prefix, WeightInit::HeNormal, &mut rng).expect("builds");
    let mut bank = WeightBank::from_network(&mut net);
    compile(&prefix, &mut bank, opts).expect("compiles")
}

fn zoo_pick(pick: usize) -> (redeye_nn::NetworkSpec, &'static str) {
    match pick {
        0 => (zoo::micronet(8, 10), "pool1"),
        1 => (zoo::micronet(8, 10), "pool3"),
        2 => (zoo::tiny_inception(10), "pool2"),
        _ => (zoo::tiny_inception(10), "inception_a"),
    }
}

fn frame_for(program: &Program, seed: u64) -> Tensor {
    Tensor::uniform(&program.input, 0.0, 1.0, &mut Rng::seed_from(seed))
}

/// Whether a report carries any signal-range (RE06xx) finding.
fn range_clean(report: &redeye_core::Report) -> bool {
    report
        .diagnostics
        .iter()
        .all(|d| !d.code.starts_with("RE06"))
}

proptest! {
    /// Static energy/latency bounds bracket the dynamic ledger, the nominal
    /// point reproduces it to floating-point exactness, and the op counts
    /// agree — for every zoo cut, SNR, ADC depth, and weight seed.
    #[test]
    fn static_cost_bounds_bracket_dynamic_ledger(
        seed in 0u64..32,
        snr in 40.0f64..60.0,
        adc_bits in 1u32..10,
        pick in 0usize..4,
    ) {
        let opts = CompileOptions {
            snr: SnrDb::new(snr),
            adc_bits,
            ..CompileOptions::default()
        };
        let (spec, cut) = zoo_pick(pick);
        let program = compiled(&spec, cut, seed, &opts);
        let bounds = analyze_cost(&program).expect("zoo cost is statically derivable");

        let input = frame_for(&program, seed.wrapping_mul(31).wrapping_add(7));
        let mut exec = Executor::new(program, seed ^ 0x9e37_79b9);
        let result = exec.execute(&input).expect("zoo program executes");

        let energy = result.ledger.total().value();
        let time = result.elapsed.value();
        prop_assert!(
            bounds.lower.energy.value() <= energy && energy <= bounds.upper.energy.value(),
            "energy {energy} outside [{}, {}]",
            bounds.lower.energy.value(),
            bounds.upper.energy.value()
        );
        prop_assert!(
            bounds.lower.time.value() <= time && time <= bounds.upper.time.value(),
            "time {time} outside [{}, {}]",
            bounds.lower.time.value(),
            bounds.upper.time.value()
        );
        // The nominal point is the same arithmetic in the same order.
        let nominal = bounds.nominal.energy.value();
        prop_assert!(
            (nominal - energy).abs() <= nominal.abs() * 1e-12,
            "nominal {nominal} != ledger {energy}"
        );
        let nominal_t = bounds.nominal.time.value();
        prop_assert!(
            (nominal_t - time).abs() <= nominal_t.abs() * 1e-12,
            "nominal time {nominal_t} != frame time {time}"
        );
        prop_assert_eq!(bounds.macs, result.ledger.macs);
        prop_assert_eq!(bounds.comparisons, result.ledger.comparisons);
        prop_assert_eq!(bounds.writes, result.ledger.writes);
        prop_assert_eq!(bounds.conversions, result.ledger.conversions);
        prop_assert_eq!(bounds.readout_bits, result.ledger.readout_bits);
        // The static counts against what the run itself produced.
        prop_assert_eq!(result.codes.len() as u64, bounds.conversions);
        prop_assert_eq!(result.features.len() as u64, bounds.conversions);
    }

    /// A program the signal-range pass declares saturation-free executes
    /// without any rail clipping, across independent noise seeds.
    #[test]
    fn range_clean_programs_never_clip_at_runtime(
        seed in 0u64..16,
        snr in 40.0f64..60.0,
        pick in 0usize..4,
    ) {
        let opts = CompileOptions {
            snr: SnrDb::new(snr),
            ..CompileOptions::default()
        };
        let (spec, cut) = zoo_pick(pick);
        let program = compiled(&spec, cut, seed, &opts);
        let report = verify(&program);
        prop_assert!(
            range_clean(&report),
            "zoo program unexpectedly range-flagged:\n{}",
            report.render()
        );
        for noise_seed in 0u64..3 {
            let mut exec = Executor::new(program.clone(), 1000 + noise_seed);
            let input = frame_for(&program, 77 + noise_seed);
            let result = exec.execute(&input).expect("executes");
            prop_assert_eq!(
                result.rail_clips, 0,
                "range-clean program clipped under noise seed {}", noise_seed
            );
        }
    }
}

/// A mixed-sign final conv *without* ReLU: the range pass must warn that
/// the readout envelope crosses the rail (RE0603), and the executor must
/// actually observe rail clips — the completeness direction of the
/// clean-implies-no-clip contract.
#[test]
fn range_flagged_program_really_clips() {
    let patch = 3 * 3 * 3;
    let out_c = 4;
    let codes: Vec<i32> = (0..out_c * patch)
        .map(|i| if i % 2 == 0 { 80 } else { -80 })
        .collect();
    let program = Program::new(
        "signed-readout",
        [3, 8, 8],
        vec![Instruction::Conv {
            name: "conv1".into(),
            out_c,
            kernel: 3,
            stride: 1,
            pad: 1,
            relu: false,
            codes,
            scale: 1.0 / 128.0,
            bias: vec![0.0; out_c],
            snr: SnrDb::new(50.0),
        }],
        6,
    );
    let report = verify(&program);
    assert!(
        report.warnings().any(|d| d.code == "RE0603"),
        "expected a straddling-envelope warning:\n{}",
        report.render()
    );
    let mut exec = Executor::new(program.clone(), 11);
    let result = exec.execute(&frame_for(&program, 5)).expect("executes");
    assert!(
        result.rail_clips > 0,
        "mixed-sign readout produced no rail clips"
    );
}

/// The executor's lazy pre-frame verification enforces the cost budget: a
/// cap below the static lower bound refuses to run, a cap above the upper
/// bound runs fine.
#[test]
fn executor_enforces_cost_budget() {
    let program = compiled(
        &zoo::micronet(8, 10),
        "pool1",
        3,
        &CompileOptions::default(),
    );
    let bounds = analyze_cost(&program).expect("cost derivable");
    let input = frame_for(&program, 9);

    let mut strict = Executor::new(program.clone(), 1);
    strict.set_cost_budget(CostBudget {
        max_frame_energy: Some(Joules::new(bounds.lower.energy.value() * 0.5)),
        max_frame_time: None,
    });
    match strict.execute(&input) {
        Err(CoreError::Verify(report)) => {
            assert!(
                report.errors().any(|d| d.code == "RE0701"),
                "expected RE0701:\n{}",
                report.render()
            );
        }
        other => panic!("over-budget program executed: {other:?}"),
    }

    let mut generous = Executor::new(program, 1);
    generous.set_cost_budget(CostBudget {
        max_frame_energy: Some(Joules::new(bounds.upper.energy.value() * 2.0)),
        max_frame_time: Some(bounds.upper.time * 2.0),
    });
    generous
        .execute(&input)
        .expect("within-budget program runs");
}

/// `compile()` rejects a program that cannot meet the configured budget,
/// and `verify_with_options` reports the warning-level variant when only
/// unfavorable corners exceed the cap.
#[test]
fn compile_and_verify_respect_budget() {
    let spec = zoo::micronet(8, 10);
    let prefix = spec.prefix_through("pool1").expect("cut exists");
    let mut rng = Rng::seed_from(2);
    let mut net = build_network(&prefix, WeightInit::HeNormal, &mut rng).expect("builds");
    let mut bank = WeightBank::from_network(&mut net);
    let opts = CompileOptions {
        budget: CostBudget {
            max_frame_energy: Some(Joules::new(1e-12)),
            max_frame_time: None,
        },
        ..CompileOptions::default()
    };
    match compile(&prefix, &mut bank, &opts) {
        Err(CoreError::Verify(report)) => {
            assert!(report.errors().any(|d| d.code == "RE0701"));
        }
        other => panic!("over-budget compile succeeded: {other:?}"),
    }

    // A cap between the corner bounds: possible-but-not-provable overrun.
    let program = compiled(
        &zoo::micronet(8, 10),
        "pool1",
        2,
        &CompileOptions::default(),
    );
    let bounds = analyze_cost(&program).expect("cost derivable");
    let mid = (bounds.nominal.energy.value() + bounds.upper.energy.value()) / 2.0;
    let report = verify_with_options(
        &program,
        &VerifyOptions {
            budget: CostBudget {
                max_frame_energy: Some(Joules::new(mid)),
                max_frame_time: None,
            },
            ..VerifyOptions::default()
        },
    );
    assert_eq!(report.count(Severity::Error), 0, "{}", report.render());
    assert!(
        report.warnings().any(|d| d.code == "RE0702"),
        "expected corner-overrun warning:\n{}",
        report.render()
    );
}
