//! End-to-end SIMD-level invariance: the observable output of a frame —
//! features, ADC codes, diagnostics — is byte-identical no matter which
//! f32 microkernel level the engine runs, across the serial executor, the
//! batched worker pool, and the fleet engine.
//!
//! This is the executable form of the dispatch contract: picking a
//! [`SimdLevel`] is purely a performance decision, never a numerics one.

use proptest::prelude::*;
use redeye_core::{
    compile, BatchExecutor, CompileOptions, DeviceWork, ExecutionResult, Executor, FleetEngine,
    FleetExecutor, FleetOptions, FrameEngine, SimdLevel, WeightBank,
};
use redeye_nn::{build_network, zoo, WeightInit};
use redeye_tensor::{Rng, Tensor};
use std::sync::Arc;

/// A micronet prefix crossing a conv, a comparator pool, and SAR readout —
/// small enough that a proptest case runs in milliseconds.
fn program(weight_seed: u64) -> redeye_core::Program {
    let spec = zoo::micronet(4, 10);
    let prefix = spec.prefix_through("pool1").unwrap();
    let mut rng = Rng::seed_from(weight_seed);
    let mut net = build_network(&prefix, WeightInit::HeNormal, &mut rng).unwrap();
    let mut bank = WeightBank::from_network(&mut net);
    compile(&prefix, &mut bank, &CompileOptions::default()).unwrap()
}

fn frames(n: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = Rng::seed_from(seed);
    (0..n)
        .map(|_| Tensor::uniform(&[3, 32, 32], 0.0, 1.0, &mut rng))
        .collect()
}

/// FNV-64 over everything the host observes in one executed frame. Two
/// results digest equal iff the delivered data is byte-identical.
fn digest_of(r: &ExecutionResult) -> u64 {
    let fnv = |h: u64, v: u32| (h ^ u64::from(v)).wrapping_mul(0x0000_0100_0000_01B3);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &v in r.features.iter() {
        h = fnv(h, v.to_bits());
    }
    for &c in &r.codes {
        h = fnv(h, c);
    }
    h = fnv(h, r.forced_decisions as u32);
    h = fnv(h, r.rail_clips as u32);
    h
}

/// Per-frame digests of a sequential run at one (level, threads).
fn serial_digests(
    prog: &redeye_core::Program,
    seed: u64,
    level: SimdLevel,
    threads: usize,
    inputs: &[Tensor],
) -> Vec<u64> {
    let mut exec = Executor::new(prog.clone(), seed);
    exec.set_simd_level(level);
    exec.set_threads(threads);
    inputs
        .iter()
        .map(|x| digest_of(&exec.execute(x).unwrap()))
        .collect()
}

proptest! {
    /// Serial executor: every compiled microkernel level and thread
    /// budgets 1/3 produce byte-identical frames.
    #[test]
    fn serial_frames_invariant_across_simd_levels(
        weight_seed in 0u64..1_000,
        noise_seed in 0u64..1_000,
    ) {
        let prog = program(weight_seed);
        let inputs = frames(2, weight_seed ^ noise_seed ^ 0xABCD);
        let reference = serial_digests(&prog, noise_seed, SimdLevel::Portable, 1, &inputs);
        for level in SimdLevel::available_levels() {
            for threads in [1usize, 3] {
                let got = serial_digests(&prog, noise_seed, level, threads, &inputs);
                prop_assert_eq!(
                    &got, &reference,
                    "diverged at {} with {} threads", level, threads
                );
            }
        }
    }

    /// Batch pool: per-frame results at every microkernel level equal the
    /// portable serial run frame-for-frame.
    #[test]
    fn batch_frames_invariant_across_simd_levels(
        weight_seed in 0u64..1_000,
        noise_seed in 0u64..1_000,
    ) {
        let prog = program(weight_seed);
        let inputs = frames(3, weight_seed ^ noise_seed ^ 0xF00D);
        let serial = serial_digests(&prog, noise_seed, SimdLevel::Portable, 1, &inputs);
        for level in SimdLevel::available_levels() {
            let mut engine = FrameEngine::new(prog.clone(), noise_seed);
            engine.set_simd_level(level);
            let mut batch = BatchExecutor::with_engine(engine, 2).unwrap();
            let result = batch.execute_batch(&inputs).unwrap();
            let got: Vec<u64> = result.frames.iter().map(digest_of).collect();
            prop_assert_eq!(&got, &serial, "batch diverged at {}", level);
        }
    }

    /// Fleet: the whole-population digest is invariant across levels.
    #[test]
    fn fleet_digest_invariant_across_simd_levels(
        weight_seed in 0u64..1_000,
        noise_seed in 0u64..1_000,
    ) {
        let prog = program(weight_seed);
        let shared: Vec<Arc<Tensor>> = frames(2, noise_seed ^ 0x5EED)
            .into_iter()
            .map(Arc::new)
            .collect();
        let work: Vec<DeviceWork> = (0..3u64)
            .map(|device| DeviceWork { device, frames: shared.clone() })
            .collect();
        let mut reference: Option<(u64, Vec<u64>)> = None;
        for level in SimdLevel::available_levels() {
            let mut engine = FrameEngine::new(prog.clone(), noise_seed);
            engine.set_simd_level(level);
            let fleet = FleetEngine::from_engine(engine, noise_seed ^ 0xFEED).unwrap();
            let report = FleetExecutor::with_options(fleet, FleetOptions::default())
                .run(&work)
                .unwrap();
            let got = (
                report.digest,
                report.devices.iter().map(|d| d.digest).collect::<Vec<_>>(),
            );
            match &reference {
                Some(want) => prop_assert_eq!(
                    want, &got, "fleet digest diverged at {}", level
                ),
                None => reference = Some(got),
            }
        }
    }
}

/// The executor-facade knob round-trips and clamps to the build.
#[test]
fn executor_simd_knob_round_trips() {
    let prog = program(7);
    let mut exec = Executor::new(prog, 3);
    for level in SimdLevel::available_levels() {
        exec.set_simd_level(level);
        assert_eq!(exec.simd_level(), level);
    }
    exec.set_simd_level(SimdLevel::Avx512);
    assert!(exec.simd_level() <= SimdLevel::best_available());
}
