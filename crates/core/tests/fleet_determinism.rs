//! Property tests of the fleet engine's determinism contract: a fleet run
//! is a pure function of `(fleet_seed, device_id, frames)` — never of the
//! worker count, the steal schedule, or which other devices share the
//! fleet. Plus the corner contract: every device's frame energy and time
//! lie within the static cost bounds.

use proptest::prelude::*;
use redeye_analog::ProcessCorner;
use redeye_core::{
    analyze_cost, compile, CompileOptions, DeviceProfile, DeviceScratch, DeviceWork, FleetEngine,
    FleetExecutor, FleetOptions, Placement, Program, StealOptions, VictimOrder, WeightBank,
};
use redeye_nn::{build_network, zoo, NetworkSpec, WeightInit};
use redeye_tensor::{Rng, Tensor};
use std::sync::Arc;

fn compiled(spec: &NetworkSpec, cut: &str) -> Program {
    let prefix = spec.prefix_through(cut).unwrap();
    let mut rng = Rng::seed_from(17);
    let mut net = build_network(&prefix, WeightInit::HeNormal, &mut rng).unwrap();
    let mut bank = WeightBank::from_network(&mut net);
    compile(&prefix, &mut bank, &CompileOptions::default()).unwrap()
}

/// The micronet prefix the fleet unit tests use: small enough that a
/// property case finishes in milliseconds, deep enough to cross a conv, a
/// comparator pool, and the SAR readout.
fn fleet_engine(fleet_seed: u64) -> FleetEngine {
    FleetEngine::new(compiled(&zoo::micronet(4, 10), "pool1"), fleet_seed).unwrap()
}

fn frames(n: usize, seed: u64) -> Vec<Arc<Tensor>> {
    let mut rng = Rng::seed_from(seed);
    (0..n)
        .map(|_| Arc::new(Tensor::uniform(&[3, 32, 32], 0.0, 1.0, &mut rng)))
        .collect()
}

fn schedule_matrix() -> Vec<(usize, StealOptions)> {
    let mut m = Vec::new();
    for workers in [1usize, 2, 4] {
        for placement in [Placement::RoundRobin, Placement::Blocked] {
            for victim_order in [VictimOrder::Ring, VictimOrder::ReverseRing] {
                m.push((
                    workers,
                    StealOptions {
                        placement,
                        victim_order,
                    },
                ));
            }
        }
    }
    m
}

proptest! {
    /// The whole-fleet digest, population energy, and per-device digests
    /// are bit-identical across worker counts 1/2/4 and every steal
    /// schedule the scheduler can produce.
    #[test]
    fn fleet_run_invariant_across_workers_and_schedules(
        fleet_seed in 0u64..u64::MAX,
        devices in 2u64..7,
        frames_per_device in 1usize..3,
    ) {
        let engine = fleet_engine(fleet_seed);
        let shared = frames(frames_per_device, fleet_seed ^ 0xF00D);
        let work: Vec<DeviceWork> = (0..devices)
            .map(|device| DeviceWork { device, frames: shared.clone() })
            .collect();
        let mut reference: Option<(u64, f64, Vec<u64>)> = None;
        for (workers, steal) in schedule_matrix() {
            let executor = FleetExecutor::with_options(
                engine.clone(),
                FleetOptions { workers, steal },
            );
            let report = executor.run(&work).unwrap();
            let got = (
                report.digest,
                report.energy.value(),
                report.devices.iter().map(|d| d.digest).collect::<Vec<_>>(),
            );
            match &reference {
                Some(want) => prop_assert_eq!(
                    want, &got,
                    "schedule {:?} @ {} workers diverged", steal, workers
                ),
                None => reference = Some(got),
            }
        }
    }

    /// A device's outcome is independent of fleet composition: running a
    /// device alone yields exactly the frame digests it produces inside a
    /// larger mixed fleet.
    #[test]
    fn device_outcome_independent_of_fleet_composition(
        fleet_seed in 0u64..u64::MAX,
        target in 0u64..40,
        others in 1u64..5,
    ) {
        let engine = fleet_engine(fleet_seed);
        let shared = frames(2, fleet_seed ^ 0xBEEF);
        let solo = vec![DeviceWork { device: target, frames: shared.clone() }];
        // A fleet holding the target plus unrelated neighbors, target last
        // so the scheduler order differs from the solo run.
        let mut crowd: Vec<DeviceWork> = (0..others)
            .map(|i| DeviceWork { device: 1000 + i, frames: shared.clone() })
            .collect();
        crowd.push(DeviceWork { device: target, frames: shared.clone() });

        let run = |work: &[DeviceWork], workers: usize| {
            FleetExecutor::with_options(
                engine.clone(),
                FleetOptions { workers, ..FleetOptions::default() },
            )
            .run(work)
            .unwrap()
        };
        let alone = run(&solo, 1);
        let crowded = run(&crowd, 4);
        let in_crowd = crowded
            .devices
            .iter()
            .find(|d| d.profile.id == target)
            .unwrap();
        prop_assert_eq!(alone.devices[0].digest, in_crowd.digest);
        let solo_frames: Vec<u64> =
            alone.devices[0].frames.iter().map(|f| f.digest).collect();
        let crowd_frames: Vec<u64> =
            in_crowd.frames.iter().map(|f| f.digest).collect();
        prop_assert_eq!(solo_frames, crowd_frames);
    }
}

proptest! {
    /// Device profiles — corner, calibration, and noise seed — are pure
    /// functions of `(fleet_seed, device_id)`: re-deriving one yields the
    /// identical profile, and it never depends on derivation order.
    #[test]
    fn device_profile_is_pure(fleet_seed in 0u64..u64::MAX, id in 0u64..u64::MAX) {
        let a = DeviceProfile::for_device(fleet_seed, id);
        // Derive a pile of unrelated profiles in between.
        for other in 0..16 {
            let _ = DeviceProfile::for_device(fleet_seed, id ^ (1 << other));
        }
        let b = DeviceProfile::for_device(fleet_seed, id);
        prop_assert_eq!(a.corner, b.corner);
        prop_assert_eq!(a.calib.gain.to_bits(), b.calib.gain.to_bits());
        prop_assert_eq!(a.calib.offset.to_bits(), b.calib.offset.to_bits());
        prop_assert_eq!(a.noise_seed, b.noise_seed);
        // Calibration stays inside the documented spread.
        prop_assert!((a.calib.gain - 1.0).abs() <= 0.02 + 1e-6);
        prop_assert!(a.calib.offset.abs() <= 0.005 + 1e-6);
    }

    /// Corner sampling is a pure function of `(fleet_seed, device_id)` and
    /// reacts to the fleet seed (different seeds reshuffle the corner
    /// lottery somewhere in any 64-device window).
    #[test]
    fn corner_sampling_is_pure(fleet_seed in 0u64..u64::MAX, id in 0u64..u64::MAX) {
        let a = ProcessCorner::for_device(fleet_seed, id);
        let b = ProcessCorner::for_device(fleet_seed, id);
        prop_assert_eq!(a, b);
        let differs = (0..64u64).any(|d| {
            ProcessCorner::for_device(fleet_seed, id.wrapping_add(d))
                != ProcessCorner::for_device(fleet_seed ^ 0x5a5a_5a5a, id.wrapping_add(d))
        });
        prop_assert!(differs, "two fleets sampled identical corner windows");
    }
}

/// Every process corner among the first 400 devices reports a frame energy
/// and time inside `analyze_cost`'s `[lower, upper]`: the fleet and the
/// cost pass's bracket apply the same corner rule.
#[test]
fn device_frames_lie_within_static_cost_bounds() {
    for (spec, cut) in [(zoo::micronet(4, 10), "pool1"), (zoo::googlenet(), "norm1")] {
        let program = compiled(&spec, cut);
        let bounds = analyze_cost(&program).expect("cost derivable");
        let input = Tensor::uniform(&program.input, 0.0, 1.0, &mut Rng::seed_from(5));
        let fleet = FleetEngine::new(program, 0x5eed).unwrap();
        let mut scratch = DeviceScratch::new();
        let mut seen = Vec::new();
        for id in 0..400 {
            let device = fleet.device(id);
            let corner = device.profile().corner;
            if seen.contains(&corner) {
                continue;
            }
            seen.push(corner);
            let frame = device.run_frame(0, &input, &mut scratch).unwrap();
            let (energy, time) = (frame.energy.value(), frame.frame_time.value());
            assert!(
                bounds.lower.energy.value() <= energy && energy <= bounds.upper.energy.value(),
                "{cut} {corner}: energy {energy} outside [{}, {}]",
                bounds.lower.energy.value(),
                bounds.upper.energy.value()
            );
            assert!(
                bounds.lower.time.value() <= time && time <= bounds.upper.time.value(),
                "{cut} {corner}: time {time} outside [{}, {}]",
                bounds.lower.time.value(),
                bounds.upper.time.value()
            );
        }
        assert_eq!(
            seen.len(),
            ProcessCorner::ALL.len(),
            "{cut}: corners seen {seen:?}"
        );
    }
}
