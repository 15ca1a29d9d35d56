//! Pass 7 — the cost model (RE07xx).
//!
//! This module is the simulator's one cost model: the only code that turns
//! op counts into energy and time. From shapes alone, the pass charges
//! every instruction its `count × unit-cost` products (calibration
//! constants from `redeye_analog::calib`, damping energy scale, the
//! column-parallel timing divisor) in depth-first program order, into an
//! itemized nominal [`EnergyLedger`] plus a frame time. The executor does
//! not charge anything itself: every `FrameEngine` frame reports this
//! ledger (the charges are a pure function of the program; noise never
//! reaches them), and the analytic estimator builds its per-layer numbers
//! from the same unit charges ([`mac_cost`], [`write_energy`],
//! [`comparison_cost`], [`readout_cost`], [`controller_power`]).
//!
//! A process corner touches cost in one place, [`CostEstimate::at_corner`]:
//! energy (controller included) scales by the corner's power factor, time
//! by its timing factor. The fleet scales each device's frames with it, and
//! the pass brackets the nominal point with it over every corner
//! (`redeye_analog::ProcessCorner::ALL`), so `lower ≤ device ≤ upper` holds
//! by construction for every fleet device.
//!
//! Against a configurable [`CostBudget`] the pass emits:
//!
//! - `RE0701` (error): even the lower energy bound exceeds the cap.
//! - `RE0702` (warning): only the upper energy bound exceeds the cap.
//! - `RE0703` (error): even the lower frame-time bound exceeds the cap.
//! - `RE0704` (warning): only the upper frame-time bound exceeds the cap.

use crate::diag::{DiagClass, Diagnostic, Report, Severity};
use crate::shape::Site;
use crate::{EnergyLedger, Instruction, Program};
use redeye_analog::calib::{
    COMPARATOR_DECISION_TIME, COMPARATOR_ENERGY, CONTROLLER_CLOCK_MHZ, CONTROLLER_UW_PER_MHZ,
    MAC_ENERGY_40DB, MAC_SETTLE_TIME_40DB, MEMORY_WRITE_ENERGY_40DB,
};
use redeye_analog::{
    resolution_admissible, DampingConfig, Joules, ProcessCorner, SarAdc, Seconds, SnrDb, Watts,
};
use redeye_tensor::ConvGeom;
use serde::Serialize;

/// Per-frame cost caps for the RE07xx budget checks. Unset caps are not
/// checked.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct CostBudget {
    /// Maximum per-frame energy (analog + controller).
    pub max_frame_energy: Option<Joules>,
    /// Maximum per-frame latency.
    pub max_frame_time: Option<Seconds>,
}

/// One point of the static cost model: per-frame energy and latency.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CostEstimate {
    /// Per-frame energy, controller included.
    pub energy: Joules,
    /// Per-frame latency.
    pub time: Seconds,
}

impl CostEstimate {
    /// The process-corner rule, the one place a corner touches cost: energy
    /// (controller included) scales by the corner's power factor, time by
    /// its timing factor. The typical corner is the identity.
    #[must_use]
    pub fn at_corner(self, corner: ProcessCorner) -> CostEstimate {
        CostEstimate {
            energy: self.energy * corner.power_factor(),
            time: self.time * corner.timing_factor(),
        }
    }
}

/// The static cost of one program: the itemized nominal ledger every
/// executed frame reports, and its bracket over the process corners.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CostBounds {
    /// Minimum over all process corners.
    pub lower: CostEstimate,
    /// The typical-typical corner: `ledger.total()` and the frame time.
    pub nominal: CostEstimate,
    /// Maximum over all process corners.
    pub upper: CostEstimate,
    /// The itemized nominal ledger; the counters below repeat its op counts.
    pub ledger: EnergyLedger,
    /// Analog MAC operations.
    pub macs: u64,
    /// Comparator decisions.
    pub comparisons: u64,
    /// Feature SRAM writes.
    pub writes: u64,
    /// SAR conversions.
    pub conversions: u64,
    /// Digital readout volume in bits.
    pub readout_bits: u64,
}

fn diag(severity: Severity, code: &'static str, message: String) -> Diagnostic {
    Diagnostic::new(severity, DiagClass::CostModel, code, message)
}

/// Runs the pass: computes bounds from the shape pass's sites and checks
/// them against `budget`. Returns `None` (and emits no RE07xx diagnostics)
/// when the program's cost is not statically derivable — the shape or noise
/// passes have already reported why.
pub(crate) fn run(
    program: &Program,
    sites: &[Site<'_>],
    final_shape: Option<[usize; 3]>,
    budget: &CostBudget,
    report: &mut Report,
) -> Option<CostBounds> {
    let bounds = compute(program, sites, final_shape)?;
    if let Some(cap) = budget.max_frame_energy {
        let (lo, hi, cap_mj) = (
            bounds.lower.energy.millis(),
            bounds.upper.energy.millis(),
            cap.millis(),
        );
        if bounds.lower.energy > cap {
            report.push(
                diag(
                    Severity::Error,
                    "RE0701",
                    format!(
                        "frame energy provably exceeds the {cap_mj:.6} mJ budget: corner \
                         bounds [{lo:.6}, {hi:.6}] mJ"
                    ),
                )
                .with_note(
                    "the bounds bracket the dynamic ledger across all process corners \
                     (TT/FF/SS/FS/SF); even the most favorable corner is over budget",
                ),
            );
        } else if bounds.upper.energy > cap {
            report.push(
                diag(
                    Severity::Warning,
                    "RE0702",
                    format!(
                        "frame energy may exceed the {cap_mj:.6} mJ budget at unfavorable \
                         process corners: bounds [{lo:.6}, {hi:.6}] mJ"
                    ),
                )
                .with_note("the typical corner fits, but slow/fast-corner devices will not"),
            );
        }
    }
    if let Some(cap) = budget.max_frame_time {
        let (lo, hi, cap_ms) = (
            bounds.lower.time.millis(),
            bounds.upper.time.millis(),
            cap.millis(),
        );
        if bounds.lower.time > cap {
            report.push(
                diag(
                    Severity::Error,
                    "RE0703",
                    format!(
                        "frame latency provably exceeds the {cap_ms:.6} ms budget: corner \
                         bounds [{lo:.6}, {hi:.6}] ms"
                    ),
                )
                .with_note(
                    "column-parallel settling, comparator, and SAR time alone exceed the cap \
                     at every process corner",
                ),
            );
        } else if bounds.upper.time > cap {
            report.push(
                diag(
                    Severity::Warning,
                    "RE0704",
                    format!(
                        "frame latency may exceed the {cap_ms:.6} ms budget at unfavorable \
                         process corners: bounds [{lo:.6}, {hi:.6}] ms"
                    ),
                )
                .with_note("the typical corner fits, but slow-corner devices will not"),
            );
        }
    }
    Some(bounds)
}

/// Controller power at the 30-fps clock (§V-D: ≈12 mW). Controller energy
/// is time-proportional (idle + sequencing power).
#[must_use]
pub fn controller_power() -> Watts {
    Watts::new(CONTROLLER_UW_PER_MHZ * 1e-6 * CONTROLLER_CLOCK_MHZ * 1e6 / 1e6)
}

/// Energy and column-parallel settling time of `macs` analog MACs damped
/// for `snr`, spread over `columns` column slices.
#[must_use]
pub fn mac_cost(macs: u64, snr: SnrDb, columns: f64) -> CostEstimate {
    let scale = DampingConfig::from_snr(snr).energy_scale();
    CostEstimate {
        energy: MAC_ENERGY_40DB * (macs as f64 * scale),
        time: MAC_SETTLE_TIME_40DB * (macs as f64 / columns),
    }
}

/// Energy of `writes` analog buffer writes damped for `snr`.
#[must_use]
pub fn write_energy(writes: u64, snr: SnrDb) -> Joules {
    let scale = DampingConfig::from_snr(snr).energy_scale();
    MEMORY_WRITE_ENERGY_40DB * (writes as f64 * scale)
}

/// Energy and column-parallel time of `decisions` comparator decisions.
#[must_use]
pub fn comparison_cost(decisions: u64, columns: f64) -> CostEstimate {
    CostEstimate {
        energy: COMPARATOR_ENERGY * decisions as f64,
        time: COMPARATOR_DECISION_TIME * (decisions as f64 / columns),
    }
}

/// Energy and column-parallel time of `conversions` SAR conversions
/// through `adc`.
#[must_use]
pub fn readout_cost(adc: &SarAdc, conversions: u64, columns: f64) -> CostEstimate {
    CostEstimate {
        energy: adc.energy_per_conversion() * conversions as f64,
        time: adc.time_per_conversion() * (conversions as f64 / columns),
    }
}

/// Charges the program's instructions in depth-first order into the
/// nominal ledger, then brackets it over the process corners.
pub(crate) fn compute(
    program: &Program,
    sites: &[Site<'_>],
    final_shape: Option<[usize; 3]>,
) -> Option<CostBounds> {
    let out_shape = final_shape?;
    if !resolution_admissible(program.adc_bits) {
        return None;
    }
    // The array parallelizes across the *input width* worth of column
    // slices (gain staging maps the image onto the array).
    let columns = program.input[2].max(1) as f64;

    let mut ledger = EnergyLedger::new();
    let mut elapsed = Seconds::zero();
    let charge_macs = |ledger: &mut EnergyLedger, elapsed: &mut Seconds, macs: u64, snr: SnrDb| {
        let cost = mac_cost(macs, snr, columns);
        ledger.processing += cost.energy;
        ledger.macs += macs;
        *elapsed += cost.time;
    };
    let charge_writes = |ledger: &mut EnergyLedger, writes: u64, snr: SnrDb| {
        ledger.memory += write_energy(writes, snr);
        ledger.writes += writes;
    };

    // Sites are in depth-first visit order, the order a frame runs the
    // instructions in; the floating-point sums accumulate in that order.
    for site in sites {
        let in_shape = site.in_shape?;
        let out_len = match site.inst {
            Instruction::Inception { .. } => continue, // branches charge themselves
            _ => {
                let [c, h, w] = site.out_shape?;
                (c * h * w) as u64
            }
        };
        match site.inst {
            Instruction::Conv {
                out_c,
                kernel,
                stride,
                pad,
                snr,
                ..
            } => {
                let [c, h, w] = in_shape;
                let geom = ConvGeom::new(c, h, w, *kernel, *kernel, *stride, *pad).ok()?;
                charge_macs(&mut ledger, &mut elapsed, geom.macs(*out_c), *snr);
                charge_writes(&mut ledger, out_len, *snr);
            }
            Instruction::MaxPool { window, .. } => {
                // Fixed comparison schedule: window²−1 decisions per output,
                // padding taps included.
                let decisions = out_len * ((window * window) as u64 - 1);
                let cost = comparison_cost(decisions, columns);
                ledger.pooling += cost.energy;
                ledger.comparisons += decisions;
                elapsed += cost.time;
                charge_writes(&mut ledger, out_len, SnrDb::new(40.0));
            }
            Instruction::AvgPool { window, snr, .. } => {
                let macs = out_len * (*window * *window) as u64;
                charge_macs(&mut ledger, &mut elapsed, macs, *snr);
                charge_writes(&mut ledger, out_len, *snr);
            }
            Instruction::Lrn { size, snr, .. } => {
                let macs = out_len * (*size as u64 + 1);
                charge_macs(&mut ledger, &mut elapsed, macs, *snr);
                charge_writes(&mut ledger, out_len, *snr);
            }
            Instruction::Inception { .. } => unreachable!(),
        }
    }

    // The SAR readout of the final feature map.
    let conversions = (out_shape[0] * out_shape[1] * out_shape[2]) as u64;
    let readout = readout_cost(&SarAdc::new(program.adc_bits).ok()?, conversions, columns);
    ledger.quantization += readout.energy;
    ledger.conversions = conversions;
    ledger.readout_bits = conversions * u64::from(program.adc_bits);
    elapsed += readout.time;
    ledger.controller = controller_power() * elapsed;

    let nominal = CostEstimate {
        energy: ledger.total(),
        time: elapsed,
    };
    let (mut lower, mut upper) = (nominal, nominal);
    for at in ProcessCorner::ALL.map(|corner| nominal.at_corner(corner)) {
        (lower.energy, lower.time) = (lower.energy.min(at.energy), lower.time.min(at.time));
        (upper.energy, upper.time) = (upper.energy.max(at.energy), upper.time.max(at.time));
    }

    Some(CostBounds {
        lower,
        nominal,
        upper,
        ledger,
        macs: ledger.macs,
        comparisons: ledger.comparisons,
        writes: ledger.writes,
        conversions,
        readout_bits: ledger.readout_bits,
    })
}
