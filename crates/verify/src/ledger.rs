//! Per-frame energy accounting.

use redeye_analog::Joules;
use serde::Serialize;
use std::fmt;

/// An itemized per-frame energy ledger. The cost pass fills it in from op
/// counts (see [`crate::analyze_cost`]); the executor reports that nominal
/// ledger for every frame, and the analytic estimator fills one per
/// network prefix with the same unit charges.
///
/// Categories mirror the paper's breakdown: analog *processing* (MAC),
/// *pooling* (comparator), *memory* (buffer-module writes), *quantization*
/// (SAR readout), and the digital *controller*.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct EnergyLedger {
    /// MAC (convolution + normalization) energy.
    pub processing: Joules,
    /// Max-pool comparator energy.
    pub pooling: Joules,
    /// Analog memory (buffer module) write energy.
    pub memory: Joules,
    /// SAR ADC readout energy.
    pub quantization: Joules,
    /// Digital controller energy (reported separately, as the paper does
    /// when it "ignores the digital footprint" in sensor comparisons).
    pub controller: Joules,
    /// Multiply–accumulate operations charged.
    pub macs: u64,
    /// Comparator decisions charged.
    pub comparisons: u64,
    /// Memory writes charged.
    pub writes: u64,
    /// ADC conversions charged.
    pub conversions: u64,
    /// Bits produced by the readout.
    pub readout_bits: u64,
}

impl EnergyLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        EnergyLedger::default()
    }

    /// Total analog energy (everything except the digital controller) —
    /// the quantity the paper's sensor-vs-sensor comparisons use.
    pub fn analog_total(&self) -> Joules {
        self.processing + self.pooling + self.memory + self.quantization
    }

    /// Total including the controller.
    pub fn total(&self) -> Joules {
        self.analog_total() + self.controller
    }

    /// Merges another ledger into this one.
    pub fn merge(&mut self, other: &EnergyLedger) {
        self.processing += other.processing;
        self.pooling += other.pooling;
        self.memory += other.memory;
        self.quantization += other.quantization;
        self.controller += other.controller;
        self.macs += other.macs;
        self.comparisons += other.comparisons;
        self.writes += other.writes;
        self.conversions += other.conversions;
        self.readout_bits += other.readout_bits;
    }
}

impl fmt::Display for EnergyLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "processing {} | pooling {} | memory {} | quantization {} | controller {} | analog total {}",
            self.processing,
            self.pooling,
            self.memory,
            self.quantization,
            self.controller,
            self.analog_total()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let ledger = EnergyLedger {
            processing: Joules::new(1.0),
            pooling: Joules::new(0.5),
            memory: Joules::new(0.25),
            quantization: Joules::new(0.25),
            controller: Joules::new(2.0),
            ..EnergyLedger::new()
        };
        assert_eq!(ledger.analog_total().value(), 2.0);
        assert_eq!(ledger.total().value(), 4.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = EnergyLedger {
            processing: Joules::new(1.0),
            macs: 10,
            ..EnergyLedger::new()
        };
        let b = EnergyLedger {
            processing: Joules::new(2.0),
            macs: 5,
            readout_bits: 32,
            ..EnergyLedger::new()
        };
        a.merge(&b);
        assert_eq!(a.processing.value(), 3.0);
        assert_eq!(a.macs, 15);
        assert_eq!(a.readout_bits, 32);
    }

    #[test]
    fn display_is_nonempty() {
        let text = EnergyLedger::new().to_string();
        assert!(text.contains("processing"));
    }
}
