//! Output checks (frame digests, committed references, the static cost
//! cross-check), the host fingerprint, and small statistics helpers.

use redeye_analog::Seconds;
use redeye_core::{CostBounds, EnergyLedger, FleetReport};
use redeye_tensor::Tensor;
use std::fmt::Write as _;

/// Reference digests committed with the benchmark: one line per
/// `(seed, set)` — `set` is `d3`, `d1` (one digest per cycle frame, serial
/// engine) or `fleet` (one fleet digest).
const REFERENCE: &str = include_str!("../digests.txt");

/// The committed reference digests of `set` at `seed`, if any.
pub fn committed(set: &str, seed: u64) -> Option<Vec<u64>> {
    REFERENCE.lines().find_map(|line| {
        let mut words = line.split_whitespace();
        let s: u64 = words.next()?.parse().ok()?;
        if s != seed || words.next()? != set {
            return None;
        }
        words.map(|w| u64::from_str_radix(w, 16).ok()).collect()
    })
}

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(mut self, v: u64) -> Fnv {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

fn ledger_words(h: Fnv, l: &EnergyLedger) -> Fnv {
    [
        l.processing.value().to_bits(),
        l.pooling.value().to_bits(),
        l.memory.value().to_bits(),
        l.quantization.value().to_bits(),
        l.controller.value().to_bits(),
        l.macs,
        l.comparisons,
        l.writes,
        l.conversions,
        l.readout_bits,
    ]
    .into_iter()
    .fold(h, Fnv::word)
}

/// Digest of one executed frame: feature bits, ADC codes, this frame's
/// forced comparator decisions and rail clips, every ledger count and
/// energy, and the modelled frame time.
pub fn frame_digest(
    features: &Tensor,
    codes: &[u32],
    forced: u64,
    rail_clips: u64,
    ledger: &EnergyLedger,
    elapsed: Seconds,
) -> u64 {
    let mut h = Fnv::new().word(features.len() as u64);
    for v in features.iter() {
        h = h.word(u64::from(v.to_bits()));
    }
    for &c in codes {
        h = h.word(u64::from(c));
    }
    h = h.word(forced).word(rail_clips);
    ledger_words(h, ledger)
        .word(elapsed.value().to_bits())
        .finish()
}

/// Digest of a whole fleet run: every frame's simulator digest folded with
/// its corner-scaled energy and frame time, payload, forced decisions and
/// rail clips, in device then frame order.
pub fn fleet_digest(report: &FleetReport) -> u64 {
    let mut h = Fnv::new();
    for d in &report.devices {
        h = h.word(d.profile.id);
        for f in &d.frames {
            h = h
                .word(f.digest)
                .word(f.energy.value().to_bits())
                .word(f.frame_time.value().to_bits())
                .word(f.payload_bits)
                .word(f.forced)
                .word(f.rail_clips)
                .word(f.code_mac_hits);
        }
    }
    h.finish()
}

/// Whether a frame's ledger equals the static cost pass's nominal point:
/// exact op counts, and energy and frame time equal to the last few ulps
/// (the same tolerance `core/tests/static_vs_dynamic.rs` uses).
pub fn matches_static(bounds: &CostBounds, ledger: &EnergyLedger, elapsed: Seconds) -> bool {
    let close = |a: f64, b: f64| (a - b).abs() <= a.abs() * 1e-12;
    close(bounds.nominal.energy.value(), ledger.total().value())
        && close(bounds.nominal.time.value(), elapsed.value())
        && bounds.macs == ledger.macs
        && bounds.comparisons == ledger.comparisons
        && bounds.writes == ledger.writes
        && bounds.conversions == ledger.conversions
        && bounds.readout_bits == ledger.readout_bits
}

/// Host fingerprint as a JSON object: CPU model, core count, detected SIMD
/// features, the rustflags this binary was built with, and the source
/// revision the runner reported.
pub fn host_json(git: &str) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"cpu\": \"{}\", \"nproc\": {nproc}, \"simd\": \"{}\", \"gemm_kernel\": \"{:?}\", \
         \"rustflags\": \"{}\", \"git\": \"{}\"}}",
        cpu.replace('"', "'"),
        simd_features().join(" "),
        redeye_tensor::SimdLevel::auto(),
        env!("PERFBENCH_RUSTFLAGS").replace('"', "'"),
        git.replace('"', "'"),
    );
    out
}

fn simd_features() -> Vec<&'static str> {
    #[allow(unused_mut)]
    let mut found = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        macro_rules! probe {
            ($($f:tt),*) => {$(
                if std::arch::is_x86_feature_detected!($f) {
                    found.push($f);
                }
            )*};
        }
        probe!(
            "sse4.2",
            "avx",
            "avx2",
            "fma",
            "avx512f",
            "avx512bw",
            "avx512vl",
            "avx512vnni"
        );
    }
    found
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of `v` (mean of the two middle values for even lengths).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` of `v`; NaN for an empty slice.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
    }

    #[test]
    fn committed_lines_parse() {
        let d1 = committed("d1", 1).expect("default seed is committed");
        assert_eq!(d1.len(), 12);
        assert!(committed("d1", u64::MAX).is_none());
    }
}
