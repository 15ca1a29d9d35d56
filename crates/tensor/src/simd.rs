//! Runtime SIMD dispatch policy for the f32 GEMM microkernel.
//!
//! The f32 engine ships three microkernel variants — portable scalar-order
//! Rust, AVX2 and AVX-512 — that are *bit-identical by construction*: the
//! vector kernels are lane-parallel over the `NR` output columns and use
//! separate multiply and add instructions (no FMA contraction), so every
//! output element accumulates its `k` products in exactly the scalar
//! program order with one rounding per multiply and one per add. Picking a
//! level is therefore purely a performance decision; results never change.
//!
//! The active level resolves once per process from the `REDEYE_SIMD`
//! environment variable (`auto`, `portable`, `avx2`, `avx512`;
//! case-insensitive) clamped to what the build actually compiled in: the
//! vector kernels only exist when the corresponding `target_feature` is
//! statically enabled (e.g. `-C target-cpu=native` on an AVX-512 host), so
//! requesting a level the binary does not carry degrades to the best
//! compiled level below it rather than failing. Tests that must pin a level
//! without racing on the process environment bypass [`SimdLevel::auto`] and
//! pass an explicit level to the `*_level` GEMM entry points.

use std::sync::OnceLock;

/// A f32 microkernel implementation level, ordered by ISA width.
///
/// All levels produce bit-identical results (see the module docs); the
/// enum exists so benchmarks and equivalence tests can force a specific
/// kernel in-process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdLevel {
    /// Scalar-order safe Rust; the reference semantics, always available.
    Portable,
    /// 256-bit mul+add lanes (requires a build with `avx2` enabled).
    Avx2,
    /// 512-bit mul+add lanes (requires a build with `avx512f` enabled).
    Avx512,
}

impl SimdLevel {
    /// The widest level this *build* carries kernels for.
    ///
    /// Vector kernels are compiled only under static `target_feature`
    /// gates, so availability is a compile-time fact, not a runtime probe.
    pub fn best_available() -> SimdLevel {
        #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
        {
            SimdLevel::Avx512
        }
        #[cfg(all(
            target_arch = "x86_64",
            target_feature = "avx2",
            not(target_feature = "avx512f")
        ))]
        {
            SimdLevel::Avx2
        }
        #[cfg(not(all(target_arch = "x86_64", target_feature = "avx2")))]
        {
            SimdLevel::Portable
        }
    }

    /// Whether this build carries a kernel for `self`.
    pub fn is_available(self) -> bool {
        self <= Self::best_available()
    }

    /// Parses a `REDEYE_SIMD` value; `None` for `auto`/unknown.
    fn parse(s: &str) -> Option<SimdLevel> {
        match s.to_ascii_lowercase().as_str() {
            "portable" | "scalar" => Some(SimdLevel::Portable),
            "avx2" => Some(SimdLevel::Avx2),
            "avx512" => Some(SimdLevel::Avx512),
            _ => None,
        }
    }

    /// The process-wide default level: `REDEYE_SIMD` if set (clamped to
    /// what the build compiled in), else [`SimdLevel::best_available`].
    ///
    /// Resolved once and cached; the environment is not re-read. Code that
    /// needs per-call control (tests, benchmarks, the executor's
    /// `set_simd_level` knob) passes an explicit level instead.
    pub fn auto() -> SimdLevel {
        static AUTO: OnceLock<SimdLevel> = OnceLock::new();
        *AUTO.get_or_init(|| {
            match std::env::var("REDEYE_SIMD") {
                Ok(v) if v.eq_ignore_ascii_case("auto") || v.is_empty() => Self::best_available(),
                Ok(v) => match Self::parse(&v) {
                    // Requesting wider than the build carries degrades to
                    // the widest compiled level (never silently upgrades).
                    Some(level) => level.min(Self::best_available()),
                    None => {
                        eprintln!(
                            "REDEYE_SIMD={v:?} not recognized (want auto|portable|avx2|avx512); \
                             using auto"
                        );
                        Self::best_available()
                    }
                },
                Err(_) => Self::best_available(),
            }
        })
    }

    /// Clamps an arbitrary requested level to one this build can run.
    pub fn clamp_available(self) -> SimdLevel {
        self.min(Self::best_available())
    }

    /// All levels this build can run, narrowest first — the sweep domain
    /// for equivalence tests.
    pub fn available_levels() -> Vec<SimdLevel> {
        [SimdLevel::Portable, SimdLevel::Avx2, SimdLevel::Avx512]
            .into_iter()
            .filter(|l| l.is_available())
            .collect()
    }
}

impl std::fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimdLevel::Portable => write!(f, "portable"),
            SimdLevel::Avx2 => write!(f, "avx2"),
            SimdLevel::Avx512 => write!(f, "avx512"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_reflects_isa_width() {
        assert!(SimdLevel::Portable < SimdLevel::Avx2);
        assert!(SimdLevel::Avx2 < SimdLevel::Avx512);
    }

    #[test]
    fn portable_is_always_available() {
        assert!(SimdLevel::Portable.is_available());
        assert!(SimdLevel::available_levels().contains(&SimdLevel::Portable));
    }

    #[test]
    fn clamp_never_exceeds_build() {
        for level in [SimdLevel::Portable, SimdLevel::Avx2, SimdLevel::Avx512] {
            assert!(level.clamp_available() <= SimdLevel::best_available());
        }
    }

    #[test]
    fn parse_accepts_knob_spellings() {
        assert_eq!(SimdLevel::parse("AVX2"), Some(SimdLevel::Avx2));
        assert_eq!(SimdLevel::parse("avx512"), Some(SimdLevel::Avx512));
        assert_eq!(SimdLevel::parse("Portable"), Some(SimdLevel::Portable));
        assert_eq!(SimdLevel::parse("scalar"), Some(SimdLevel::Portable));
        assert_eq!(SimdLevel::parse("neon"), None);
    }

    #[test]
    fn available_levels_is_a_prefix_of_the_ordering() {
        let levels = SimdLevel::available_levels();
        let mut sorted = levels.clone();
        sorted.sort();
        assert_eq!(levels, sorted);
        assert_eq!(levels.last().copied(), Some(SimdLevel::best_available()));
    }
}
