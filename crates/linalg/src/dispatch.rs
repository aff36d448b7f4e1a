//! Runtime selection of the GEMM microkernel / f16-conversion backend.
//!
//! The packed kernel ([`crate::kernel`]) and the f16 widen/narrow paths
//! ([`crate::f16`]) each have explicit `std::arch` SIMD implementations next
//! to the portable scalar ones. Which implementation runs is decided **once
//! per process** by [`active_backend`]:
//!
//! 1. If `TEXID_KERNEL_BACKEND` is set to `scalar`, `avx2` or `avx512`, that
//!    backend is forced — falling back to [`Backend::Scalar`] if the forced
//!    backend is not available on this CPU (a forced-but-missing SIMD path
//!    must degrade safely, never crash).
//! 2. Otherwise (unset, `auto`, or an unrecognized value) the best
//!    available backend is probed with [`Backend::detect`]:
//!    [`Backend::Avx512`] on x86-64 CPUs with AVX-512F on top of AVX2, FMA
//!    **and** F16C (`is_x86_feature_detected!`), [`Backend::Avx2`] on those
//!    with the three alone, [`Backend::Scalar`] everywhere else (aarch64
//!    included: its `mul_add` is already `fmadd`).
//!
//! The probe result is cached in a [`OnceLock`], so the hot paths pay one
//! relaxed atomic load, not a `cpuid` or an env lookup, per dispatch.
//!
//! Callers that need a *specific* backend regardless of the process default
//! (benchmarks, per-backend tests, `MatchConfig` overrides) pass it: the
//! backend is an argument of [`crate::kernel`]'s packs and pack-and-run
//! entry points and of [`crate::f16`]'s slice converters.
//!
//! All backends are **bit-identical**: every microkernel keeps one
//! accumulator per output element, fed one correctly-rounded fused
//! multiply-add per `k` in ascending order, and the SIMD f16 converters
//! reproduce the scalar reference's rounding and NaN canonicalization
//! exactly (see the summation-order contract in [`crate::kernel`]).

use std::sync::OnceLock;

/// A microkernel / conversion implementation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Portable scalar 4×4 register tile; the always-on fallback (and the
    /// only backend off x86-64: its `mul_add` is `fmadd` on aarch64).
    Scalar,
    /// x86-64 AVX2 8×8 tile (`vfmadd231ps`) with F16C half conversions;
    /// needs AVX2, FMA and F16C. Bit-identical to the scalar kernel, whose
    /// `f32::mul_add` is the same fused step (see [`crate::kernel`]).
    Avx2,
    /// x86-64 AVX-512 16×24 tile (`vfmadd231ps zmm`, 24 accumulators of 16
    /// rows), the F16C half conversions around it; needs AVX-512F on top
    /// of what [`Backend::Avx2`] needs. The same fused step again.
    Avx512,
}

impl Backend {
    /// All backends, in preference order (best first). The order is a
    /// measured statement: `texid bench kernels --check` fails on a host
    /// where a backend loses to the next one it lists.
    pub const ALL: [Backend; 3] = [Backend::Avx512, Backend::Avx2, Backend::Scalar];

    /// Stable lowercase name, as used by `TEXID_KERNEL_BACKEND`, the
    /// `--backend` CLI knob and the bench report's `backend` column.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Avx512 => "avx512",
        }
    }

    /// Parse a backend name (`scalar` / `avx2` / `avx512`,
    /// case-insensitive).
    pub fn parse(s: &str) -> Option<Backend> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(Backend::Scalar),
            "avx2" => Some(Backend::Avx2),
            "avx512" => Some(Backend::Avx512),
            _ => None,
        }
    }

    /// True when this backend can run on the current CPU: every target
    /// feature its code is compiled under is probed.
    pub fn is_available(self) -> bool {
        match self {
            Backend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
                    && std::arch::is_x86_feature_detected!("f16c")
            }
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 => {
                Backend::Avx2.is_available() && std::arch::is_x86_feature_detected!("avx512f")
            }
            #[cfg(not(target_arch = "x86_64"))]
            Backend::Avx2 | Backend::Avx512 => false,
        }
    }

    /// True when this backend's f16 conversions run the F16C vector
    /// converters on this CPU — both SIMD backends where available.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    pub(crate) fn has_f16c(self) -> bool {
        self != Backend::Scalar && self.is_available()
    }

    /// The best available backend on this CPU.
    pub fn detect() -> Backend {
        *Backend::ALL
            .iter()
            .find(|b| b.is_available())
            .expect("scalar backend is always available")
    }

    /// Resolve a `TEXID_KERNEL_BACKEND`-style override string: a known,
    /// available backend name forces that backend; a known but unavailable
    /// name degrades to [`Backend::Scalar`]; anything else (including
    /// `auto`) probes with [`Backend::detect`].
    pub fn from_env_value(v: &str) -> Backend {
        match Backend::parse(v) {
            Some(b) if b.is_available() => b,
            Some(_) => Backend::Scalar,
            None => Backend::detect(),
        }
    }

    /// Reference (A) columns per register tile — rows of the output tile.
    pub fn mr(self) -> usize {
        match self {
            Backend::Scalar => 4,
            Backend::Avx2 => 8,
            Backend::Avx512 => 16,
        }
    }

    /// Whether a half-precision reference pack keeps its f16 bits in the
    /// panels, which the tile widens in register as it loads them (2 bytes
    /// per element), rather than f32 widened at pack time (4). The SIMD
    /// tiles widen for one extra µop per 8 or 24 FMAs; the scalar tile would
    /// pay a conversion per multiply-add, so it keeps f32 panels.
    pub fn f16_panels(self) -> bool {
        self != Backend::Scalar
    }

    /// Query (B) columns per register tile — columns of the output tile.
    pub fn nr(self) -> usize {
        match self {
            Backend::Scalar => 4,
            Backend::Avx2 => 8,
            Backend::Avx512 => 24,
        }
    }
}

impl core::fmt::Display for Backend {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Largest `mr() · nr()` over all backends — the size of the stack scratch
/// tile the drivers allocate.
pub(crate) const MAX_TILE: usize = 384;

/// The process-wide backend: `TEXID_KERNEL_BACKEND` if set (see
/// [`Backend::from_env_value`]), otherwise the best available. Cached after
/// the first call — changing the env var later has no effect.
pub fn active_backend() -> Backend {
    static ACTIVE: OnceLock<Backend> = OnceLock::new();
    *ACTIVE.get_or_init(|| match std::env::var("TEXID_KERNEL_BACKEND") {
        Ok(v) => Backend::from_env_value(&v),
        Err(_) => Backend::detect(),
    })
}

/// Every backend that can run on this CPU, scalar last (preference order).
pub fn available_backends() -> Vec<Backend> {
    Backend::ALL.iter().copied().filter(|b| b.is_available()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_always_available_and_detect_never_panics() {
        assert!(Backend::Scalar.is_available());
        assert!(Backend::detect().is_available());
        assert!(available_backends().contains(&Backend::Scalar));
    }

    #[test]
    fn parse_names_roundtrip() {
        for b in Backend::ALL {
            assert_eq!(Backend::parse(b.name()), Some(b));
            assert_eq!(Backend::parse(&b.name().to_uppercase()), Some(b));
        }
        assert_eq!(Backend::parse("auto"), None);
        assert_eq!(Backend::parse("sse9"), None);
    }

    #[test]
    fn env_override_resolution() {
        // A forced, available backend wins.
        assert_eq!(Backend::from_env_value("scalar"), Backend::Scalar);
        for b in available_backends() {
            assert_eq!(Backend::from_env_value(b.name()), b);
        }
        // Forced-but-unavailable degrades to scalar, never panics.
        for b in Backend::ALL {
            if !b.is_available() {
                assert_eq!(Backend::from_env_value(b.name()), Backend::Scalar);
            }
        }
        // auto / garbage probe the best available.
        assert_eq!(Backend::from_env_value("auto"), Backend::detect());
        assert_eq!(Backend::from_env_value("banana"), Backend::detect());
    }

    #[test]
    fn tile_geometry_fits_scratch() {
        for b in Backend::ALL {
            assert!(b.mr() * b.nr() <= MAX_TILE);
            assert!(b.mr() >= 1 && b.nr() >= 1);
        }
    }

    #[test]
    fn active_backend_is_available() {
        assert!(active_backend().is_available());
    }
}
