//! Portable explicit-width `f32` vectors on plain aligned arrays.
//!
//! Every op is a straight per-lane map that LLVM lowers to packed
//! instructions on any target with SIMD, and to scalar code otherwise —
//! a `wide`-style fallback without the external crate. These are the
//! shapes monomorphized under `#[target_feature]` clones on x86_64 and
//! the fallback on targets without a dedicated intrinsics backend.

use super::SimdF32;
use std::ops::{Add, Div, Mul, Sub};

macro_rules! simd_f32 {
    ($name:ident, $lanes:literal, $align:literal) => {
        #[doc = concat!("A ", stringify!($lanes), "-lane `f32` vector.")]
        #[derive(Debug, Clone, Copy, PartialEq)]
        #[repr(align($align))]
        pub struct $name(pub [f32; $lanes]);

        impl $name {
            /// All lanes set to `v`.
            #[inline(always)]
            pub fn splat(v: f32) -> Self {
                Self([v; $lanes])
            }

            /// Loads consecutive lanes from `s` (panics if short).
            #[inline(always)]
            pub fn load(s: &[f32]) -> Self {
                Self(s[..$lanes].try_into().expect("enough lanes"))
            }

            /// Stores the lanes into `d` (panics if short).
            #[inline(always)]
            pub fn store(self, d: &mut [f32]) {
                d[..$lanes].copy_from_slice(&self.0);
            }

            /// Loads lanes from `s` starting at `i` without a bounds
            /// check.
            ///
            /// # Safety
            /// `i + LANES <= s.len()` must hold. Used only in the
            /// fused-sweep inner loops, where the chunked trip counts
            /// establish the bound once per row instead of once per load.
            #[inline(always)]
            pub unsafe fn load_at(s: &[f32], i: usize) -> Self {
                debug_assert!(i + $lanes <= s.len());
                Self(*(s.as_ptr().add(i) as *const [f32; $lanes]))
            }

            /// Stores the lanes into `d` at `i` without a bounds check.
            ///
            /// # Safety
            /// `i + LANES <= d.len()` must hold (see `load_at`).
            #[inline(always)]
            pub unsafe fn store_at(self, d: &mut [f32], i: usize) {
                debug_assert!(i + $lanes <= d.len());
                *(d.as_mut_ptr().add(i) as *mut [f32; $lanes]) = self.0;
            }

            /// Per-lane `sqrt` (IEEE-exact, identical to scalar).
            #[inline(always)]
            pub fn sqrt(self) -> Self {
                let mut o = self.0;
                for v in &mut o {
                    *v = v.sqrt();
                }
                Self(o)
            }

            /// Per-lane absolute value.
            #[inline(always)]
            pub fn abs(self) -> Self {
                let mut o = self.0;
                for v in &mut o {
                    *v = v.abs();
                }
                Self(o)
            }

            /// Per-lane `f32::min` (propagates the non-NaN operand).
            #[inline(always)]
            pub fn min(self, rhs: Self) -> Self {
                let mut o = self.0;
                for (v, b) in o.iter_mut().zip(rhs.0) {
                    *v = v.min(b);
                }
                Self(o)
            }

            /// Per-lane select: `if a > b { t } else { f }`.
            #[inline(always)]
            pub fn select_gt(a: Self, b: Self, t: Self, f: Self) -> Self {
                let mut o = [0.0f32; $lanes];
                for i in 0..$lanes {
                    o[i] = if a.0[i] > b.0[i] { t.0[i] } else { f.0[i] };
                }
                Self(o)
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline(always)]
            fn add(self, rhs: Self) -> Self {
                let mut o = self.0;
                for (v, b) in o.iter_mut().zip(rhs.0) {
                    *v += b;
                }
                Self(o)
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline(always)]
            fn sub(self, rhs: Self) -> Self {
                let mut o = self.0;
                for (v, b) in o.iter_mut().zip(rhs.0) {
                    *v -= b;
                }
                Self(o)
            }
        }

        impl Mul for $name {
            type Output = Self;
            #[inline(always)]
            fn mul(self, rhs: Self) -> Self {
                let mut o = self.0;
                for (v, b) in o.iter_mut().zip(rhs.0) {
                    *v *= b;
                }
                Self(o)
            }
        }

        impl Div for $name {
            type Output = Self;
            #[inline(always)]
            fn div(self, rhs: Self) -> Self {
                let mut o = self.0;
                for (v, b) in o.iter_mut().zip(rhs.0) {
                    *v /= b;
                }
                Self(o)
            }
        }

        impl SimdF32 for $name {
            const WIDTH: usize = $lanes;

            #[inline(always)]
            fn splat(v: f32) -> Self {
                $name::splat(v)
            }
            #[inline(always)]
            fn load(s: &[f32]) -> Self {
                $name::load(s)
            }
            #[inline(always)]
            fn store(self, d: &mut [f32]) {
                $name::store(self, d)
            }
            #[inline(always)]
            unsafe fn load_at(s: &[f32], i: usize) -> Self {
                $name::load_at(s, i)
            }
            #[inline(always)]
            unsafe fn store_at(self, d: &mut [f32], i: usize) {
                $name::store_at(self, d, i)
            }
            #[inline(always)]
            fn sqrt(self) -> Self {
                $name::sqrt(self)
            }
            #[inline(always)]
            fn abs(self) -> Self {
                $name::abs(self)
            }
            #[inline(always)]
            fn min(self, rhs: Self) -> Self {
                $name::min(self, rhs)
            }
            #[inline(always)]
            fn select_gt(a: Self, b: Self, t: Self, f: Self) -> Self {
                $name::select_gt(a, b, t, f)
            }
        }
    };
}

simd_f32!(F32x8, 8, 32);
simd_f32!(F32x4, 4, 16);

/// A 4-lane `f64` vector for the coordinate-warp arithmetic of the ENH
/// interior path, where the geometry runs in double precision before
/// narrowing to `f32` blend weights. Only the ops that loop needs are
/// provided; all of them are per-lane IEEE-exact, so the lane results
/// match the scalar warp bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(align(32))]
pub struct F64x4(pub [f64; 4]);

impl F64x4 {
    /// All lanes set to `v`.
    #[inline(always)]
    pub fn splat(v: f64) -> Self {
        Self([v; 4])
    }

    /// Per-lane `floor` (exact — `vroundpd` on x86, `frintm` on NEON).
    #[inline(always)]
    pub fn floor(self) -> Self {
        let mut o = self.0;
        for v in &mut o {
            *v = v.floor();
        }
        Self(o)
    }

    /// Per-lane narrowing to `f32` (round-to-nearest, identical to the
    /// scalar `as f32` cast).
    #[inline(always)]
    pub fn narrow(self) -> [f32; 4] {
        [
            self.0[0] as f32,
            self.0[1] as f32,
            self.0[2] as f32,
            self.0[3] as f32,
        ]
    }

    /// Per-lane conversion of whole numbers in `[0, 2^32)` to `u32`, exact
    /// there, without the saturating-cast range checks that defeat
    /// vectorization: `v + 2^52` is exact and holds `v` in the low bits of
    /// its mantissa (`vaddpd` + a shuffle on x86). Other lanes give an
    /// unspecified value, never undefined behaviour.
    #[inline(always)]
    pub fn whole_to_u32(self) -> [u32; 4] {
        const SHIFT: f64 = (1u64 << 52) as f64;
        self.0.map(|v| (v + SHIFT).to_bits() as u32)
    }
}

impl Add for F64x4 {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        let mut o = self.0;
        for (v, b) in o.iter_mut().zip(rhs.0) {
            *v += b;
        }
        Self(o)
    }
}

impl Sub for F64x4 {
    type Output = Self;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        let mut o = self.0;
        for (v, b) in o.iter_mut().zip(rhs.0) {
            *v -= b;
        }
        Self(o)
    }
}

impl Mul for F64x4 {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        let mut o = self.0;
        for (v, b) in o.iter_mut().zip(rhs.0) {
            *v *= b;
        }
        Self(o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_are_independent_and_exact() {
        let a = F32x8([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let b = F32x8::splat(0.5);
        let s = a * b + b;
        for i in 0..8 {
            assert_eq!(s.0[i].to_bits(), (a.0[i] * 0.5 + 0.5).to_bits());
        }
    }

    #[test]
    fn sqrt_abs_min_match_scalar_bits() {
        let a = F32x8([0.0, 1.5, 2.0, 1e-20, 1e20, 3.75, 0.1, 9.0]);
        let s = a.sqrt();
        for i in 0..8 {
            assert_eq!(s.0[i].to_bits(), a.0[i].sqrt().to_bits());
        }
        let n = F32x8([-1.0, 1.0, -0.0, 0.0, -3.5, 3.5, -1e9, 1e-9]);
        let ab = n.abs();
        for i in 0..8 {
            assert_eq!(ab.0[i].to_bits(), n.0[i].abs().to_bits());
        }
        let m = n.min(F32x8::splat(0.25));
        for i in 0..8 {
            assert_eq!(m.0[i].to_bits(), n.0[i].min(0.25).to_bits());
        }
    }

    #[test]
    fn select_gt_picks_per_lane() {
        let a = F32x8([1.0, -1.0, 0.0, 2.0, -2.0, 5.0, -5.0, 0.5]);
        let z = F32x8::splat(0.0);
        let t = F32x8::splat(7.0);
        let r = F32x8::select_gt(a, z, t, z);
        assert_eq!(r.0, [7.0, 0.0, 0.0, 7.0, 0.0, 7.0, 0.0, 7.0]);
    }

    #[test]
    fn load_store_round_trip() {
        let src = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0];
        let v = F32x8::load(&src);
        let mut dst = [0.0f32; 9];
        v.store(&mut dst);
        assert_eq!(&dst[..8], &src[..8]);
        assert_eq!(dst[8], 0.0);
    }

    #[test]
    fn unchecked_load_store_round_trip() {
        let src: Vec<f32> = (0..40).map(|i| i as f32 * 0.5).collect();
        let mut dst = vec![0.0f32; 40];
        // SAFETY: offsets keep LANES elements in range.
        unsafe {
            F32x8::load_at(&src, 3).store_at(&mut dst, 5);
        }
        assert_eq!(&dst[5..13], &src[3..11]);
        assert_eq!(dst[0], 0.0);
        assert_eq!(dst[13], 0.0);
    }
}
