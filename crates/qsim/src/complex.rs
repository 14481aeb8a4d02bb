//! Minimal complex-number arithmetic for the state-vector simulator.
//!
//! Implemented in-repo (rather than pulling in an external numerics crate) so
//! that the whole simulator substrate is self-contained and the hot kernels in
//! [`crate::stripe`] compile down to plain f64 arithmetic.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

/// The additive identity, `0 + 0i`.
pub const C_ZERO: Complex = Complex { re: 0.0, im: 0.0 };
/// The multiplicative identity, `1 + 0i`.
pub const C_ONE: Complex = Complex { re: 1.0, im: 0.0 };
/// The imaginary unit, `0 + 1i`.
pub const C_I: Complex = Complex { re: 0.0, im: 1.0 };

impl Complex {
    /// Creates a complex number from real and imaginary parts.
    #[inline(always)]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a purely real complex number.
    #[inline(always)]
    pub const fn real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// Returns `e^{i\theta} = cos\theta + i sin\theta`.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Complex {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Complex conjugate.
    #[inline(always)]
    pub fn conj(self) -> Self {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared modulus `|z|^2`. This is the probability weight of an amplitude.
    #[inline(always)]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Multiplies by a real scalar.
    #[inline(always)]
    pub fn scale(self, s: f64) -> Self {
        Complex {
            re: self.re * s,
            im: self.im * s,
        }
    }

    /// True if both components are within `tol` of the other value's.
    #[inline]
    pub fn approx_eq(self, other: Complex, tol: f64) -> bool {
        (self.re - other.re).abs() <= tol && (self.im - other.im).abs() <= tol
    }

    /// True if `|z| <= tol`.
    #[inline]
    pub fn is_negligible(self, tol: f64) -> bool {
        self.norm_sqr() <= tol * tol
    }

    /// Multiplicative inverse. Panics in debug builds if `self` is zero.
    #[inline]
    fn inv(self) -> Self {
        let d = self.norm_sqr();
        debug_assert!(d > 0.0, "division by zero complex number");
        Complex {
            re: self.re / d,
            im: -self.im / d,
        }
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline(always)]
    fn add(self, rhs: Complex) -> Complex {
        Complex {
            re: self.re + rhs.re,
            im: self.im + rhs.im,
        }
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline(always)]
    fn sub(self, rhs: Complex) -> Complex {
        Complex {
            re: self.re - rhs.re,
            im: self.im - rhs.im,
        }
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline(always)]
    fn mul(self, rhs: Complex) -> Complex {
        Complex {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline(always)]
    fn mul(self, rhs: f64) -> Complex {
        self.scale(rhs)
    }
}

impl Mul<Complex> for f64 {
    type Output = Complex;
    #[inline(always)]
    fn mul(self, rhs: Complex) -> Complex {
        rhs.scale(self)
    }
}

impl Div for Complex {
    type Output = Complex;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // z / w = z * w^-1 by definition
    fn div(self, rhs: Complex) -> Complex {
        self * rhs.inv()
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline(always)]
    fn neg(self) -> Complex {
        Complex {
            re: -self.re,
            im: -self.im,
        }
    }
}

impl AddAssign for Complex {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl SubAssign for Complex {
    #[inline(always)]
    fn sub_assign(&mut self, rhs: Complex) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl MulAssign for Complex {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl From<f64> for Complex {
    #[inline]
    fn from(re: f64) -> Self {
        Complex::real(re)
    }
}

impl fmt::Debug for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{:.6}+{:.6}i", self.re, self.im)
        } else {
            write!(f, "{:.6}-{:.6}i", self.re, -self.im)
        }
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-12;

    #[test]
    fn addition_and_subtraction() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(-0.5, 3.0);
        assert!((a + b).approx_eq(Complex::new(0.5, 5.0), TOL));
        assert!((a - b).approx_eq(Complex::new(1.5, -1.0), TOL));
    }

    #[test]
    fn multiplication_matches_expansion() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        // (1+2i)(3-i) = 3 - i + 6i - 2i^2 = 5 + 5i
        assert!((a * b).approx_eq(Complex::new(5.0, 5.0), TOL));
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert!((C_I * C_I).approx_eq(-C_ONE, TOL));
    }

    #[test]
    fn conjugate_and_norm() {
        let z = Complex::new(3.0, 4.0);
        assert!((z * z.conj()).approx_eq(Complex::real(25.0), TOL));
        assert!((z.norm_sqr() - 25.0).abs() < TOL);
    }

    #[test]
    fn cis_lies_on_unit_circle() {
        for k in 0..16 {
            let theta = k as f64 * std::f64::consts::PI / 8.0;
            let z = Complex::cis(theta);
            assert!((z.norm_sqr() - 1.0).abs() < TOL);
        }
    }

    #[test]
    fn cis_addition_theorem() {
        let a = 0.7;
        let b = -1.3;
        assert!(Complex::cis(a + b).approx_eq(Complex::cis(a) * Complex::cis(b), TOL));
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = Complex::new(2.0, -3.0);
        let b = Complex::new(0.5, 1.5);
        assert!(((a * b) / b).approx_eq(a, 1e-10));
        assert!((b * b.inv()).approx_eq(C_ONE, TOL));
    }
}
