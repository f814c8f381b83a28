//! Unit newtypes for energy, time, power and energy-delay product.
//!
//! The HyVE paper mixes picojoules, nanojoules, picoseconds and nanoseconds
//! freely; these newtypes keep every quantity in a single canonical unit
//! internally (picojoules for energy, nanoseconds for time, milliwatts for
//! power) and make conversions explicit at the boundaries.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Sub, SubAssign};

/// An amount of energy, stored internally in picojoules.
///
/// ```
/// use hyve_memsim::Energy;
/// let e = Energy::from_nj(3.91);
/// assert!((e.as_pj() - 3910.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Energy(f64);

impl Energy {
    /// Zero energy.
    pub const ZERO: Energy = Energy(0.0);

    /// Creates an energy from picojoules.
    pub const fn from_pj(pj: f64) -> Self {
        Energy(pj)
    }

    /// Creates an energy from nanojoules.
    pub const fn from_nj(nj: f64) -> Self {
        Energy(nj * 1e3)
    }

    /// Creates an energy from joules.
    pub const fn from_j(j: f64) -> Self {
        Energy(j * 1e12)
    }

    /// Returns the energy in picojoules.
    pub fn as_pj(self) -> f64 {
        self.0
    }

    /// Returns the energy in nanojoules.
    pub fn as_nj(self) -> f64 {
        self.0 * 1e-3
    }

    /// Returns the energy in microjoules.
    pub fn as_uj(self) -> f64 {
        self.0 * 1e-6
    }

    /// Returns the energy in joules.
    pub fn as_j(self) -> f64 {
        self.0 * 1e-12
    }

    /// Returns the larger of two energies.
    pub fn max(self, other: Energy) -> Energy {
        Energy(self.0.max(other.0))
    }

    /// Returns the smaller of two energies.
    pub fn min(self, other: Energy) -> Energy {
        Energy(self.0.min(other.0))
    }

    /// True if the energy is a finite, non-negative number.
    pub fn is_valid(self) -> bool {
        self.0.is_finite() && self.0 >= 0.0
    }
}

/// A duration, stored internally in nanoseconds.
///
/// ```
/// use hyve_memsim::Time;
/// let t = Time::from_ps(1983.0);
/// assert!((t.as_ns() - 1.983).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Time(f64);

impl Time {
    /// Zero duration.
    pub const ZERO: Time = Time(0.0);

    /// Creates a time from picoseconds.
    pub const fn from_ps(ps: f64) -> Self {
        Time(ps * 1e-3)
    }

    /// Creates a time from nanoseconds.
    pub const fn from_ns(ns: f64) -> Self {
        Time(ns)
    }

    /// Creates a time from microseconds.
    pub const fn from_us(us: f64) -> Self {
        Time(us * 1e3)
    }

    /// Creates a time from milliseconds.
    pub const fn from_ms(ms: f64) -> Self {
        Time(ms * 1e6)
    }

    /// Creates a time from seconds.
    pub const fn from_s(s: f64) -> Self {
        Time(s * 1e9)
    }

    /// Returns the time in picoseconds.
    pub fn as_ps(self) -> f64 {
        self.0 * 1e3
    }

    /// Returns the time in nanoseconds.
    pub fn as_ns(self) -> f64 {
        self.0
    }

    /// Returns the time in microseconds.
    pub fn as_us(self) -> f64 {
        self.0 * 1e-3
    }

    /// Returns the time in milliseconds.
    pub fn as_ms(self) -> f64 {
        self.0 * 1e-6
    }

    /// Returns the time in seconds.
    pub fn as_s(self) -> f64 {
        self.0 * 1e-9
    }

    /// Returns the larger of two times.
    pub fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }

    /// Returns the smaller of two times.
    pub fn min(self, other: Time) -> Time {
        Time(self.0.min(other.0))
    }

    /// True if the time is a finite, non-negative number.
    pub fn is_valid(self) -> bool {
        self.0.is_finite() && self.0 >= 0.0
    }
}

/// Power, stored internally in milliwatts.
///
/// `Power * Time = Energy` and `Energy / Time = Power`:
///
/// ```
/// use hyve_memsim::{Power, Time};
/// let leak = Power::from_mw(10.0);
/// let e = leak * Time::from_us(1.0);
/// assert!((e.as_nj() - 10.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Power(f64);

impl Power {
    /// Zero power.
    pub const ZERO: Power = Power(0.0);

    /// Creates a power from microwatts.
    pub const fn from_uw(uw: f64) -> Self {
        Power(uw * 1e-3)
    }

    /// Creates a power from milliwatts.
    pub const fn from_mw(mw: f64) -> Self {
        Power(mw)
    }

    /// Creates a power from watts.
    pub const fn from_w(w: f64) -> Self {
        Power(w * 1e3)
    }

    /// Returns the power in microwatts.
    pub fn as_uw(self) -> f64 {
        self.0 * 1e3
    }

    /// Returns the power in milliwatts.
    pub fn as_mw(self) -> f64 {
        self.0
    }

    /// Returns the larger of two powers.
    pub fn max(self, other: Power) -> Power {
        Power(self.0.max(other.0))
    }

    /// True if the power is a finite, non-negative number.
    pub fn is_valid(self) -> bool {
        self.0.is_finite() && self.0 >= 0.0
    }
}

/// Energy-delay product, stored internally in picojoule-nanoseconds.
///
/// The paper's §6 optimizes `T · E`; this type is produced by
/// `Energy * Time`.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct EnergyDelay(f64);

impl EnergyDelay {
    /// Zero energy-delay product.
    pub const ZERO: EnergyDelay = EnergyDelay(0.0);

    /// Creates an EDP value from picojoule-nanoseconds.
    pub fn from_pj_ns(v: f64) -> Self {
        EnergyDelay(v)
    }

    /// Returns the EDP in picojoule-nanoseconds.
    pub fn as_pj_ns(self) -> f64 {
        self.0
    }

    /// Returns the EDP in joule-seconds.
    pub fn as_j_s(self) -> f64 {
        self.0 * 1e-21
    }
}

macro_rules! impl_linear_ops {
    ($ty:ident) => {
        impl Add for $ty {
            type Output = $ty;
            fn add(self, rhs: $ty) -> $ty {
                $ty(self.0 + rhs.0)
            }
        }
        impl AddAssign for $ty {
            fn add_assign(&mut self, rhs: $ty) {
                self.0 += rhs.0;
            }
        }
        impl Sub for $ty {
            type Output = $ty;
            fn sub(self, rhs: $ty) -> $ty {
                $ty(self.0 - rhs.0)
            }
        }
        impl SubAssign for $ty {
            fn sub_assign(&mut self, rhs: $ty) {
                self.0 -= rhs.0;
            }
        }
        impl Mul<f64> for $ty {
            type Output = $ty;
            fn mul(self, rhs: f64) -> $ty {
                $ty(self.0 * rhs)
            }
        }
        impl Mul<$ty> for f64 {
            type Output = $ty;
            fn mul(self, rhs: $ty) -> $ty {
                $ty(self * rhs.0)
            }
        }
        impl MulAssign<f64> for $ty {
            fn mul_assign(&mut self, rhs: f64) {
                self.0 *= rhs;
            }
        }
        impl Div<f64> for $ty {
            type Output = $ty;
            fn div(self, rhs: f64) -> $ty {
                $ty(self.0 / rhs)
            }
        }
        impl Div<$ty> for $ty {
            type Output = f64;
            fn div(self, rhs: $ty) -> f64 {
                self.0 / rhs.0
            }
        }
        impl Sum for $ty {
            fn sum<I: Iterator<Item = $ty>>(iter: I) -> $ty {
                iter.fold($ty(0.0), |a, b| a + b)
            }
        }
    };
}

impl_linear_ops!(Energy);
impl_linear_ops!(Time);
impl_linear_ops!(Power);
impl_linear_ops!(EnergyDelay);

impl Mul<Time> for Power {
    type Output = Energy;
    fn mul(self, rhs: Time) -> Energy {
        // mW * ns = pJ
        Energy(self.0 * rhs.0)
    }
}

impl Mul<Power> for Time {
    type Output = Energy;
    fn mul(self, rhs: Power) -> Energy {
        rhs * self
    }
}

impl Div<Time> for Energy {
    type Output = Power;
    fn div(self, rhs: Time) -> Power {
        // pJ / ns = mW
        Power(self.0 / rhs.0)
    }
}

impl Mul<Time> for Energy {
    type Output = EnergyDelay;
    fn mul(self, rhs: Time) -> EnergyDelay {
        EnergyDelay(self.0 * rhs.0)
    }
}

impl Mul<Energy> for Time {
    type Output = EnergyDelay;
    fn mul(self, rhs: Energy) -> EnergyDelay {
        rhs * self
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pj = self.0;
        if pj.abs() >= 1e9 {
            write!(f, "{:.3} mJ", pj * 1e-9)
        } else if pj.abs() >= 1e6 {
            write!(f, "{:.3} uJ", pj * 1e-6)
        } else if pj.abs() >= 1e3 {
            write!(f, "{:.3} nJ", pj * 1e-3)
        } else {
            write!(f, "{:.3} pJ", pj)
        }
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns.abs() >= 1e9 {
            write!(f, "{:.3} s", ns * 1e-9)
        } else if ns.abs() >= 1e6 {
            write!(f, "{:.3} ms", ns * 1e-6)
        } else if ns.abs() >= 1e3 {
            write!(f, "{:.3} us", ns * 1e-3)
        } else {
            write!(f, "{:.3} ns", ns)
        }
    }
}

impl fmt::Display for Power {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mw = self.0;
        if mw.abs() >= 1e3 {
            write!(f, "{:.3} W", mw * 1e-3)
        } else if mw.abs() >= 1.0 {
            write!(f, "{:.3} mW", mw)
        } else {
            write!(f, "{:.3} uW", mw * 1e3)
        }
    }
}

impl fmt::Display for EnergyDelay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3e} pJ*ns", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-9;

    #[test]
    fn energy_conversions_round_trip() {
        let e = Energy::from_nj(2.5);
        assert!((e.as_pj() - 2500.0).abs() < EPS);
        assert!((e.as_nj() - 2.5).abs() < EPS);
        assert!((e.as_uj() - 0.0025).abs() < EPS);
        assert!((Energy::from_j(1.0).as_pj() - 1e12).abs() < 1.0);
    }

    #[test]
    fn time_conversions_round_trip() {
        let t = Time::from_us(1.5);
        assert!((t.as_ns() - 1500.0).abs() < EPS);
        assert!((t.as_ps() - 1_500_000.0).abs() < EPS);
        assert!((Time::from_s(2.0).as_ms() - 2000.0).abs() < EPS);
    }

    #[test]
    fn power_times_time_is_energy() {
        // 1 W for 1 s = 1 J
        let e = Power::from_w(1.0) * Time::from_s(1.0);
        assert!((e.as_j() - 1.0).abs() < 1e-12);
        // 0.16 uW read power for 10 ns
        let e = Power::from_uw(0.16) * Time::from_ns(10.0);
        assert!((e.as_pj() - 0.0016).abs() < EPS);
    }

    #[test]
    fn energy_over_time_is_power() {
        let p = Energy::from_pj(100.0) / Time::from_ns(10.0);
        assert!((p.as_mw() - 10.0).abs() < EPS);
    }

    #[test]
    fn edp_is_energy_times_time() {
        let edp = Energy::from_pj(3.0) * Time::from_ns(4.0);
        assert!((edp.as_pj_ns() - 12.0).abs() < EPS);
        let edp2 = Time::from_ns(4.0) * Energy::from_pj(3.0);
        assert_eq!(edp, edp2);
    }

    #[test]
    fn arithmetic_and_ordering() {
        let a = Energy::from_pj(1.0);
        let b = Energy::from_pj(2.0);
        assert_eq!((a + b).as_pj(), 3.0);
        assert_eq!((b - a).as_pj(), 1.0);
        assert_eq!((b * 2.0).as_pj(), 4.0);
        assert_eq!((b / 2.0).as_pj(), 1.0);
        assert_eq!(b / a, 2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn sum_of_energies() {
        let total: Energy = (1..=4).map(|i| Energy::from_pj(i as f64)).sum();
        assert_eq!(total.as_pj(), 10.0);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", Energy::from_pj(12.0)), "12.000 pJ");
        assert_eq!(format!("{}", Energy::from_nj(3.91)), "3.910 nJ");
        assert_eq!(format!("{}", Time::from_ns(29.31)), "29.310 ns");
        assert_eq!(format!("{}", Time::from_s(1.0)), "1.000 s");
        assert_eq!(format!("{}", Power::from_w(2.0)), "2.000 W");
    }

    #[test]
    fn validity_checks() {
        assert!(Energy::from_pj(1.0).is_valid());
        assert!(!Energy::from_pj(-1.0).is_valid());
        assert!(!Energy::from_pj(f64::NAN).is_valid());
        assert!(Time::from_ns(0.0).is_valid());
        assert!(Power::from_mw(5.0).is_valid());
    }
}
