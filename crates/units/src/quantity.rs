//! The `quantity!` macro generating unit newtypes.

/// Defines a unit newtype over `f64` with the full arithmetic and trait
/// surface shared by all quantities in this crate.
macro_rules! quantity {
    (
        $(#[$meta:meta])*
        $name:ident, $symbol:literal
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Creates a quantity from a raw value in base units.
            #[inline]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the raw value in base units.
            #[inline]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Creates a quantity from a value given in units of 10⁻¹⁵.
            #[inline]
            pub fn from_femto(v: f64) -> Self {
                Self(v * 1e-15)
            }

            /// Creates a quantity from a value given in units of 10⁻¹².
            #[inline]
            pub fn from_pico(v: f64) -> Self {
                Self(v * 1e-12)
            }

            /// Creates a quantity from a value given in units of 10⁻⁹.
            #[inline]
            pub fn from_nano(v: f64) -> Self {
                Self(v * 1e-9)
            }

            /// Creates a quantity from a value given in units of 10⁻⁶.
            #[inline]
            pub fn from_micro(v: f64) -> Self {
                Self(v * 1e-6)
            }

            /// Creates a quantity from a value given in units of 10⁻³.
            #[inline]
            pub fn from_milli(v: f64) -> Self {
                Self(v * 1e-3)
            }

            /// Creates a quantity from a value given in units of 10³.
            #[inline]
            pub fn from_kilo(v: f64) -> Self {
                Self(v * 1e3)
            }

            /// Creates a quantity from a value given in units of 10⁶.
            #[inline]
            pub fn from_mega(v: f64) -> Self {
                Self(v * 1e6)
            }

            /// Raw value expressed in units of 10⁻¹⁵.
            #[inline]
            pub fn as_femto(self) -> f64 {
                self.0 * 1e15
            }

            /// Raw value expressed in units of 10⁻¹².
            #[inline]
            pub fn as_pico(self) -> f64 {
                self.0 * 1e12
            }

            /// Raw value expressed in units of 10⁻⁹.
            #[inline]
            pub fn as_nano(self) -> f64 {
                self.0 * 1e9
            }

            /// Raw value expressed in units of 10⁻⁶.
            #[inline]
            pub fn as_micro(self) -> f64 {
                self.0 * 1e6
            }

            /// Raw value expressed in units of 10⁻³.
            #[inline]
            pub fn as_milli(self) -> f64 {
                self.0 * 1e3
            }

            /// Absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns the smaller of two quantities.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns the larger of two quantities.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Clamps the quantity to `[lo, hi]`.
            ///
            /// # Panics
            ///
            /// Panics if `lo > hi`.
            #[inline]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                Self(self.0.clamp(lo.0, hi.0))
            }

            /// `true` if the underlying value is finite.
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// `true` if the quantity equals zero exactly.
            #[inline]
            pub fn is_zero(self) -> bool {
                self.0 == 0.0
            }

            /// Returns the value sign: -1.0, 0.0, or 1.0.
            #[inline]
            pub fn signum(self) -> f64 {
                if self.0 == 0.0 {
                    0.0
                } else {
                    self.0.signum()
                }
            }

            /// The unit symbol used by `Display`.
            pub const SYMBOL: &'static str = $symbol;
        }

        impl ::std::fmt::Display for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                f.write_str(&$crate::fmt::format_eng(self.0, $symbol))
            }
        }

        impl ::std::ops::Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl ::std::ops::AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl ::std::ops::Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl ::std::ops::SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl ::std::ops::Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl ::std::ops::Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl ::std::ops::MulAssign<f64> for $name {
            #[inline]
            fn mul_assign(&mut self, rhs: f64) {
                self.0 *= rhs;
            }
        }

        impl ::std::ops::Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl ::std::ops::Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl ::std::ops::Div for $name {
            type Output = f64;
            #[inline]
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl ::std::iter::Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl<'a> ::std::iter::Sum<&'a $name> for $name {
            fn sum<I: Iterator<Item = &'a Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl ::std::str::FromStr for $name {
            type Err = $crate::parse::ParseQuantityError;
            fn from_str(s: &str) -> Result<Self, Self::Err> {
                $crate::parse::parse_eng(s, $symbol).map(Self)
            }
        }
    };
}

/// Defines `Lhs * Rhs = Out` and the commuted form.
macro_rules! cross_mul {
    ($lhs:ty, $rhs:ty, $out:ty) => {
        impl ::std::ops::Mul<$rhs> for $lhs {
            type Output = $out;
            #[inline]
            fn mul(self, rhs: $rhs) -> $out {
                <$out>::new(self.value() * rhs.value())
            }
        }

        impl ::std::ops::Mul<$lhs> for $rhs {
            type Output = $out;
            #[inline]
            fn mul(self, rhs: $lhs) -> $out {
                <$out>::new(self.value() * rhs.value())
            }
        }
    };
}

/// Defines `Num / Den = Out`.
macro_rules! cross_div {
    ($num:ty, $den:ty, $out:ty) => {
        impl ::std::ops::Div<$den> for $num {
            type Output = $out;
            #[inline]
            fn div(self, rhs: $den) -> $out {
                <$out>::new(self.value() / rhs.value())
            }
        }
    };
}

pub(crate) use {cross_div, cross_mul, quantity};
