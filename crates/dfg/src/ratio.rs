//! Exact rational arithmetic for iteration bounds.
//!
//! Iteration bounds are ratios `T(C)/D(C)` of cycle computation time over
//! cycle delay count. Floating point is not acceptable for deciding
//! rate-optimality (e.g. whether an iteration period *equals* the bound), so
//! bounds are represented exactly.

use std::cmp::Ordering;
use std::fmt;

/// An exact non-negative rational `num/den` in lowest terms, `den >= 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ratio {
    num: i64,
    den: i64,
}

fn gcd(mut a: i64, mut b: i64) -> i64 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

impl Ratio {
    /// Construct `num/den` reduced to lowest terms.
    ///
    /// # Panics
    /// Panics if `den == 0`.
    pub fn new(num: i64, den: i64) -> Self {
        assert!(den != 0, "ratio with zero denominator");
        let sign = if (num < 0) != (den < 0) && num != 0 {
            -1
        } else {
            1
        };
        let (num, den) = (num.abs(), den.abs());
        let g = gcd(num, den).max(1);
        Ratio {
            num: sign * (num / g),
            den: den / g,
        }
    }

    /// The integer `n` as a ratio.
    pub fn integer(n: i64) -> Self {
        Ratio { num: n, den: 1 }
    }

    /// Numerator (in lowest terms, sign-carrying).
    pub fn num(self) -> i64 {
        self.num
    }

    /// Denominator (in lowest terms, always positive).
    pub fn den(self) -> i64 {
        self.den
    }

    /// Closest `f64` (for display and approximate comparisons only).
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Smallest integer `>= self`.
    pub fn ceil(self) -> i64 {
        if self.num >= 0 {
            (self.num + self.den - 1) / self.den
        } else {
            self.num / self.den
        }
    }

    /// Largest integer `<= self`.
    pub fn floor(self) -> i64 {
        if self.num >= 0 {
            self.num / self.den
        } else {
            (self.num - self.den + 1) / self.den
        }
    }

    /// `self * k` for integer `k`.
    pub fn scale(self, k: i64) -> Ratio {
        Ratio::new(self.num * k, self.den)
    }
}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ratio {
    fn cmp(&self, other: &Self) -> Ordering {
        // Cross-multiplication in i128 avoids overflow for all i64 ratios.
        let lhs = self.num as i128 * other.den as i128;
        let rhs = other.num as i128 * self.den as i128;
        lhs.cmp(&rhs)
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduces_to_lowest_terms() {
        let r = Ratio::new(27, 2);
        assert_eq!((r.num(), r.den()), (27, 2));
        let r = Ratio::new(54, 4);
        assert_eq!((r.num(), r.den()), (27, 2));
        let r = Ratio::new(0, 5);
        assert_eq!((r.num(), r.den()), (0, 1));
    }

    #[test]
    fn sign_normalization() {
        assert_eq!(Ratio::new(-4, 2), Ratio::new(4, -2));
        assert_eq!(Ratio::new(-4, -2), Ratio::integer(2));
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Ratio::new(1, 0);
    }

    #[test]
    fn ordering_via_cross_multiplication() {
        assert!(Ratio::new(27, 2) > Ratio::integer(13));
        assert!(Ratio::new(27, 2) < Ratio::integer(14));
        assert_eq!(Ratio::new(3, 2).cmp(&Ratio::new(6, 4)), Ordering::Equal);
        // Values that would overflow naive i64 cross multiplication.
        let big = Ratio::new(i64::MAX, 3);
        let bigger = Ratio::new(i64::MAX, 2);
        assert!(big < bigger);
    }

    #[test]
    fn ceil_floor() {
        assert_eq!(Ratio::new(27, 2).ceil(), 14);
        assert_eq!(Ratio::new(27, 2).floor(), 13);
        assert_eq!(Ratio::integer(5).ceil(), 5);
        assert_eq!(Ratio::integer(5).floor(), 5);
        assert_eq!(Ratio::new(-3, 2).ceil(), -1);
        assert_eq!(Ratio::new(-3, 2).floor(), -2);
    }

    #[test]
    fn display() {
        assert_eq!(Ratio::new(27, 2).to_string(), "27/2");
        assert_eq!(Ratio::integer(8).to_string(), "8");
        assert_eq!(format!("{:.1}", Ratio::new(27, 2).to_f64()), "13.5");
    }

    #[test]
    fn scale() {
        assert_eq!(Ratio::new(27, 2).scale(4), Ratio::integer(54));
        assert_eq!(Ratio::new(1, 3).scale(2), Ratio::new(2, 3));
    }
}
