//! Node-visible time.
//!
//! Time is a monotonically non-decreasing count of nanoseconds since the
//! start of the run. All latencies, bandwidth-derived serialization
//! delays, and timer deadlines are expressed as [`Time`] values. The
//! simulator's event loop advances this clock to each popped event's
//! timestamp; the real UDP runtime derives it from a wall-clock epoch.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A point in run time (or a span, when used as an offset), in
/// nanoseconds.
///
/// `Time` is deliberately a plain newtype over `u64` rather than
/// `std::time::Duration`: simulations routinely multiply/divide times by
/// byte counts and rates, and a transparent integer keeps that arithmetic
/// exact, cheap, and `Ord`-erable inside the event heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

impl Time {
    /// Time zero — the start of every run.
    pub const ZERO: Time = Time(0);
    /// The greatest representable time; used as an "infinite" deadline.
    pub const MAX: Time = Time(u64::MAX);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Time {
        Time(ns)
    }
    /// Construct from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Time {
        Time(us * 1_000)
    }
    /// Construct from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Time {
        Time(ms * 1_000_000)
    }
    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Time {
        Time(s * 1_000_000_000)
    }

    /// Nanoseconds since time zero.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0
    }
    /// Fractional seconds since time zero.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction: `self - rhs`, clamped at zero.
    #[inline]
    pub fn saturating_sub(self, rhs: Time) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }

    /// The larger of two times.
    #[inline]
    pub fn max(self, other: Time) -> Time {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The time it takes to serialize `bytes` onto a link running at
    /// `bits_per_sec`. Rounds up so a nonzero payload always takes
    /// nonzero time.
    #[inline]
    pub fn tx_time(bytes: u64, bits_per_sec: u64) -> Time {
        debug_assert!(bits_per_sec > 0, "link bandwidth must be positive");
        let bits = bytes * 8;
        // ns = bits * 1e9 / bps, rounded up.
        Time((bits * 1_000_000_000).div_ceil(bits_per_sec))
    }
}

impl Add for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl Sub for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Time) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl Mul<u64> for Time {
    type Output = Time;
    #[inline]
    fn mul(self, rhs: u64) -> Time {
        Time(self.0 * rhs)
    }
}

impl Div<u64> for Time {
    type Output = Time;
    #[inline]
    fn div(self, rhs: u64) -> Time {
        Time(self.0 / rhs)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Time::from_us(1), Time::from_ns(1_000));
        assert_eq!(Time::from_ms(1), Time::from_us(1_000));
        assert_eq!(Time::from_secs(1), Time::from_ms(1_000));
    }

    #[test]
    fn arithmetic() {
        let a = Time::from_us(5);
        let b = Time::from_us(3);
        assert_eq!(a + b, Time::from_us(8));
        assert_eq!(a - b, Time::from_us(2));
        assert_eq!(b.saturating_sub(a), Time::ZERO);
        assert_eq!(a * 2, Time::from_us(10));
        assert_eq!(a / 5, Time::from_us(1));
        assert_eq!(a.max(b), a);
        assert_eq!(b.max(a), a);
    }

    #[test]
    fn tx_time_gigabit() {
        // 1400 bytes at 1 Gbps = 11.2 us.
        let t = Time::tx_time(1400, 1_000_000_000);
        assert_eq!(t, Time::from_ns(11_200));
    }

    #[test]
    fn tx_time_rounds_up() {
        // 1 byte at 1 Gbps = 8 ns exactly; 1 byte at 3 Gbps rounds up to 3 ns.
        assert_eq!(Time::tx_time(1, 1_000_000_000), Time::from_ns(8));
        assert_eq!(Time::tx_time(1, 3_000_000_000), Time::from_ns(3));
    }

    #[test]
    fn tx_time_50mbps() {
        // 1 MB at 50 Mbps = 8_388_608 bits / 50e6 bps = 167.77 ms.
        let t = Time::tx_time(1 << 20, 50_000_000);
        assert!(t > Time::from_ms(167) && t < Time::from_ms(168), "{t}");
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", Time::from_ns(5)), "5ns");
        assert_eq!(format!("{}", Time::from_us(5)), "5.000us");
        assert_eq!(format!("{}", Time::from_ms(5)), "5.000ms");
        assert_eq!(format!("{}", Time::from_secs(5)), "5.000s");
    }
}
