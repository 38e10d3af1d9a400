//! 2-D and 3-D geometry used by the vehicular scenarios.
//!
//! Road scenarios (platooning, intersections, lane changes) use [`Vec2`];
//! the avionics scenarios add altitude through [`Vec3`], matching the paper's
//! separation-minima definition in terms of a *lateral* and a *vertical*
//! distance.

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A 2-D vector / point in metres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// X component (metres).
    pub x: f64,
    /// Y component (metres).
    pub y: f64,
}

/// A 3-D vector / point in metres (x, y horizontal; z = altitude).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// X component (metres).
    pub x: f64,
    /// Y component (metres).
    pub y: f64,
    /// Z component — altitude (metres).
    pub z: f64,
}

impl Vec2 {
    /// The zero vector.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Creates a vector from components.
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Euclidean norm.
    pub fn norm(self) -> f64 {
        (self.x * self.x + self.y * self.y).sqrt()
    }

    /// Distance to another point.
    pub fn distance(self, other: Vec2) -> f64 {
        (self - other).norm()
    }
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 0.0 };

    /// Creates a vector from components.
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Euclidean norm.
    pub fn norm(self) -> f64 {
        (self.x * self.x + self.y * self.y + self.z * self.z).sqrt()
    }

    /// Distance to another point.
    pub fn distance(self, other: Vec3) -> f64 {
        (self - other).norm()
    }

    /// Horizontal (lateral) distance, ignoring altitude.  This is the
    /// "lateral separation" of the avionics safe-state volume.
    pub fn horizontal_distance(self, other: Vec3) -> f64 {
        self.horizontal().distance(other.horizontal())
    }

    /// Vertical distance (altitude difference magnitude).
    pub fn vertical_distance(self, other: Vec3) -> f64 {
        (self.z - other.z).abs()
    }

    /// Projection onto the horizontal plane.
    pub fn horizontal(self) -> Vec2 {
        Vec2 { x: self.x, y: self.y }
    }
}

macro_rules! impl_vec_ops {
    ($ty:ident, $($field:ident),+) => {
        impl Add for $ty {
            type Output = $ty;
            fn add(self, rhs: $ty) -> $ty {
                $ty { $($field: self.$field + rhs.$field),+ }
            }
        }
        impl AddAssign for $ty {
            fn add_assign(&mut self, rhs: $ty) {
                $(self.$field += rhs.$field;)+
            }
        }
        impl Sub for $ty {
            type Output = $ty;
            fn sub(self, rhs: $ty) -> $ty {
                $ty { $($field: self.$field - rhs.$field),+ }
            }
        }
        impl SubAssign for $ty {
            fn sub_assign(&mut self, rhs: $ty) {
                $(self.$field -= rhs.$field;)+
            }
        }
        impl Mul<f64> for $ty {
            type Output = $ty;
            fn mul(self, rhs: f64) -> $ty {
                $ty { $($field: self.$field * rhs),+ }
            }
        }
        impl Div<f64> for $ty {
            type Output = $ty;
            fn div(self, rhs: f64) -> $ty {
                $ty { $($field: self.$field / rhs),+ }
            }
        }
        impl Neg for $ty {
            type Output = $ty;
            fn neg(self) -> $ty {
                $ty { $($field: -self.$field),+ }
            }
        }
    };
}

impl_vec_ops!(Vec2, x, y);
impl_vec_ops!(Vec3, x, y, z);

/// Clamps `value` into the inclusive range `[lo, hi]`.
pub fn clamp(value: f64, lo: f64, hi: f64) -> f64 {
    debug_assert!(lo <= hi);
    value.max(lo).min(hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn vec2_basic_ops() {
        let a = Vec2::new(3.0, 4.0);
        let b = Vec2::new(1.0, -2.0);
        assert!(approx(a.norm(), 5.0));
        assert_eq!(a + b, Vec2::new(4.0, 2.0));
        assert_eq!(a - b, Vec2::new(2.0, 6.0));
        assert_eq!(a * 2.0, Vec2::new(6.0, 8.0));
        assert_eq!(a / 2.0, Vec2::new(1.5, 2.0));
        assert_eq!(-a, Vec2::new(-3.0, -4.0));
        assert!(approx(a.distance(b), ((2.0f64).powi(2) + 36.0).sqrt()));
    }

    #[test]
    fn vec3_separation_components() {
        let a = Vec3::new(0.0, 0.0, 1000.0);
        let b = Vec3::new(300.0, 400.0, 1300.0);
        assert!(approx(a.horizontal_distance(b), 500.0));
        assert!(approx(a.vertical_distance(b), 300.0));
        assert!(approx(a.distance(b), (500.0f64.powi(2) + 300.0f64.powi(2)).sqrt()));
        assert_eq!(b.horizontal(), Vec2::new(300.0, 400.0));
    }

    #[test]
    fn vec3_ops() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, 5.0, 6.0);
        assert_eq!(a + b, Vec3::new(5.0, 7.0, 9.0));
        assert_eq!(b - a, Vec3::new(3.0, 3.0, 3.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
    }

    #[test]
    fn clamp_bounds() {
        assert_eq!(clamp(5.0, 0.0, 3.0), 3.0);
        assert_eq!(clamp(-1.0, 0.0, 3.0), 0.0);
        assert_eq!(clamp(2.0, 0.0, 3.0), 2.0);
    }
}
