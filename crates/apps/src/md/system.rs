//! Particle system state and 3-vector arithmetic.

use crate::datagen;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::ops::{Add, AddAssign, Mul, Sub};

/// A 3-component vector.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// x component.
    pub x: f64,
    /// y component.
    pub y: f64,
    /// z component.
    pub z: f64,
}

impl Vec3 {
    /// Construct from components.
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Self { x, y, z }
    }

    /// The zero vector.
    pub const ZERO: Vec3 = Vec3::new(0.0, 0.0, 0.0);

    /// Dot product.
    pub fn dot(self, o: Vec3) -> f64 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    /// Squared Euclidean norm.
    pub fn norm2(self) -> f64 {
        self.dot(self)
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl AddAssign for Vec3 {
    fn add_assign(&mut self, o: Vec3) {
        *self = *self + o;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    fn mul(self, s: f64) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }
}

/// Minimum-image displacement component for a periodic box of edge `l`.
#[inline]
pub fn min_image(d: f64, l: f64) -> f64 {
    // One wrap suffices: displacements between in-box positions lie in (-l, l).
    if d > l * 0.5 {
        d - l
    } else if d < -l * 0.5 {
        d + l
    } else {
        d
    }
}

/// Minimum-image displacement vector.
#[inline]
pub fn min_image_vec(d: Vec3, l: f64) -> Vec3 {
    Vec3::new(min_image(d.x, l), min_image(d.y, l), min_image(d.z, l))
}

/// A molecular system: positions, velocities, accelerations in a periodic box.
///
/// Each molecule carries 9 transported scalars (position, velocity,
/// acceleration x 3 components) at 4 bytes each — the paper's 36 bytes per
/// element.
#[derive(Debug, Clone)]
pub struct System {
    /// Particle positions, each component in `[0, box_len)`.
    pub positions: Vec<Vec3>,
    /// Particle velocities.
    pub velocities: Vec<Vec3>,
    /// Particle accelerations.
    pub accelerations: Vec<Vec3>,
    /// Periodic box edge length.
    pub box_len: f64,
}

/// Bytes transferred per molecule (Table 8): "4 bytes each for position,
/// velocity and acceleration in each of the X, Y, and Z spatial directions".
pub const BYTES_PER_MOLECULE: u64 = 36;

impl System {
    /// A random system: uniform positions in the box, small random velocities,
    /// zero accelerations. Deterministic in `tag`.
    pub fn random(n: usize, box_len: f64, tag: u64) -> Self {
        let positions = Self::random_positions(n, box_len, tag);
        let mut rng = ChaCha8Rng::seed_from_u64(datagen::BASE_SEED ^ tag ^ 0xfeed);
        let velocities = (0..n)
            .map(|_| {
                Vec3::new(
                    rng.gen_range(-0.05..0.05),
                    rng.gen_range(-0.05..0.05),
                    rng.gen_range(-0.05..0.05),
                )
            })
            .collect();
        Self {
            positions,
            velocities,
            accelerations: vec![Vec3::ZERO; n],
            box_len,
        }
    }

    /// The positions of [`System::random`] alone, without allocating the
    /// velocities and accelerations a neighbor count does not read.
    pub fn random_positions(n: usize, box_len: f64, tag: u64) -> Vec<Vec3> {
        assert!(n > 0 && box_len > 0.0);
        datagen::uniform_positions(n, tag)
            .into_iter()
            .map(|p| Vec3::new(p[0] * box_len, p[1] * box_len, p[2] * box_len))
            .collect()
    }

    /// Number of molecules.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the system is empty (never true for constructed systems).
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Total bytes one full-system transfer moves.
    pub fn transfer_bytes(&self) -> u64 {
        self.len() as u64 * BYTES_PER_MOLECULE
    }

    /// Wrap all positions back into the box (after integration).
    pub fn wrap_positions(&mut self) {
        let l = self.box_len;
        for p in &mut self.positions {
            p.x = p.x.rem_euclid(l);
            p.y = p.y.rem_euclid(l);
            p.z = p.z.rem_euclid(l);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec3_arithmetic() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(0.5, -1.0, 2.0);
        assert_eq!(a + b, Vec3::new(1.5, 1.0, 5.0));
        assert_eq!(a - b, Vec3::new(0.5, 3.0, 1.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(a.dot(b), 0.5 - 2.0 + 6.0);
        assert_eq!(Vec3::new(3.0, 4.0, 0.0).norm2(), 25.0);
    }

    #[test]
    fn min_image_folds_across_boundary() {
        let l = 1.0;
        assert_eq!(min_image(0.4, l), 0.4);
        assert!((min_image(0.9, l) - (-0.1)).abs() < 1e-12);
        assert!((min_image(-0.8, l) - 0.2).abs() < 1e-12);
        assert_eq!(min_image(0.5, l), 0.5); // boundary stays
    }

    #[test]
    fn min_image_distance_is_symmetric_across_the_wall() {
        // Particles at 0.05 and 0.95 are 0.1 apart through the boundary.
        let d = min_image(0.95 - 0.05, 1.0);
        assert!((d.abs() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn random_system_is_in_box_and_deterministic() {
        let s = System::random(500, 1.0, 42);
        assert_eq!(s.len(), 500);
        for p in &s.positions {
            assert!((0.0..1.0).contains(&p.x));
            assert!((0.0..1.0).contains(&p.y));
            assert!((0.0..1.0).contains(&p.z));
        }
        let s2 = System::random(500, 1.0, 42);
        assert_eq!(s.positions[17], s2.positions[17]);
        assert_eq!(s.velocities[17], s2.velocities[17]);
    }

    #[test]
    fn transfer_bytes_match_table8() {
        let s = System::random(crate::md::N_MOLECULES, 1.0, 1);
        assert_eq!(s.transfer_bytes(), 16_384 * 36);
    }

    #[test]
    fn wrap_positions_restores_the_box() {
        let mut s = System::random(10, 1.0, 3);
        s.positions[0] = Vec3::new(1.3, -0.2, 0.5);
        s.wrap_positions();
        let p = s.positions[0];
        assert!((p.x - 0.3).abs() < 1e-12);
        assert!((p.y - 0.8).abs() < 1e-12);
        assert_eq!(p.z, 0.5);
    }
}
