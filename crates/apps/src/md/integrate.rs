//! Velocity-Verlet time integration.

use crate::md::forces::{compute_forces_parallel, LjParams};
use crate::md::system::System;
use rat_core::engine::Engine;

/// Advance `system` one velocity-Verlet step of size `dt` under `params`
/// (unit particle mass), computing forces on `engine`'s pool. Returns the
/// potential energy after the step.
pub fn step(engine: &Engine, system: &mut System, params: &LjParams, dt: f64) -> f64 {
    assert!(dt > 0.0, "time step must be positive");
    let n = system.len();
    // Half-kick + drift using current accelerations.
    for i in 0..n {
        let v_half = system.velocities[i] + system.accelerations[i] * (0.5 * dt);
        system.velocities[i] = v_half;
        system.positions[i] += v_half * dt;
    }
    system.wrap_positions();
    // New forces, second half-kick.
    let (forces, potential) = compute_forces_parallel(engine, system, params);
    system.accelerations.copy_from_slice(&forces); // unit mass: a = F
    for (v, f) in system.velocities.iter_mut().zip(&forces) {
        *v += *f * (0.5 * dt);
    }
    potential
}

/// Kinetic energy of the system (unit masses).
pub fn kinetic_energy(system: &System) -> f64 {
    0.5 * system.velocities.iter().map(|v| v.norm2()).sum::<f64>()
}

/// Run `steps` integration steps, returning `(kinetic, potential)` per step.
pub fn run(
    engine: &Engine,
    system: &mut System,
    params: &LjParams,
    dt: f64,
    steps: usize,
) -> Vec<(f64, f64)> {
    (0..steps)
        .map(|_| {
            let potential = step(engine, system, params, dt);
            (kinetic_energy(system), potential)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::md::system::{System, Vec3};

    fn quiet_system() -> (System, LjParams) {
        let mut s = System::random(300, 1.0, 301);
        // Small velocities so energy drift stays interpretable.
        for v in &mut s.velocities {
            *v = *v * 0.2;
        }
        let p = LjParams {
            epsilon: 1.0e-5,
            sigma: 0.04,
            cutoff: 0.2,
        };
        // Initialize accelerations consistently.
        let (f, _) = crate::md::forces::compute_forces(&s, &p);
        s.accelerations = f;
        (s, p)
    }

    #[test]
    fn energy_approximately_conserved() {
        let (mut s, p) = quiet_system();
        let dt = 5e-4;
        let trace = run(&Engine::sequential(), &mut s, &p, dt, 50);
        let e0 = trace.first().map(|(k, u)| k + u).unwrap();
        let e_end = trace.last().map(|(k, u)| k + u).unwrap();
        let drift = (e_end - e0).abs() / e0.abs().max(1e-12);
        assert!(drift < 0.05, "energy drift {drift:.4} over 50 steps");
    }

    #[test]
    fn positions_stay_in_box() {
        let (mut s, p) = quiet_system();
        run(&Engine::sequential(), &mut s, &p, 1e-3, 20);
        for q in &s.positions {
            assert!((0.0..1.0).contains(&q.x));
            assert!((0.0..1.0).contains(&q.y));
            assert!((0.0..1.0).contains(&q.z));
        }
    }

    #[test]
    fn momentum_is_conserved() {
        let (mut s, p) = quiet_system();
        let mom0 = s.velocities.iter().fold(Vec3::ZERO, |a, &v| a + v);
        run(&Engine::sequential(), &mut s, &p, 1e-3, 20);
        let mom1 = s.velocities.iter().fold(Vec3::ZERO, |a, &v| a + v);
        assert!(((mom1 - mom0).norm2()).sqrt() < 1e-9);
    }

    #[test]
    fn kinetic_energy_nonnegative_and_matches_velocities() {
        let (s, _) = quiet_system();
        let ke = kinetic_energy(&s);
        assert!(ke >= 0.0);
        let by_hand: f64 = 0.5 * s.velocities.iter().map(|v| v.norm2()).sum::<f64>();
        assert_eq!(ke, by_hand);
    }

    #[test]
    #[should_panic(expected = "time step")]
    fn zero_dt_panics() {
        let (mut s, p) = quiet_system();
        step(&Engine::sequential(), &mut s, &p, 0.0);
    }
}
