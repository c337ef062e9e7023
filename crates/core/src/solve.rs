//! Inverse solvers: work backwards from a target speedup.
//!
//! §3.1 of the paper: *"a better approach would be to treat `throughput_proc`
//! as an independent variable and select a desired speedup value. Then one can
//! solve for the particular `throughput_proc` value required to achieve that
//! desired speedup. This method provides the user with insight into the
//! relative amount of parallelism that must be incorporated for a design to
//! succeed."* The molecular-dynamics case study used exactly this: its
//! `throughput_proc = 50` is the value these equations return for a ~10x goal.
//!
//! Each solver holds every parameter fixed except one, and reports
//! [`RatError::Infeasible`] when no value of that parameter can reach the
//! target (e.g. communication alone exceeds the time budget).
//!
//! ```
//! use rat_core::quantity::{Freq, Seconds, Throughput};
//! use rat_core::solve;
//!
//! // The MD case study's tuning: what ops/cycle does ~10x demand?
//! let input = rat_core::params::RatInput {
//!     name: "MD".into(),
//!     dataset: rat_core::params::DatasetParams {
//!         elements_in: 16384, elements_out: 16384, bytes_per_element: 36,
//!     },
//!     comm: rat_core::params::CommParams {
//!         ideal_bandwidth: Throughput::from_mbytes_per_sec(500.0),
//!         alpha_write: 0.9, alpha_read: 0.9,
//!     },
//!     comp: rat_core::params::CompParams {
//!         ops_per_element: 164_000.0, throughput_proc: 1.0, fclock: Freq::from_mhz(100.0),
//!     },
//!     software: rat_core::params::SoftwareParams { t_soft: Seconds::new(5.78), iterations: 1 },
//!     buffering: rat_core::params::Buffering::Single,
//! };
//! let needed = solve::required_throughput_proc(&input, 10.7).unwrap();
//! assert!((needed - 50.0).abs() < 0.5); // the paper's Table-8 value
//! ```

pub mod batch;

use crate::error::RatError;
use crate::params::{Buffering, RatInput};
use crate::quantity::{Freq, Seconds};
use crate::throughput;

/// Per-iteration execution-time budget implied by a target speedup.
fn iter_budget(input: &RatInput, target_speedup: f64) -> Result<Seconds, RatError> {
    if !(target_speedup.is_finite() && target_speedup > 0.0) {
        return Err(RatError::param(format!(
            "target speedup must be positive, got {target_speedup}"
        )));
    }
    Ok(input.software.t_soft / target_speedup / input.software.iterations as f64)
}

/// The computation-time budget left after communication (`comm` per
/// iteration), under the input's buffering discipline.
fn comp_budget(input: &RatInput, target_speedup: f64, comm: Seconds) -> Result<Seconds, RatError> {
    let budget = iter_budget(input, target_speedup)?;
    let available = match input.buffering {
        // Serial: computation gets what communication leaves over.
        Buffering::Single => budget - comm,
        // Overlapped: computation may use the whole budget, but the budget must
        // still cover communication (the channel is the floor).
        Buffering::Double => {
            if comm > budget {
                Seconds::new(-1.0)
            } else {
                budget
            }
        }
    };
    if available <= Seconds::ZERO {
        return Err(RatError::infeasible(format!(
            "communication alone ({:.3e} s/iter) exceeds the per-iteration budget \
             ({:.3e} s) for a {target_speedup}x speedup; no computation rate can help",
            comm.seconds(),
            budget.seconds()
        )));
    }
    Ok(available)
}

/// Solve for the `throughput_proc` (ops/cycle) required to reach
/// `target_speedup`, holding everything else fixed.
pub fn required_throughput_proc(input: &RatInput, target_speedup: f64) -> Result<f64, RatError> {
    let _span = crate::telemetry::span("solve.throughput_proc");
    input.validate()?;
    let budget = comp_budget(input, target_speedup, throughput::t_comm(input))?;
    let total_ops = input.dataset.elements_in as f64 * input.comp.ops_per_element;
    Ok(total_ops / (input.comp.fclock * budget))
}

/// Solve for the clock frequency required to reach `target_speedup`, holding
/// everything else fixed.
pub fn required_fclock(input: &RatInput, target_speedup: f64) -> Result<Freq, RatError> {
    let _span = crate::telemetry::span("solve.fclock");
    input.validate()?;
    let budget = comp_budget(input, target_speedup, throughput::t_comm(input))?;
    let total_ops = input.dataset.elements_in as f64 * input.comp.ops_per_element;
    Ok(Freq::from_hz(
        total_ops / (input.comp.throughput_proc * budget.seconds()),
    ))
}

/// Solve for the common factor by which *both* alphas must improve to reach
/// `target_speedup` (useful when the interconnect, not the kernel, is the
/// bottleneck). Returns the factor `k` such that scaling `alpha_write` and
/// `alpha_read` by `k` meets the target; errors if computation alone already
/// exceeds the budget (no interconnect can help), and notes when `k > 1/alpha`
/// would push an alpha past 1 (physically unreachable).
pub fn required_alpha_scale(input: &RatInput, target_speedup: f64) -> Result<f64, RatError> {
    let _span = crate::telemetry::span("solve.alpha");
    input.validate()?;
    let comm = throughput::t_comm(input);
    let comp = throughput::t_comp(input);
    let budget = iter_budget(input, target_speedup)?;
    let comm_budget = match input.buffering {
        Buffering::Single => budget - comp,
        Buffering::Double => {
            if comp > budget {
                Seconds::new(-1.0)
            } else {
                budget
            }
        }
    };
    if comm_budget <= Seconds::ZERO {
        return Err(RatError::infeasible(format!(
            "computation alone ({:.3e} s/iter) exceeds the per-iteration budget \
             ({:.3e} s); improving the interconnect cannot reach {target_speedup}x",
            comp.seconds(),
            budget.seconds()
        )));
    }
    // t_comm scales as 1/k, so k = t_comm / budget.
    let k = comm / comm_budget;
    let max_alpha = input.comm.alpha_write.max(input.comm.alpha_read);
    if k > 1.0 && k * max_alpha > 1.0 {
        return Err(RatError::infeasible(format!(
            "reaching {target_speedup}x needs alphas scaled by {k:.2}, pushing \
             alpha past 1.0 — beyond the interconnect's documented peak"
        )));
    }
    Ok(k.max(0.0))
}

/// The speedup ceiling as computation becomes infinitely fast: the
/// communication-bound limit `t_soft / (N_iter * t_comm)`. The paper's
/// observation that the channel is "only a single resource" makes this the
/// hard wall of any design on the platform.
pub fn max_speedup(input: &RatInput) -> Result<f64, RatError> {
    let _span = crate::telemetry::span("solve.ceiling");
    input.validate()?;
    Ok(max_speedup_with(input, throughput::t_comm(input)))
}

/// The ceiling arithmetic of [`max_speedup`] on a validated input and its
/// per-iteration `t_comm`, opening no span: the report and inverse-quad
/// paths call it once per request, and `rat serve` runs with the span
/// collector on.
pub(crate) fn max_speedup_with(input: &RatInput, comm: Seconds) -> f64 {
    input.software.t_soft / (input.software.iterations as f64 * comm)
}

/// Validate `input` and return its predicted speedup — nothing else.
///
/// This is the scalar fast path for hot loops (Monte-Carlo sampling, corner
/// enumeration, dense sweeps) that would otherwise build and immediately
/// discard a full `Report` per point: the same `validate()` gate and the same
/// Eq. (7) arithmetic as the report pipeline, with no allocation at all.
pub fn speedup_only(input: &RatInput) -> Result<f64, RatError> {
    input.validate()?;
    Ok(throughput::speedup(input))
}

/// The four inverse answers a `solve` request renders: required
/// `throughput_proc`, required `f_clock`, required alpha scale, and the
/// communication-bound speedup ceiling. Each sub-solve carries its own
/// feasibility verdict so a renderer can show partial infeasibility inline.
#[derive(Debug, Clone)]
pub struct InverseQuad {
    /// `required_throughput_proc` for the target.
    pub throughput_proc: Result<f64, RatError>,
    /// `required_fclock` for the target.
    pub fclock: Result<Freq, RatError>,
    /// `required_alpha_scale` for the target.
    pub alpha_scale: Result<f64, RatError>,
    /// The communication-bound ceiling of [`max_speedup`] —
    /// target-independent, but carried per quad so one struct is the
    /// complete answer.
    pub ceiling: Result<f64, RatError>,
}

/// Evaluate all four inverse solves for one `(input, target)` pair by the
/// scalar public solvers.
pub fn inverse_quad(input: &RatInput, target_speedup: f64) -> InverseQuad {
    InverseQuad {
        throughput_proc: required_throughput_proc(input, target_speedup),
        fclock: required_fclock(input, target_speedup),
        alpha_scale: required_alpha_scale(input, target_speedup),
        ceiling: input
            .validate()
            .map(|()| max_speedup_with(input, throughput::t_comm(input))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{
        pdf1d_example, Buffering, CommParams, CompParams, DatasetParams, RatInput, SoftwareParams,
    };
    use crate::quantity::Throughput;

    /// The MD case study's Table 8 input, with `throughput_proc` as the unknown.
    fn md_input() -> RatInput {
        RatInput {
            name: "MD".into(),
            dataset: DatasetParams {
                elements_in: 16384,
                elements_out: 16384,
                bytes_per_element: 36,
            },
            comm: CommParams {
                ideal_bandwidth: Throughput::from_mbytes_per_sec(500.0),
                alpha_write: 0.9,
                alpha_read: 0.9,
            },
            comp: CompParams {
                ops_per_element: 164000.0,
                throughput_proc: 50.0,
                fclock: Freq::from_mhz(100.0),
            },
            software: SoftwareParams {
                t_soft: Seconds::new(5.78),
                iterations: 1,
            },
            buffering: Buffering::Single,
        }
    }

    #[test]
    fn md_paper_tuning_recovers_50_ops_per_cycle() {
        // §5.2: "50 is the quantitative value computed by the equations to
        // achieve the desired overall speedup of approximately 10x."
        let req = required_throughput_proc(&md_input(), 10.7).unwrap();
        assert!(
            (req - 50.0).abs() < 1.0,
            "required throughput_proc {req:.1} should be ~50 for the ~10x goal"
        );
    }

    #[test]
    fn solver_round_trips_with_forward_equations() {
        let input = pdf1d_example();
        let target = 8.0;
        let req = required_throughput_proc(&input, target).unwrap();
        let mut tuned = input.clone();
        tuned.comp.throughput_proc = req;
        let achieved = throughput::speedup(&tuned);
        assert!(
            (achieved - target).abs() / target < 1e-9,
            "achieved {achieved}, wanted {target}"
        );
    }

    #[test]
    fn fclock_solver_round_trips() {
        let input = pdf1d_example();
        let target = 9.0;
        let req = required_fclock(&input, target).unwrap();
        let mut tuned = input.clone();
        tuned.comp.fclock = req;
        assert!((throughput::speedup(&tuned) - target).abs() / target < 1e-9);
    }

    #[test]
    fn alpha_solver_round_trips() {
        // Make a comm-heavy variant so the alpha budget is the binding one.
        let mut input = pdf1d_example();
        input.dataset.elements_out = 512;
        input.comm.alpha_read = 0.05;
        let target = 6.0;
        let k = required_alpha_scale(&input, target).unwrap();
        let mut tuned = input.clone();
        tuned.comm.alpha_write *= k;
        tuned.comm.alpha_read *= k;
        assert!((throughput::speedup(&tuned) - target).abs() / target < 1e-9);
    }

    #[test]
    fn infeasible_when_comm_exceeds_budget() {
        let input = pdf1d_example();
        // t_comm = 5.56e-6/iter; budget for 300x = 0.578/300/400 = 4.8e-6 < t_comm.
        let err = required_throughput_proc(&input, 300.0).unwrap_err();
        assert!(matches!(err, RatError::Infeasible(_)), "got {err:?}");
    }

    #[test]
    fn max_speedup_is_the_comm_bound_wall() {
        let input = pdf1d_example();
        let wall = max_speedup(&input).unwrap();
        // 0.578 / (400 * 5.56e-6) ~ 260x.
        assert!((255.0..265.0).contains(&wall), "wall = {wall}");
        // Any feasible target below the wall solves; above it, errors.
        assert!(required_throughput_proc(&input, wall * 0.99).is_ok());
        assert!(required_throughput_proc(&input, wall * 1.01).is_err());
    }

    #[test]
    fn double_buffering_gets_the_full_budget() {
        let input = pdf1d_example();
        let sb = required_throughput_proc(&input, 10.0).unwrap();
        let db = required_throughput_proc(&input.with_buffering(Buffering::Double), 10.0).unwrap();
        assert!(
            db < sb,
            "overlap should lower the required compute rate (db {db:.1} vs sb {sb:.1})"
        );
    }

    #[test]
    fn alpha_solver_infeasible_when_compute_dominates() {
        let input = md_input(); // compute >> comm
        let err = required_alpha_scale(&input, 50.0).unwrap_err();
        assert!(matches!(err, RatError::Infeasible(_)));
    }

    #[test]
    fn alpha_solver_rejects_superunity_alpha() {
        // Needs a big comm improvement but alpha_write is already 0.9.
        let mut input = md_input();
        input.comp.throughput_proc = 1e9; // compute ~free
        input.software.t_soft = 2.0 * throughput::t_comm(&input); // budget = half of comm for 2x...
        let err = required_alpha_scale(&input, 4.0).unwrap_err();
        assert!(matches!(err, RatError::Infeasible(_)));
    }

    #[test]
    fn nonpositive_target_rejected() {
        let input = pdf1d_example();
        assert!(required_throughput_proc(&input, 0.0).is_err());
        assert!(required_fclock(&input, -2.0).is_err());
        assert!(required_alpha_scale(&input, f64::NAN).is_err());
    }

    #[test]
    fn speedup_only_matches_the_report_pipeline() {
        let input = pdf1d_example();
        let fast = speedup_only(&input).unwrap();
        let full = crate::worksheet::Worksheet::new(input.clone())
            .analyze()
            .unwrap();
        assert_eq!(fast, full.speedup, "scalar path must be bit-identical");
        // And it validates: an out-of-domain alpha errors, not NaNs.
        let mut bad = input;
        bad.comm.alpha_write = 1.5;
        assert!(speedup_only(&bad).is_err());
    }

    #[test]
    fn sub_unity_speedup_targets_are_legal() {
        // The embedded community may only want parity (speedup ~1, §1).
        let input = pdf1d_example();
        let req = required_throughput_proc(&input, 1.0).unwrap();
        assert!(req < input.comp.throughput_proc);
    }
}
