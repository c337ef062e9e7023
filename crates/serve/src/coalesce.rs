//! A pass-through solve stub, kept only for the benchmark crate.
//!
//! The cross-request solve coalescer that lived here formed no batch of two
//! or more on the fresh-request serve workload, and cached serve traffic
//! never reaches compute, so it was deleted (DESIGN.md §18). `rat serve`
//! computes every route, solve included, through [`crate::api::handle`].

use rat_core::params::RatInput;
use rat_core::solve::{inverse_quad, InverseQuad};

/// Evaluates one inverse solve directly.
///
/// This type exists only because the `ratperf` benchmark crate links it,
/// and benchmark files stay fixed between benchmark changes. Nothing in
/// `rat-serve` uses it; it goes at the next benchmark change.
#[derive(Default)]
pub struct Coalescer;

impl Coalescer {
    /// [`inverse_quad`] for `(input, target)`.
    pub fn solve(&self, input: &RatInput, target: f64) -> InverseQuad {
        inverse_quad(input, target)
    }
}
