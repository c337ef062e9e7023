//! The four shipped case studies as one table, shared by `rat trace` and
//! `/v1/simulate`: the accepted names, the design each name simulates, its
//! tuned clock, its software time, and the one accepted clock band.

use fpga_sim::cache::{SimCache, SimSummary};
use fpga_sim::platform::Measurement;
use rat_core::RatError;

/// The highest clock a simulation may run at, in MHz. The simulator counts
/// picoseconds, so past 1 THz a cycle rounds to zero.
const MAX_MHZ: f64 = 1.0e6;

/// One of the shipped case-study designs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseStudy {
    /// 1-D Parzen-window PDF estimation (§4).
    Pdf1d,
    /// 2-D Parzen-window PDF estimation (§5.1).
    Pdf2d,
    /// Molecular dynamics at paper scale, analytic neighbour count (§5.2).
    Md,
    /// Bitonic sorting (§3.1's negative result).
    Sort,
}

impl CaseStudy {
    /// Look a case study up by name; the error lists the accepted names.
    pub fn find(name: &str) -> Result<Self, String> {
        match name {
            "pdf1d" => Ok(CaseStudy::Pdf1d),
            "pdf2d" => Ok(CaseStudy::Pdf2d),
            "md" => Ok(CaseStudy::Md),
            "sort" => Ok(CaseStudy::Sort),
            other => Err(format!(
                "unknown case study '{other}' (pdf1d|pdf2d|md|sort)"
            )),
        }
    }

    /// The clock the design was tuned at, in MHz.
    pub fn default_mhz(self) -> f64 {
        match self {
            CaseStudy::Md => 100.0,
            _ => 150.0,
        }
    }

    /// The software baseline's execution time in seconds.
    pub fn t_soft(self) -> f64 {
        match self {
            CaseStudy::Pdf1d => crate::pdf::pdf1d::T_SOFT,
            CaseStudy::Pdf2d => crate::pdf::pdf2d::T_SOFT,
            CaseStudy::Md => crate::md::rat::T_SOFT,
            CaseStudy::Sort => crate::sort::rat::T_SOFT,
        }
    }

    /// Simulate the design at `mhz` with its full trace.
    pub fn simulate(self, mhz: f64) -> Result<Measurement, RatError> {
        let hz = clock_hz(mhz)?;
        Ok(match self {
            CaseStudy::Pdf1d => crate::pdf::pdf1d::design().try_simulate(hz),
            CaseStudy::Pdf2d => crate::pdf::pdf2d::design().try_simulate(hz),
            CaseStudy::Md => crate::md::hw::MdDesign::paper_scale_analytic().try_simulate(hz),
            CaseStudy::Sort => crate::sort::rat::design().try_simulate(hz),
        }?)
    }

    /// Simulate the design at `mhz`, trace-free and memoized through `cache`.
    pub fn simulate_summary(
        self,
        mhz: f64,
        cache: Option<&SimCache>,
    ) -> Result<SimSummary, RatError> {
        let hz = clock_hz(mhz)?;
        Ok(match self {
            CaseStudy::Pdf1d => crate::pdf::pdf1d::design().simulate_summary(hz, cache),
            CaseStudy::Pdf2d => crate::pdf::pdf2d::design().simulate_summary(hz, cache),
            CaseStudy::Md => {
                crate::md::hw::MdDesign::paper_scale_analytic().simulate_summary(hz, cache)
            }
            CaseStudy::Sort => crate::sort::rat::design().simulate_summary(hz, cache),
        })
    }
}

/// `mhz` in Hz, or a simulation-class error outside the band (0, [`MAX_MHZ`]].
fn clock_hz(mhz: f64) -> Result<f64, RatError> {
    if mhz.is_finite() && mhz > 0.0 && mhz <= MAX_MHZ {
        Ok(mhz * 1.0e6)
    } else {
        Err(RatError::simulation(format!(
            "clock must be a positive frequency in (0, {MAX_MHZ:e}] MHz, got {mhz}"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_names_list_the_choices() {
        for name in ["pdf1d", "pdf2d", "md", "sort"] {
            assert!(CaseStudy::find(name).is_ok(), "{name}");
        }
        let err = CaseStudy::find("warp").unwrap_err();
        assert!(err.contains("pdf1d|pdf2d|md|sort"), "{err}");
    }

    #[test]
    fn clocks_outside_the_band_are_simulation_errors() {
        for mhz in [0.0, -1.0, 1.0e9, f64::NAN, f64::INFINITY] {
            let err = CaseStudy::Sort.simulate_summary(mhz, None).unwrap_err();
            assert!(matches!(err, RatError::Simulation(_)), "{mhz}: {err}");
            assert!(CaseStudy::Sort.simulate(mhz).is_err(), "{mhz}");
        }
        assert!(CaseStudy::Sort.simulate_summary(MAX_MHZ, None).is_ok());
    }
}
