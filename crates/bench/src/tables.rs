//! Renderers for the paper's ten tables.

use fpga_sim::cache::{SimCache, SimSummary};
use rat_apps::md;
use rat_apps::pdf::{pdf1d, pdf2d};
use rat_core::params::RatInput;
use rat_core::table::{pct, sci, TextTable};
use rat_core::utilization;
use rat_core::worksheet::Worksheet;

use crate::paper::{self, PerfColumn};

/// The three clock assumptions every case study is evaluated at.
pub const CLOCKS: [f64; 3] = [75.0e6, 100.0e6, 150.0e6];

/// Table 1: the RAT input-parameter template.
pub fn render_table1() -> String {
    let mut t = TextTable::new()
        .title("Table 1: Input parameters for RAT analysis")
        .header(["Parameter", "Unit"]);
    t.section("Dataset Parameters");
    t.row(["N_elements, input", "elements"]);
    t.row(["N_elements, output", "elements"]);
    t.row(["N_bytes/element", "bytes/element"]);
    t.section("Communication Parameters");
    t.row(["throughput_ideal", "MB/s"]);
    t.row(["alpha_write", "0 < a <= 1"]);
    t.row(["alpha_read", "0 < a <= 1"]);
    t.section("Computation Parameters");
    t.row(["N_ops/element", "ops/element"]);
    t.row(["throughput_proc", "ops/cycle"]);
    t.row(["f_clock", "MHz"]);
    t.section("Software Parameters");
    t.row(["t_soft", "sec"]);
    t.row(["N_iter", "iterations"]);
    t.render()
}

/// Render an input-parameter table (Tables 2/5/8 share the layout).
fn input_table(title: &str, input: &RatInput, clock_note: &str) -> String {
    let mut t = TextTable::new()
        .title(title.to_string())
        .header(["Parameter", "Value"]);
    t.section("Dataset Parameters");
    t.row([
        "N_elements, input".into(),
        input.dataset.elements_in.to_string(),
    ]);
    t.row([
        "N_elements, output".into(),
        input.dataset.elements_out.to_string(),
    ]);
    t.row([
        "N_bytes/element".into(),
        input.dataset.bytes_per_element.to_string(),
    ]);
    t.section("Communication Parameters");
    t.row([
        "throughput_ideal (MB/s)".into(),
        format!("{:.0}", input.comm.ideal_bandwidth.mbytes_per_sec()),
    ]);
    t.row(["alpha_write".into(), format!("{}", input.comm.alpha_write)]);
    t.row(["alpha_read".into(), format!("{}", input.comm.alpha_read)]);
    t.section("Computation Parameters");
    t.row([
        "N_ops/element".into(),
        format!("{}", input.comp.ops_per_element),
    ]);
    t.row([
        "throughput_proc (ops/cycle)".into(),
        format!("{}", input.comp.throughput_proc),
    ]);
    t.row(["f_clock (MHz)".into(), clock_note.to_string()]);
    t.section("Software Parameters");
    t.row([
        "t_soft (sec)".into(),
        format!("{}", input.software.t_soft.seconds()),
    ]);
    t.row([
        "N_iter (iterations)".into(),
        input.software.iterations.to_string(),
    ]);
    t.render()
}

/// Table 2: 1-D PDF inputs.
pub fn render_table2() -> String {
    input_table(
        "Table 2: Input parameters of 1-D PDF",
        &pdf1d::rat_input(150.0e6),
        "75/100/150",
    )
}

/// Table 5: 2-D PDF inputs.
pub fn render_table5() -> String {
    input_table(
        "Table 5: Input parameters of 2-D PDF (LX100)",
        &pdf2d::rat_input(150.0e6),
        "75/100/150",
    )
}

/// Table 8: MD inputs.
pub fn render_table8() -> String {
    let mut s = input_table(
        "Table 8: Input parameters of MD",
        &md::rat::rat_input(100.0e6),
        "75/100/150",
    );
    s.push_str("note: t_soft reconstructed from Table 9's predicted speedups (see paper module)\n");
    s
}

/// Measured utilization computed the way the paper computes it: the
/// single-buffered equations applied to *measured* per-iteration times.
fn measured_util_comm(m: &SimSummary) -> f64 {
    utilization::util_comm_single(
        m.comm_per_iter().as_seconds(),
        m.comp_per_iter().as_seconds(),
    )
}

/// Build a performance table (Tables 3/6/9 share the layout): predicted
/// columns at the three clocks, the simulated actual at `actual_clock`, and
/// the paper's printed/reconstructed values for comparison.
#[allow(clippy::too_many_arguments)] // internal table builder: args mirror the table's columns
fn perf_table(
    title: &str,
    input_at: impl Fn(f64) -> RatInput,
    simulate: impl Fn(f64) -> SimSummary,
    t_soft: f64,
    actual_clock: f64,
    paper_predicted: &[PerfColumn; 3],
    paper_actual: &PerfColumn,
    actual_note: &str,
) -> String {
    let reports: Vec<_> = CLOCKS
        .iter()
        .map(|&f| Worksheet::new(input_at(f)).analyze().expect("valid inputs"))
        .collect();
    let m = simulate(actual_clock);
    let mhz = |f: f64| format!("{:.0}", f / 1e6);

    let mut t = TextTable::new().title(title.to_string()).header([
        "Metric".to_string(),
        format!("Pred {}", mhz(CLOCKS[0])),
        format!("Pred {}", mhz(CLOCKS[1])),
        format!("Pred {}", mhz(CLOCKS[2])),
        format!("Sim actual {}", mhz(actual_clock)),
        format!("Paper actual {}", mhz(paper_actual.fclock)),
    ]);
    let sim_comm = m.comm_per_iter().as_secs_f64();
    let sim_comp = m.comp_per_iter().as_secs_f64();
    let sim_total = m.total.as_secs_f64();
    let row = |label: &str, pred: [f64; 3], sim: f64, pap: f64| {
        [
            label.to_string(),
            sci(pred[0]),
            sci(pred[1]),
            sci(pred[2]),
            sci(sim),
            sci(pap),
        ]
    };
    let p =
        |f: fn(&rat_core::report::Report) -> f64| [f(&reports[0]), f(&reports[1]), f(&reports[2])];
    t.row(row(
        "t_comm (sec)",
        p(|r| r.throughput.t_comm.seconds()),
        sim_comm,
        paper_actual.t_comm,
    ));
    t.row(row(
        "t_comp (sec)",
        p(|r| r.throughput.t_comp.seconds()),
        sim_comp,
        paper_actual.t_comp,
    ));
    t.row([
        "util_comm_SB".to_string(),
        pct(reports[0].throughput.util_comm),
        pct(reports[1].throughput.util_comm),
        pct(reports[2].throughput.util_comm),
        pct(measured_util_comm(&m)),
        paper_actual
            .util_comm
            .map(pct)
            .unwrap_or_else(|| "-".into()),
    ]);
    t.row(row(
        "t_RC_SB (sec)",
        p(|r| r.throughput.t_rc.seconds()),
        sim_total,
        paper_actual.t_rc,
    ));
    t.row([
        "speedup".to_string(),
        format!("{:.1}", reports[0].speedup),
        format!("{:.1}", reports[1].speedup),
        format!("{:.1}", reports[2].speedup),
        format!("{:.1}", t_soft / sim_total),
        format!("{:.1}", paper_actual.speedup),
    ]);
    let mut s = t.render();
    // Predicted-column agreement with the paper, as a one-line audit.
    let max_err = reports
        .iter()
        .zip(paper_predicted)
        .map(|(r, pc)| ((r.speedup - pc.speedup).abs() / pc.speedup * 100.0).ceil())
        .fold(0.0f64, f64::max);
    s.push_str(&format!(
        "predicted columns match the paper's within {max_err:.0}% (rounding); {actual_note}\n"
    ));
    s
}

/// Table 3: 1-D PDF predicted vs actual.
pub fn render_table3() -> String {
    perf_table(
        "Table 3: Performance parameters of 1-D PDF",
        pdf1d::rat_input,
        |f| pdf1d::design().simulate_summary(f, Some(SimCache::global())),
        paper::T_SOFT_PDF1D,
        150.0e6,
        &paper::TABLE3_PREDICTED,
        &paper::TABLE3_ACTUAL,
        "paper actual column printed in the paper",
    )
}

/// Table 6: 2-D PDF predicted vs actual.
pub fn render_table6() -> String {
    perf_table(
        "Table 6: Performance parameters of 2-D PDF",
        pdf2d::rat_input,
        |f| pdf2d::design().simulate_summary(f, Some(SimCache::global())),
        paper::T_SOFT_PDF2D,
        150.0e6,
        &paper::TABLE6_PREDICTED,
        &paper::TABLE6_ACTUAL_RECONSTRUCTED,
        "paper actual column RECONSTRUCTED from $5.1 prose (scan is OCR-damaged)",
    )
}

/// Table 9: MD predicted vs actual. `fast` replaces the 16,384-particle
/// neighbor count with its uniform-density expectation (sub-percent accurate).
pub fn render_table9(fast: bool) -> String {
    let design = if fast {
        md::hw::MdDesign::paper_scale_analytic()
    } else {
        md::hw::MdDesign::paper_scale()
    };
    let mut s = perf_table(
        "Table 9: Performance parameters of MD",
        md::rat::rat_input,
        |f| design.simulate_summary(f, Some(SimCache::global())),
        paper::T_SOFT_MD,
        100.0e6,
        &paper::TABLE9_PREDICTED,
        &paper::TABLE9_ACTUAL,
        "paper actual column printed in the paper",
    );
    s.push_str(&format!(
        "data-dependent workload: measured {:.0} ops/molecule (worksheet estimated 164000), \
         mean {:.0} near neighbors{}\n",
        design.ops_per_element(),
        design.mean_near_neighbors(),
        if fast { " [analytic fast path]" } else { "" },
    ));
    s
}

/// Table 4: 1-D PDF resource usage.
pub fn render_table4() -> String {
    let mut s = format!("Table 4: {}", pdf1d::design().resource_report().render());
    s.push_str(&format!(
        "paper's legible row: BRAMs {} (ours matches within 1 point); DSP/slice rows OCR-damaged\n",
        pct(paper::TABLE4_BRAM_UTIL)
    ));
    s
}

/// Table 7: 2-D PDF resource usage.
pub fn render_table7() -> String {
    let mut s = format!("Table 7: {}", pdf2d::design().resource_report().render());
    s.push_str(&format!(
        "paper's legible row: Slices {} (ours matches); DSP/BRAM rows OCR-damaged\n",
        pct(paper::TABLE7_SLICE_UTIL)
    ));
    s
}

/// Table 10: MD resource usage.
pub fn render_table10() -> String {
    let design = md::hw::MdDesign::paper_scale_analytic();
    let mut s = format!("Table 10: {}", design.resource_report().render());
    s.push_str(
        "paper's percentages OCR-damaged; $5.2 prose: large fractions of logic and DSPs, \
         parallelism limited by multiplier availability (DSPs saturated)\n",
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_lists_all_eleven_parameters() {
        let s = render_table1();
        assert_eq!(s.matches("Parameters --").count(), 4);
        for p in [
            "N_elements, input",
            "alpha_read",
            "throughput_proc",
            "N_iter",
        ] {
            assert!(s.contains(p), "missing {p}");
        }
    }

    #[test]
    fn table3_has_six_columns_and_correct_speedups() {
        let s = render_table3();
        assert!(s.contains("Pred 75"));
        assert!(s.contains("Sim actual 150"));
        assert!(s.contains("Paper actual 150"));
        assert!(s.contains("10.6"), "predicted 150 MHz speedup:\n{s}");
        assert!(s.contains("7.8"), "paper actual speedup:\n{s}");
    }

    #[test]
    fn table6_marks_reconstruction() {
        let s = render_table6();
        assert!(s.contains("RECONSTRUCTED"));
        assert!(s.contains("6.9"), "predicted speedup missing:\n{s}");
    }

    #[test]
    fn table9_fast_and_full_paths_agree() {
        // The analytic fast path must land on the worksheet's workload to <1%.
        // The counted path is pinned exactly (and against this one) by
        // `md_paper_scale_counted_matches_analytic` in the end-to-end suite,
        // and byte for byte by the `reproduce all` golden fixture.
        let analytic = md::hw::MdDesign::paper_scale_analytic();
        assert!(
            (analytic.ops_per_element() - 164_000.0).abs() / 164_000.0 < 0.01,
            "analytic ops/molecule {}",
            analytic.ops_per_element()
        );
        let s = render_table9(true);
        assert!(s.contains("analytic fast path"));
        assert!(s.contains("10.7"), "predicted 100 MHz speedup:\n{s}");
        assert!(s.contains("6.6"), "paper actual speedup:\n{s}");
    }

    #[test]
    fn resource_tables_name_their_devices() {
        assert!(render_table4().contains("LX100"));
        assert!(render_table7().contains("LX100"));
        assert!(render_table10().contains("EP2S180"));
    }

    #[test]
    fn table9_sim_actual_lands_near_paper_actual() {
        let s = render_table9(true);
        // The simulated actual speedup at 100 MHz should print 6.5-6.7
        // (paper: 6.6). Look for the speedup row containing both.
        let speedup_row = s.lines().find(|l| l.starts_with("speedup")).unwrap();
        let cols: Vec<&str> = speedup_row.split_whitespace().collect();
        let sim: f64 = cols[cols.len() - 2].parse().unwrap();
        assert!((sim - 6.6).abs() < 0.15, "simulated MD speedup {sim}");
    }
}
