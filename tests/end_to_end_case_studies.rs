//! End-to-end validation of all three case studies: RAT predictions
//! (rat-core) against simulated platform executions (fpga-sim) of the
//! application designs (rat-apps), held to the paper's published bands.

use rat::apps::{md, pdf1d, pdf2d};
use rat::core::quantity::Freq;
use rat::core::worksheet::Worksheet;

/// Table 3's full shape: predicted 5.4/7.2/10.6 across clocks, measured 7.8 at
/// 150 MHz, communication the dominant error.
#[test]
fn pdf1d_prediction_vs_measurement() {
    let reports = Worksheet::new(pdf1d::rat_input(150.0e6))
        .analyze_clocks(&[75.0, 100.0, 150.0].map(Freq::from_mhz))
        .unwrap();
    let speedups: Vec<f64> = reports.iter().map(|r| r.speedup).collect();
    assert!((speedups[0] - 5.4).abs() < 0.06);
    assert!((speedups[2] - 10.6).abs() < 0.06);

    let m = pdf1d::design().simulate(150.0e6);
    let measured = pdf1d::T_SOFT / m.total.as_secs_f64();
    assert!((measured - 7.8).abs() < 0.3, "measured speedup {measured}");

    // Who wins and why: prediction optimistic, driven by comm error.
    let p150 = &reports[2];
    assert!(p150.speedup > measured);
    let comm_ratio = m.comm_per_iter().as_secs_f64() / p150.throughput.t_comm.seconds();
    assert!(
        (3.5..5.5).contains(&comm_ratio),
        "comm miss {comm_ratio:.2}x (paper: ~4.5x)"
    );
    let comp_ratio = m.comp_per_iter().as_secs_f64() / p150.throughput.t_comp.seconds();
    assert!(
        (0.95..1.15).contains(&comp_ratio),
        "comp miss {comp_ratio:.2}x (paper: ~1.06x)"
    );
}

/// Table 6's shape: predicted 3.5/4.6/6.9; measured communication ~6x the
/// prediction at 19% utilization; computation overestimated; net prediction
/// error smaller than the 1-D case's.
#[test]
fn pdf2d_prediction_vs_measurement() {
    let predicted = Worksheet::new(pdf2d::rat_input(150.0e6)).analyze().unwrap();
    assert!((predicted.speedup - 6.9).abs() < 0.06);

    let m = pdf2d::design().simulate(150.0e6);
    let comm = m.comm_per_iter().as_secs_f64();
    let comp = m.comp_per_iter().as_secs_f64();
    let comm_miss = comm / predicted.throughput.t_comm.seconds();
    assert!(
        (5.4..6.6).contains(&comm_miss),
        "comm miss {comm_miss:.2}x (paper: 6x)"
    );
    assert!(
        comp < predicted.throughput.t_comp.seconds(),
        "computation was overestimated"
    );
    let util = comm / (comm + comp);
    assert!(
        (0.17..0.21).contains(&util),
        "measured util_comm {util:.3} (paper: 19%)"
    );

    let measured = pdf2d::T_SOFT / m.total.as_secs_f64();
    let err_2d = (predicted.speedup - measured).abs() / measured;
    let err_1d = (10.6 - 7.8f64).abs() / 7.8;
    assert!(
        err_2d < err_1d,
        "2-D error {err_2d:.3} must beat 1-D's {err_1d:.3}"
    );
}

/// The paper's cross-study observation: 2-D is "more amenable" (1000x the
/// parallel work) yet delivers less measured speedup than 1-D on this
/// platform, because its communication demand grew faster than the channel.
#[test]
fn two_d_loses_to_one_d_in_practice() {
    let m1 = pdf1d::design().simulate(150.0e6);
    let m2 = pdf2d::design().simulate(150.0e6);
    let s1 = pdf1d::T_SOFT / m1.total.as_secs_f64();
    let s2 = pdf2d::T_SOFT / m2.total.as_secs_f64();
    assert!(s2 < s1, "2-D measured {s2:.2}x should trail 1-D's {s1:.2}x");
    // And the mechanism: 2-D spends a larger share of its makespan on the
    // channel (19% vs ~14%), and its absolute per-iteration comm is ~400x.
    assert!(m2.channel_utilization() > m1.channel_utilization());
    assert!(
        m2.comm_per_iter().as_secs_f64() > 300.0 * m1.comm_per_iter().as_secs_f64(),
        "2-D comm/iter should dwarf 1-D's"
    );
}

/// Table 9's shape: predicted 8.0/10.7/16.0; measured 6.6 at 100 MHz with
/// computation (not communication) carrying the whole error.
#[test]
fn md_prediction_vs_measurement() {
    let reports = Worksheet::new(md::rat::rat_input(100.0e6))
        .analyze_clocks(&[75.0, 100.0, 150.0].map(Freq::from_mhz))
        .unwrap();
    let speedups: Vec<f64> = reports.iter().map(|r| r.speedup).collect();
    assert!((speedups[0] - 8.0).abs() < 0.06);
    assert!((speedups[1] - 10.7).abs() < 0.06);
    assert!((speedups[2] - 16.0).abs() < 0.06);

    let design = md::hw::MdDesign::paper_scale();
    // The data-dependent workload lands near the worksheet estimate.
    assert!(
        (design.ops_per_element() - 164_000.0).abs() / 164_000.0 < 0.02,
        "ops/molecule {}",
        design.ops_per_element()
    );

    let m = design.simulate(100.0e6);
    let measured = md::rat::T_SOFT / m.total.as_secs_f64();
    assert!(
        (measured - 6.6).abs() < 0.2,
        "measured speedup {measured} (paper: 6.6)"
    );
    // Computation dominates; write-back is streamed behind it.
    let comp = m.comp_per_iter().as_secs_f64();
    assert!(
        (comp - 8.79e-1).abs() / 8.79e-1 < 0.03,
        "t_comp {comp:.3e} (paper: 8.79e-1)"
    );
    let comm = m.comm_per_iter().as_secs_f64();
    assert!(
        (comm - 1.39e-3).abs() / 1.39e-3 < 0.05,
        "t_comm {comm:.3e} (paper: 1.39e-3)"
    );
    assert!(m.streamed_comm.as_secs_f64() > 0.0);
}

/// Full paper-scale MD with real neighbor counting (~4.8e7 distance checks;
/// a few seconds in a debug build). The counted workload is pinned exactly:
/// it feeds Table 9's "actual" column, so any drift in the count shows here.
#[test]
fn md_paper_scale_counted_matches_analytic() {
    let counted = md::hw::MdDesign::paper_scale();
    assert_eq!(counted.total_ops(), 2_686_858_036);
    assert_eq!(
        counted.mean_near_neighbors().to_bits(),
        2443.485107421875f64.to_bits()
    );
    let analytic = md::hw::MdDesign::paper_scale_analytic();
    let rel =
        (counted.ops_per_element() - analytic.ops_per_element()).abs() / analytic.ops_per_element();
    assert!(rel < 0.005, "counted vs analytic ops differ by {rel:.4}");
}

/// Cross-crate check of the fixed-point precision story on the real workload:
/// the paper's 18-bit choice passes a 3% budget, 10-bit busts it.
#[test]
fn precision_choice_holds_on_real_workload() {
    use rat::apps::pdf::fixed::precision_eval;
    use rat::apps::{datagen, pdf};
    use rat::fixed::QFormat;

    let samples = datagen::bimodal_samples(2048, 7);
    let bins = pdf::bin_centers();
    let e18 = precision_eval(
        QFormat::signed(0, 17).unwrap(),
        &samples,
        &bins,
        pdf::BANDWIDTH,
    );
    assert!(
        e18.within_rel_tolerance(0.03),
        "18-bit error {:.4}",
        e18.max_rel_error()
    );
    let e10 = precision_eval(
        QFormat::signed(0, 9).unwrap(),
        &samples,
        &bins,
        pdf::BANDWIDTH,
    );
    assert!(
        !e10.within_rel_tolerance(0.03),
        "10-bit error {:.4}",
        e10.max_rel_error()
    );
}
