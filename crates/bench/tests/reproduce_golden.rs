//! Golden tests for `rat reproduce table2..table10`.
//!
//! Two kinds of pin:
//!
//! - **Predicted columns** (the RAT worksheet's outputs) must agree with the
//!   paper's printed values to the paper's own precision — 3 significant
//!   figures for the scientific-notation rows, one decimal for the speedup
//!   row — allowing one unit in the last printed digit for rounding skew.
//! - **"Actual" columns** (the cycle simulator's measurements) must land
//!   inside the calibration bands documented in DESIGN.md §5; the simulator
//!   is calibrated to the paper's measurements, not forced to them, so these
//!   are bands rather than exact pins.
//!
//! The warm-cache test covers the acceptance criterion that a second
//! `reproduce all` in the same process re-simulates nothing: >50% cache hits
//! with byte-identical output.

use std::sync::Mutex;

use fpga_sim::SimCache;
use rat_bench::paper;

/// Tests here share the process-global simulator cache; serialize the ones
/// that read or reset its statistics.
static CACHE_LOCK: Mutex<()> = Mutex::new(());

fn body(id: &str) -> String {
    rat_bench::artifact(id, true)
        .unwrap_or_else(|| panic!("unknown artifact {id}"))
        .body
}

/// Parse the numeric columns of a table row. The label may contain spaces, so
/// scan tokens and keep everything that parses as f64 (percent cells parse
/// after stripping the `%`).
fn row_values(table: &str, label: &str) -> Vec<f64> {
    let line = table
        .lines()
        .find(|l| l.starts_with(label))
        .unwrap_or_else(|| panic!("row '{label}' missing from:\n{table}"));
    line.split_whitespace()
        .filter_map(|tok| tok.trim_end_matches('%').parse::<f64>().ok())
        .collect()
}

/// `ours` agrees with the paper's `printed` value to the paper's precision:
/// within one unit in the last printed digit (`sig_figs` significant
/// figures), with 5% slack on that unit for re-rounding.
fn assert_matches_printed(ours: f64, printed: f64, sig_figs: i32, what: &str) {
    let ulp = 10f64.powi(printed.abs().log10().floor() as i32 - (sig_figs - 1));
    assert!(
        (ours - printed).abs() <= 1.05 * ulp,
        "{what}: ours {ours} vs paper {printed} (allowed ±{ulp:.3e})"
    );
}

/// Check one performance table's predicted columns against the paper's three
/// printed prediction columns.
fn check_predicted(table: &str, predicted: &[paper::PerfColumn; 3]) {
    let t_comm = row_values(table, "t_comm");
    let t_comp = row_values(table, "t_comp");
    let t_rc = row_values(table, "t_RC_SB");
    let speedup = row_values(table, "speedup");
    for (i, col) in predicted.iter().enumerate() {
        let mhz = col.fclock / 1e6;
        assert_matches_printed(t_comm[i], col.t_comm, 3, &format!("t_comm @{mhz} MHz"));
        assert_matches_printed(t_comp[i], col.t_comp, 3, &format!("t_comp @{mhz} MHz"));
        assert_matches_printed(t_rc[i], col.t_rc, 3, &format!("t_RC @{mhz} MHz"));
        // The speedup row prints one decimal place.
        assert!(
            (speedup[i] - col.speedup).abs() <= 0.105,
            "speedup @{mhz} MHz: ours {} vs paper {}",
            speedup[i],
            col.speedup
        );
    }
}

/// The simulated-actual cell sits second from the right in every row.
fn sim_actual(table: &str, label: &str) -> f64 {
    let vals = row_values(table, label);
    vals[vals.len() - 2]
}

#[test]
fn table2_pins_the_1d_pdf_worksheet_inputs() {
    let t = body("table2");
    for (param, value) in [
        ("N_elements, input", "512"),
        ("N_ops/element", "768"),
        ("throughput_proc (ops/cycle)", "20"),
        ("alpha_write", "0.37"),
        ("alpha_read", "0.16"),
        ("t_soft (sec)", "0.578"),
        ("N_iter (iterations)", "400"),
    ] {
        let line = t
            .lines()
            .find(|l| l.starts_with(param))
            .unwrap_or_else(|| panic!("{param}"));
        assert!(line.ends_with(value), "{param}: want {value}, got '{line}'");
    }
}

#[test]
fn table5_pins_the_2d_pdf_worksheet_inputs() {
    let t = body("table5");
    for (param, value) in [
        ("N_elements, input", "1024"),
        ("N_elements, output", "65536"),
        ("throughput_proc (ops/cycle)", "48"),
        ("t_soft (sec)", "158.8"),
        ("N_iter (iterations)", "400"),
    ] {
        let line = t
            .lines()
            .find(|l| l.starts_with(param))
            .unwrap_or_else(|| panic!("{param}"));
        assert!(line.ends_with(value), "{param}: want {value}, got '{line}'");
    }
}

#[test]
fn table8_pins_the_md_worksheet_inputs() {
    let t = body("table8");
    for (param, value) in [
        ("N_elements, input", "16384"),
        ("N_ops/element", "164000"),
        ("throughput_proc (ops/cycle)", "50"),
        ("t_soft (sec)", "5.78"),
        ("N_iter (iterations)", "1"),
    ] {
        let line = t
            .lines()
            .find(|l| l.starts_with(param))
            .unwrap_or_else(|| panic!("{param}"));
        assert!(line.ends_with(value), "{param}: want {value}, got '{line}'");
    }
}

#[test]
fn table3_predicted_matches_paper_and_actual_is_in_band() {
    let _g = CACHE_LOCK.lock().unwrap();
    let t = body("table3");
    check_predicted(&t, &paper::TABLE3_PREDICTED);

    // DESIGN.md §5 bands for the simulated 150 MHz actual column.
    let t_comm = sim_actual(&t, "t_comm");
    let t_comp = sim_actual(&t, "t_comp");
    let t_rc = sim_actual(&t, "t_RC_SB");
    let speedup = sim_actual(&t, "speedup");
    assert!((t_comm - 2.50e-5).abs() / 2.50e-5 < 0.10, "t_comm {t_comm}");
    assert!((t_comp - 1.39e-4).abs() / 1.39e-4 < 0.03, "t_comp {t_comp}");
    assert!((t_rc - 7.45e-2).abs() / 7.45e-2 < 0.05, "t_RC {t_rc}");
    assert!((7.4..=8.2).contains(&speedup), "speedup {speedup}");
}

#[test]
fn table6_predicted_matches_paper_and_actual_reproduces_the_prose() {
    let _g = CACHE_LOCK.lock().unwrap();
    let t = body("table6");
    check_predicted(&t, &paper::TABLE6_PREDICTED);

    // §5.1 prose: measured communication ~6x the 1.65e-3 prediction (band
    // 5.4x-6.6x), ~19% communication utilization (band 17-21%), speedup
    // around 7.6 (band 7.0-8.0).
    let t_comm = sim_actual(&t, "t_comm");
    let util = sim_actual(&t, "util_comm_SB") / 100.0;
    let speedup = sim_actual(&t, "speedup");
    let ratio = t_comm / 1.65e-3;
    assert!((5.4..=6.6).contains(&ratio), "comm inflation {ratio}");
    assert!((0.17..=0.21).contains(&util), "util_comm {util}");
    assert!((7.0..=8.0).contains(&speedup), "speedup {speedup}");
}

#[test]
fn table9_predicted_matches_paper_and_actual_is_in_band() {
    let _g = CACHE_LOCK.lock().unwrap();
    let t = body("table9");
    check_predicted(&t, &paper::TABLE9_PREDICTED);

    // DESIGN.md §5: measured MD speedup 6.6 +/- 0.15; the data-dependent
    // workload lands within 1% of the worksheet's 164,000 ops/molecule.
    let speedup = sim_actual(&t, "speedup");
    assert!((speedup - 6.6).abs() <= 0.15, "speedup {speedup}");
    let ops_line = t
        .lines()
        .find(|l| l.contains("ops/molecule"))
        .expect("workload note");
    let ops: f64 = ops_line
        .split_whitespace()
        .find_map(|tok| tok.parse::<f64>().ok().filter(|v| *v > 1e5))
        .expect("measured ops/molecule");
    assert!(
        (ops - 164_000.0).abs() / 164_000.0 < 0.01,
        "ops/molecule {ops}"
    );
}

#[test]
fn resource_tables_pin_their_legible_paper_rows() {
    let t4 = body("table4");
    assert!(t4.contains("LX100"), "{t4}");
    assert!(t4.contains("BRAMs"), "{t4}");
    let t7 = body("table7");
    assert!(t7.contains("LX100"), "{t7}");
    assert!(t7.contains("21%"), "Table 7's legible slice row:\n{t7}");
    let t10 = body("table10");
    assert!(t10.contains("EP2S180"), "{t10}");
    // paper::TABLE10_DSP_SATURATED documents why 100% is the pin here.
    assert!(t10.contains("100%"), "Table 10's saturated DSP row:\n{t10}");
}

/// Acceptance criterion: a warm second `reproduce all` hits the simulator
/// cache for more than half its lookups and produces identical artifacts.
#[test]
fn warm_reproduce_all_mostly_hits_the_cache_with_identical_output() {
    let _g = CACHE_LOCK.lock().unwrap();
    let cache = SimCache::global();
    let first = rat_bench::all_artifacts(true);
    cache.reset_stats();
    let second = rat_bench::all_artifacts(true);
    let stats = cache.stats();
    assert!(
        stats.hits + stats.misses > 0,
        "reproduce all must consult the simulator cache"
    );
    assert!(
        stats.hit_rate() > 0.5,
        "warm run should mostly hit: {} hits, {} misses",
        stats.hits,
        stats.misses
    );
    assert_eq!(first, second, "warm run must not change any artifact");
}

/// Satellite pin for the typed-quantity refactor: the full `reproduce all`
/// output must be byte-identical to the fixture captured before the refactor.
/// Replicates the CLI's rendering exactly — one `==== id — title ====` banner
/// per artifact plus the final newline `println!` appends. Runs in both
/// profiles: the full-scale MD count costs a few seconds in a debug build.
#[test]
fn reproduce_all_matches_golden_fixture() {
    let _g = CACHE_LOCK.lock().unwrap();
    let golden = include_str!("golden/reproduce_all.txt");
    let mut out = String::new();
    for a in rat_bench::all_artifacts(false) {
        out.push_str(&format!("==== {} — {} ====\n{}\n", a.id, a.title, a.body));
    }
    out.push('\n');
    if out != golden {
        let diverge = out
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .map(|i| {
                format!(
                    "first divergence at line {}:\n  ours:   {:?}\n  golden: {:?}",
                    i + 1,
                    out.lines().nth(i).unwrap_or(""),
                    golden.lines().nth(i).unwrap_or("")
                )
            })
            .unwrap_or_else(|| {
                format!(
                    "line-identical prefix; lengths differ ({} vs {} bytes)",
                    out.len(),
                    golden.len()
                )
            });
        panic!("reproduce all drifted from the golden fixture; {diverge}");
    }
}
