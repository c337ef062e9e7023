//! The molecular-dynamics tuning story (paper §5.2).
//!
//! MD's per-molecule work is data-dependent, so `throughput_proc` cannot be
//! read off the algorithm. The paper inverts the problem: pick the desired
//! speedup (~10x), solve for the ops/cycle it demands, and let that number
//! tell the designer how much parallelism the architecture must deliver.
//!
//! ```sh
//! cargo run --release --example md_tuning
//! ```

use rat::apps::md;
use rat::core::solve;
use rat::core::worksheet::Worksheet;

fn main() {
    let input = md::rat::rat_input(100.0e6);

    // 1. Treat throughput_proc as the unknown: what does a 10x goal demand?
    println!("Inverse solve on the Table-8 worksheet (100 MHz):");
    for target in [2.0, 5.0, 10.7, 20.0, 50.0] {
        match solve::required_throughput_proc(&input, target) {
            Ok(req) => println!("  {target:>5.1}x  needs {req:>7.1} ops/cycle"),
            Err(e) => println!("  {target:>5.1}x  {e}"),
        }
    }
    let ceiling = solve::max_speedup(&input).expect("valid input");
    println!("  ceiling (infinitely fast kernel): {ceiling:.0}x\n");

    // 2. The paper's answer: ~50 ops/cycle for ~10x. What does 50 concurrent
    //    operations *mean*? Substantial data parallelism: several molecules'
    //    force kernels in flight simultaneously.
    let tuned = solve::required_throughput_proc(&input, 10.7).expect("feasible");
    println!(
        "The ~10x goal demands {tuned:.0} ops/cycle — the paper: 'substantial data \
         parallelism and functional pipelining must be achieved'.\n"
    );

    // 3. Prediction with the tuned value (Table 9's predicted columns).
    for r in Worksheet::new(input)
        .analyze_clocks(&[75.0, 100.0, 150.0].map(rat::core::quantity::Freq::from_mhz))
        .expect("valid worksheet")
    {
        println!(
            "  predicted @ {:>3.0} MHz: t_comp {:.2e} s, speedup {:.1}x",
            r.input.comp.fclock.mhz(),
            r.throughput.t_comp.seconds(),
            r.speedup
        );
    }

    // 4. Ground truth: build the design model over an actual 16,384-molecule
    //    dataset (neighbor counts and all) and execute it on the simulated
    //    XD1000.
    let design = md::hw::MdDesign::paper_scale();
    println!(
        "\nDataset reality: {:.0} ops/molecule (worksheet estimated 164000), \
         mean {:.0} near neighbors",
        design.ops_per_element(),
        design.mean_near_neighbors()
    );
    let m = design.simulate(100.0e6);
    let speedup = md::rat::T_SOFT / m.total.as_secs_f64();
    println!(
        "Simulated 'actual' @ 100 MHz: t_comm {:.2e} s (write-back streamed), \
         t_comp {:.2e} s, total {:.2e} s, speedup {speedup:.1}x (paper measured 6.6x)",
        m.comm_per_iter().as_secs_f64(),
        m.comp_per_iter().as_secs_f64(),
        m.total.as_secs_f64(),
    );
    println!(
        "The gap vs the predicted 10.7x is the data-dependent stall budget the tuned \
         estimate couldn't see — the design sustains ~61% of its structural 50 ops/cycle."
    );
}
