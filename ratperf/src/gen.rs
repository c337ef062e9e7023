//! Seeded request generation for the serve workloads.
//!
//! Every request is a pure function of `(seed, index)`, so the same seed
//! always yields the same byte stream no matter how the two load clients
//! interleave, and the traced replay can regenerate exactly the requests the
//! timed run sent.

use rat_core::params::{Buffering, RatInput};
use rat_serve::api;

/// The three shipped worksheets, in the order the hot set walks them.
pub const WORKSHEETS: [(&str, &str); 3] = [
    ("pdf1d", include_str!("../../worksheets/pdf1d.toml")),
    ("pdf2d", include_str!("../../worksheets/pdf2d.toml")),
    ("md", include_str!("../../worksheets/md.toml")),
];

/// The four case studies `/v1/simulate` knows.
pub const APPS: [&str; 4] = ["pdf1d", "pdf2d", "md", "sort"];

/// `serve_fresh` route shares, per 100 requests. Light routes carry most of
/// the count; `uncertainty` and `optimize` run at their CLI defaults and
/// carry most of the CPU. A traced `serve_fresh` run checks that: it prints
/// each route's share of the replay's process CPU beside its share of the
/// requests.
pub const FRESH_SHARES: [(&str, usize); 7] = [
    ("solve", 40),
    ("sweep", 14),
    ("sensitivity", 10),
    ("explore", 10),
    ("simulate", 20),
    ("uncertainty", 4),
    ("optimize", 2),
];

/// One generated request: the mode (route suffix under `/v1/`) and the
/// exact JSON body sent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Mode name, one of [`api::MODES`].
    pub mode: &'static str,
    /// Request body bytes.
    pub body: String,
    /// The worksheet TOML embedded in the body, for modes that carry one.
    pub worksheet: Option<String>,
}

impl Request {
    /// The HTTP path this request is posted to.
    pub fn path(&self) -> String {
        format!("/v1/{}", self.mode)
    }
}

/// SplitMix64: a tiny, well-mixed, seedable generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for item `index` of stream `stream` under `seed`.
    pub fn for_item(seed: u64, stream: u64, index: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        let base = r.next_u64();
        Rng(base ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle of `items`.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

const STREAM_HOT: u64 = 1;
const STREAM_FRESH: u64 = 2;
const STREAM_SCHEDULE: u64 = 3;
const STREAM_SAMPLE: u64 = 4;

fn parse_base(toml_text: &str) -> RatInput {
    api::parse_worksheet(toml_text).expect("shipped worksheet parses")
}

/// Render a worksheet as TOML. Floats are printed in fixed notation so the
/// text stays inside the TOML subset every parser accepts.
fn worksheet_toml(w: &RatInput) -> String {
    let buffering = match w.buffering {
        Buffering::Single => "Single",
        Buffering::Double => "Double",
    };
    format!(
        "name = \"{}\"\nbuffering = \"{buffering}\"\n\n[dataset]\nelements_in = {}\n\
         elements_out = {}\nbytes_per_element = {}\n\n[comm]\nideal_bandwidth = {:.1}\n\
         alpha_write = {:.4}\nalpha_read = {:.4}\n\n[comp]\nops_per_element = {:.3}\n\
         throughput_proc = {:.3}\nfclock = {:.1}\n\n[software]\nt_soft = {:.6}\niterations = {}\n",
        w.name,
        w.dataset.elements_in,
        w.dataset.elements_out,
        w.dataset.bytes_per_element,
        w.comm.ideal_bandwidth.bytes_per_sec(),
        w.comm.alpha_write,
        w.comm.alpha_read,
        w.comp.ops_per_element,
        w.comp.throughput_proc,
        w.comp.fclock.hz(),
        w.software.t_soft.seconds(),
        w.software.iterations,
    )
}

fn round_to(v: f64, decimals: i32) -> f64 {
    let s = 10f64.powi(decimals);
    (v * s).round() / s
}

/// A seeded perturbation of a shipped worksheet whose name carries `tag`,
/// so two perturbations never share a canonical key.
fn perturbed_worksheet(base: &RatInput, rng: &mut Rng, tag: &str) -> String {
    let mut w = base.clone();
    w.name = format!("{} {tag}", base.name);
    w.comm.alpha_write = round_to(
        (base.comm.alpha_write * rng.uniform(0.7, 1.3)).clamp(0.01, 0.99),
        4,
    );
    w.comm.alpha_read = round_to(
        (base.comm.alpha_read * rng.uniform(0.7, 1.3)).clamp(0.01, 0.99),
        4,
    );
    w.comp.ops_per_element = round_to(base.comp.ops_per_element * rng.uniform(0.8, 1.25), 3);
    w.comp.throughput_proc = round_to(base.comp.throughput_proc * rng.uniform(0.5, 2.0), 3);
    w.comp.fclock = api::Clock::from_hz(round_to(base.comp.fclock.hz() * rng.uniform(0.5, 2.0), 0));
    w.software.t_soft = rat_core::quantity::Seconds::new(round_to(
        base.software.t_soft.seconds() * rng.uniform(0.8, 1.25),
        6,
    ));
    w.buffering = if rng.below(2) == 0 {
        Buffering::Single
    } else {
        Buffering::Double
    };
    worksheet_toml(&w)
}

fn fixed(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

fn list(vs: &[String]) -> String {
    format!("[{}]", vs.join(", "))
}

/// Build the body for `mode` over `ws` (TOML text), drawing the mode's own
/// parameters from `rng`.
fn worksheet_body(mode: &'static str, ws: &str, rng: &mut Rng) -> String {
    let w = api::escape_json(ws);
    match mode {
        "solve" => format!(
            "{{\"worksheet_toml\": \"{w}\", \"target\": {}}}",
            fixed(rng.uniform(2.0, 20.0), 3)
        ),
        "sweep" => {
            let (param, lo, hi, dec) = match rng.below(3) {
                0 => ("fclock", 50.0e6, 300.0e6, 1),
                1 => ("throughput-proc", 1.0, 100.0, 3),
                _ => ("alpha-write", 0.05, 1.0, 4),
            };
            let n = 16 + rng.below(33);
            let values: Vec<String> = (0..n).map(|_| fixed(rng.uniform(lo, hi), dec)).collect();
            format!(
                "{{\"worksheet_toml\": \"{w}\", \"param\": \"{param}\", \"values\": {}}}",
                list(&values)
            )
        }
        "uncertainty" => {
            let a = rng.uniform(0.1, 0.5);
            let clock = rng.uniform(60.0e6, 120.0e6);
            format!(
                "{{\"worksheet_toml\": \"{w}\", \"ranges\": [\
                 {{\"param\": \"fclock\", \"lo\": {}, \"hi\": {}}}, \
                 {{\"param\": \"alpha-write\", \"lo\": {}, \"hi\": {}}}]}}",
                fixed(clock, 1),
                fixed(clock * rng.uniform(1.2, 2.5), 1),
                fixed(a, 4),
                fixed((a + rng.uniform(0.1, 0.5)).min(1.0), 4),
            )
        }
        "explore" => {
            let clocks: Vec<String> = (0..3)
                .map(|_| fixed(rng.uniform(50.0e6, 300.0e6), 1))
                .collect();
            let procs: Vec<String> = (0..2).map(|_| fixed(rng.uniform(1.0, 100.0), 3)).collect();
            format!(
                "{{\"worksheet_toml\": \"{w}\", \"min_speedup\": {}, \"fclocks\": {}, \
                 \"throughput_procs\": {}}}",
                fixed(rng.uniform(1.0, 20.0), 3),
                list(&clocks),
                list(&procs)
            )
        }
        "optimize" | "sensitivity" => format!("{{\"worksheet_toml\": \"{w}\"}}"),
        other => unreachable!("mode {other} carries no worksheet"),
    }
}

fn simulate_body(app: &str, mhz: f64) -> String {
    format!("{{\"app\": \"{app}\", \"mhz\": {}}}", fixed(mhz, 3))
}

/// The `serve_hot` set: every `/v1/*` route over the shipped worksheets and
/// apps — 21 bodies. `optimize` on MD is infeasible by design (the paper's
/// MD needs more DSPs than any catalog device has), so MD skips it and the
/// fourth app, `sort`, rounds out `simulate`. The seed picks each body's
/// route parameters and the order the set is cycled in.
pub fn hot_set(seed: u64) -> Vec<Request> {
    let mut out = Vec::with_capacity(21);
    let mut rng = Rng::for_item(seed, STREAM_HOT, 0);
    for (app, toml_text) in WORKSHEETS {
        for mode in [
            "solve",
            "sweep",
            "uncertainty",
            "explore",
            "optimize",
            "sensitivity",
        ] {
            if app == "md" && mode == "optimize" {
                continue;
            }
            out.push(Request {
                mode,
                body: worksheet_body(mode, toml_text, &mut rng),
                worksheet: Some(toml_text.to_string()),
            });
        }
    }
    for app in APPS {
        let mhz = round_to(rng.uniform(75.0, 200.0), 3);
        out.push(Request {
            mode: "simulate",
            body: simulate_body(app, mhz),
            worksheet: None,
        });
    }
    rng.shuffle(&mut out);
    out
}

/// The fixed 100-slot route schedule of `serve_fresh`, shuffled by seed.
pub fn fresh_schedule(seed: u64) -> Vec<&'static str> {
    let mut slots: Vec<&'static str> = FRESH_SHARES
        .iter()
        .flat_map(|&(mode, n)| std::iter::repeat_n(mode, n))
        .collect();
    Rng::for_item(seed, STREAM_SCHEDULE, 0).shuffle(&mut slots);
    slots
}

/// The `serve_fresh` stream: request `index` under `seed`. Every index gives
/// a request distinct at both cache-key tiers: worksheet routes carry the
/// index in the worksheet name, and `simulate` walks the clock in 5 kHz
/// steps so each point is a new simulation.
pub struct FreshStream {
    seed: u64,
    schedule: Vec<&'static str>,
    bases: Vec<RatInput>,
    mhz_base: f64,
}

impl FreshStream {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::for_item(seed, STREAM_FRESH, u64::MAX);
        FreshStream {
            seed,
            schedule: fresh_schedule(seed),
            bases: WORKSHEETS.iter().map(|(_, t)| parse_base(t)).collect(),
            mhz_base: round_to(rng.uniform(40.0, 60.0), 3),
        }
    }

    /// Request number `index`.
    pub fn request(&self, index: u64) -> Request {
        let mode = self.schedule[(index % self.schedule.len() as u64) as usize];
        let mut rng = Rng::for_item(self.seed, STREAM_FRESH, index);
        if mode == "simulate" {
            let app = APPS[rng.below(APPS.len())];
            let mhz = self.mhz_base + index as f64 * 0.005;
            return Request {
                mode,
                body: simulate_body(app, mhz),
                worksheet: None,
            };
        }
        // Optimize stays on the two PDF designs (MD is infeasible, see
        // `hot_set`).
        let which = if mode == "optimize" {
            rng.below(2)
        } else {
            rng.below(self.bases.len())
        };
        let ws = perturbed_worksheet(&self.bases[which], &mut rng, &format!("#{index}"));
        Request {
            mode,
            body: worksheet_body(mode, &ws, &mut rng),
            worksheet: Some(ws),
        }
    }

    /// Whether the response to `index` is checked byte for byte against an
    /// in-process render (a seeded one-in-`every` sample).
    pub fn sampled(&self, index: u64, every: u64) -> bool {
        Rng::for_item(self.seed, STREAM_SAMPLE, index)
            .next_u64()
            .is_multiple_of(every)
    }
}
