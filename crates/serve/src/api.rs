//! The analysis API surface shared by the CLI and the server.
//!
//! Every mode handler here returns the **exact report text** the CLI prints
//! for the same inputs — the CLI's `dispatch` calls these functions, and the
//! server wraps their output in a one-field JSON envelope. That shared code
//! path is the parity contract: `crates/serve/tests/parity.rs` asserts the
//! JSON body a warm server returns is byte-identical to what a cold CLI
//! process computes, and it holds because there is only one renderer.
//!
//! The error side mirrors the CLI the same way. [`RatError`] classes map
//! onto HTTP status codes exactly as they map onto CLI exit codes
//! (DESIGN.md §10 and §14):
//!
//! | class | CLI exit | HTTP status |
//! |-------|----------|-------------|
//! | usage / malformed request | 2 | 400 |
//! | invalid parameter, quantity, or TOML | 3 | 400 |
//! | infeasible | 4 | 422 |
//! | simulation failure | 5 | 500 |
//! | cache I/O failure | 6 | 507 |
//!
//! plus the protocol-level codes an HTTP surface needs: 404 unknown route,
//! 405 wrong method, 408 request timeout, 413 oversized body, 503 queue
//! full / draining.

use fixedpoint::QFormat;
use fpga_sim::SimCache;
use rat_core::engine::Engine;
use rat_core::explore::{explore, DesignSpace};
use rat_core::optimize::{optimize, OptimizeConfig, OptimizeSpace};
use rat_core::params::{Buffering, RatInput};
use rat_core::quantity::Freq;
use rat_core::sweep::SweepParam;
use rat_core::telemetry::json::{self, Json};
use rat_core::uncertainty::ParamRange;
use rat_core::RatError;

/// Monte-Carlo sample count used when a request does not specify one — the
/// same 10 000 the CLI's `uncertainty` command always uses.
pub const DEFAULT_MC_SAMPLES: usize = 10_000;

/// Upper bound on Monte-Carlo samples per request: a resident service must
/// not let one request monopolize the workers.
pub const MAX_MC_SAMPLES: usize = 1_000_000;

/// Upper bound on sweep values per request.
pub const MAX_SWEEP_VALUES: usize = 100_000;

/// Upper bound on design-space corners per explore request.
pub const MAX_EXPLORE_CORNERS: usize = 1_000_000;

/// Upper bound on guided-search evaluations (generations × population) per
/// optimize request.
pub const MAX_OPTIMIZE_EVALS: u64 = 1_000_000;

/// A model-pipeline failure plus the context line describing what the
/// service (or CLI) was doing — rendered as `error: <context>` /
/// `caused by: <source>`, matching the CLI's stderr format.
#[derive(Debug)]
pub struct ModeError {
    /// What was being attempted (e.g. `solving 'md' for 10x speedup`).
    pub context: Option<String>,
    /// The underlying pipeline failure; determines exit code and status.
    pub source: RatError,
}

impl ModeError {
    /// Wrap `source` with a context line.
    pub fn with_context(context: impl Into<String>, source: RatError) -> Self {
        ModeError {
            context: Some(context.into()),
            source,
        }
    }
}

impl From<RatError> for ModeError {
    fn from(source: RatError) -> Self {
        ModeError {
            context: None,
            source,
        }
    }
}

/// The HTTP status for a [`RatError`] class — the same partition the CLI
/// maps onto exit codes 3/4/5/6 (usage errors, exit 2, are requests that
/// never reach the pipeline and map to 400 at the protocol layer).
pub fn http_status(e: &RatError) -> u16 {
    match e {
        RatError::InvalidParameter(_) | RatError::InvalidQuantity { .. } => 400,
        RatError::Infeasible(_) => 422,
        RatError::Simulation(_) => 500,
        RatError::CacheIo(_) => 507,
    }
}

/// Every failure the service can report, each with a pinned status code and
/// a `caused by:` chain for the error body.
#[derive(Debug)]
pub enum ApiError {
    /// 400: the request itself is malformed (bad JSON, missing or mistyped
    /// fields, unparsable worksheet TOML, unknown parameter names).
    BadRequest {
        /// What the server was doing when the request fell over.
        what: String,
        /// The underlying reason (parser message, offending value).
        cause: String,
    },
    /// 404: no such route.
    UnknownRoute(String),
    /// 405: the route exists but not with this method.
    WrongMethod {
        /// The requested path.
        path: String,
        /// The method the route supports.
        allowed: &'static str,
    },
    /// 408: the client did not deliver a complete request in time.
    Timeout,
    /// 413: the declared body length exceeds the server's limit.
    TooLarge {
        /// The configured body-size limit in bytes.
        limit: usize,
    },
    /// 503: the bounded request queue is full, or the server is draining.
    Busy,
    /// 500: the request handler panicked; the worker survived it.
    Panic,
    /// A model-pipeline failure; status from [`http_status`].
    Mode(ModeError),
}

impl ApiError {
    /// Shorthand for a 400 with context and cause.
    pub fn bad_request(what: impl Into<String>, cause: impl Into<String>) -> Self {
        ApiError::BadRequest {
            what: what.into(),
            cause: cause.into(),
        }
    }

    /// The HTTP status code for this error.
    pub fn status(&self) -> u16 {
        match self {
            ApiError::BadRequest { .. } => 400,
            ApiError::UnknownRoute(_) => 404,
            ApiError::WrongMethod { .. } => 405,
            ApiError::Timeout => 408,
            ApiError::TooLarge { .. } => 413,
            ApiError::Busy => 503,
            ApiError::Panic => 500,
            ApiError::Mode(m) => http_status(&m.source),
        }
    }

    /// The top-line message (the CLI's `error: ...` line).
    pub fn message(&self) -> String {
        match self {
            ApiError::BadRequest { what, .. } => what.clone(),
            ApiError::UnknownRoute(path) => format!("no such route: {path}"),
            ApiError::WrongMethod { path, allowed } => {
                format!("method not allowed on {path} (use {allowed})")
            }
            ApiError::Timeout => "request timed out before a complete read".into(),
            ApiError::TooLarge { limit } => {
                format!("request body exceeds the {limit}-byte limit")
            }
            ApiError::Busy => "server is at capacity or draining; retry later".into(),
            ApiError::Panic => "internal error: the request handler panicked".into(),
            ApiError::Mode(m) => m.context.clone().unwrap_or_else(|| m.source.to_string()),
        }
    }

    /// The `caused by:` chain under the top line.
    pub fn causes(&self) -> Vec<String> {
        match self {
            ApiError::BadRequest { cause, .. } => vec![cause.clone()],
            ApiError::Mode(ModeError {
                context: Some(_),
                source,
            }) => vec![source.to_string()],
            _ => Vec::new(),
        }
    }

    /// The JSON error body: `{"error": ..., "caused_by": [...]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"error\": \"");
        out.push_str(&escape_json(&self.message()));
        out.push_str("\", \"caused_by\": [");
        for (i, c) in self.causes().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push('"');
            out.push_str(&escape_json(c));
            out.push('"');
        }
        out.push_str("]}");
        out
    }
}

impl From<ModeError> for ApiError {
    fn from(m: ModeError) -> Self {
        ApiError::Mode(m)
    }
}

/// Escape a string for embedding in a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 8);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A successful analysis response: the mode name plus the rendered report.
/// The `report` string is byte-identical to what the CLI prints (minus the
/// trailing newline `main` appends).
#[derive(Debug, Clone, PartialEq)]
pub struct ApiOk {
    /// The analysis mode that produced the report.
    pub mode: &'static str,
    /// The rendered report text.
    pub report: String,
}

impl ApiOk {
    /// The JSON success envelope: `{"mode": ..., "report": ...}`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"mode\": \"{}\", \"report\": \"{}\"}}",
            self.mode,
            escape_json(&self.report)
        )
    }
}

// ---------------------------------------------------------------------------
// Shared argument parsing (CLI flags and request JSON use the same names).
// ---------------------------------------------------------------------------

/// Parse a sweep-parameter name. The accepted names are the CLI's.
pub fn parse_param(name: &str) -> Result<SweepParam, String> {
    match name {
        "fclock" => Ok(SweepParam::Fclock),
        "alpha-write" => Ok(SweepParam::AlphaWrite),
        "alpha-read" => Ok(SweepParam::AlphaRead),
        "alpha" => Ok(SweepParam::AlphaBoth),
        "throughput-proc" => Ok(SweepParam::ThroughputProc),
        "ops-per-element" => Ok(SweepParam::OpsPerElement),
        "elements-in" => Ok(SweepParam::ElementsIn),
        "iterations" => Ok(SweepParam::Iterations),
        other => Err(format!("unknown sweep parameter '{other}'")),
    }
}

/// Parse a buffering-discipline name (`single` | `double`).
pub fn parse_buffering(name: &str) -> Result<Buffering, String> {
    match name {
        "single" => Ok(Buffering::Single),
        "double" => Ok(Buffering::Double),
        other => Err(format!("unknown buffering '{other}' (single|double)")),
    }
}

/// Parse and validate a worksheet from its TOML text.
pub fn parse_worksheet(toml_text: &str) -> Result<RatInput, ApiError> {
    let input: RatInput = toml::from_str(toml_text)
        .map_err(|e| ApiError::bad_request("parsing worksheet_toml", e.to_string()))?;
    input.validate().map_err(|source| {
        ApiError::Mode(ModeError::with_context(
            format!("validating worksheet '{}'", input.name),
            source,
        ))
    })?;
    Ok(input)
}

// ---------------------------------------------------------------------------
// Mode reports — the single renderer each mode has. The CLI calls these.
// ---------------------------------------------------------------------------

/// `rat solve` without `--strict`: every sub-solve renders inline, feasible
/// or not, and the report always succeeds.
pub fn solve_report(input: &RatInput, target: f64) -> String {
    solve_report_from_quad(input, target, &rat_core::solve::inverse_quad(input, target))
}

/// Render the non-strict solve report from an already-evaluated quad: the
/// one solve renderer, shared by the CLI, `rat serve` (both via
/// [`solve_report`]) and the benchmark crate's layer probes.
pub fn solve_report_from_quad(
    input: &RatInput,
    target: f64,
    quad: &rat_core::solve::InverseQuad,
) -> String {
    let mut out = format!("Inverse solve for {target}x speedup on '{}':\n", input.name);
    match &quad.throughput_proc {
        Ok(v) => out.push_str(&format!("  required throughput_proc: {v:.1} ops/cycle\n")),
        Err(e) => out.push_str(&format!("  throughput_proc: {e}\n")),
    }
    match &quad.fclock {
        Ok(v) => out.push_str(&format!("  required f_clock:         {:.1} MHz\n", v.mhz())),
        Err(e) => out.push_str(&format!("  f_clock: {e}\n")),
    }
    match &quad.alpha_scale {
        Ok(v) => out.push_str(&format!("  required alpha scale:     {v:.2}x current\n")),
        Err(e) => out.push_str(&format!("  alpha: {e}\n")),
    }
    match &quad.ceiling {
        Ok(v) => out.push_str(&format!("  speedup ceiling (comm-bound wall): {v:.1}x\n")),
        Err(e) => out.push_str(&format!("  ceiling: {e}\n")),
    }
    out
}

/// `rat solve --strict`: any infeasible sub-solve is a hard error (CLI exit
/// code 4, HTTP 422) instead of an inline annotation.
pub fn solve_report_strict(input: &RatInput, target: f64) -> Result<String, ModeError> {
    solve_report_strict_from_quad(input, target, &rat_core::solve::inverse_quad(input, target))
}

/// Strict renderer over an already-evaluated quad; same error precedence as
/// the sequential path (throughput_proc, then f_clock, alpha, ceiling).
pub fn solve_report_strict_from_quad(
    input: &RatInput,
    target: f64,
    quad: &rat_core::solve::InverseQuad,
) -> Result<String, ModeError> {
    let wrap = |source: &RatError| {
        ModeError::with_context(
            format!("solving '{}' for {target}x speedup", input.name),
            source.clone(),
        )
    };
    let tp = quad.throughput_proc.as_ref().map_err(wrap)?;
    let fclk = quad.fclock.as_ref().map_err(wrap)?;
    let alpha = quad.alpha_scale.as_ref().map_err(wrap)?;
    let ceiling = quad.ceiling.as_ref().map_err(wrap)?;
    Ok(format!(
        "Inverse solve for {target}x speedup on '{}':\n\
         \x20 required throughput_proc: {tp:.1} ops/cycle\n\
         \x20 required f_clock:         {:.1} MHz\n\
         \x20 required alpha scale:     {alpha:.2}x current\n\
         \x20 speedup ceiling (comm-bound wall): {ceiling:.1}x\n",
        input.name,
        fclk.mhz(),
    ))
}

/// `rat sweep`: one parameter over explicit values, on `engine`.
pub fn sweep_report(
    engine: &Engine,
    input: &RatInput,
    param: SweepParam,
    values: &[f64],
) -> Result<String, RatError> {
    Ok(rat_core::sweep::sweep_with(engine, input, param, values)?.render())
}

/// `rat sensitivity`: parameter elasticities, on `engine`.
pub fn sensitivity_report(engine: &Engine, input: &RatInput) -> Result<String, RatError> {
    Ok(rat_core::sensitivity::analyze_with(engine, input)?.render())
}

/// `rat uncertainty`: seeded Monte-Carlo propagation, on `engine`. The same
/// seed produces the same quantiles at every worker and thread count.
pub fn uncertainty_report(
    engine: &Engine,
    input: &RatInput,
    ranges: &[ParamRange],
    samples: usize,
    seed: u64,
) -> Result<String, RatError> {
    Ok(rat_core::uncertainty::propagate_with(engine, input, ranges, samples, seed)?.render())
}

/// `rat explore`: throughput-gate the cartesian corner space around a base
/// worksheet. `None` axes default to the base worksheet's own value
/// (clock, throughput) or to both disciplines (buffering).
pub fn explore_report(
    input: &RatInput,
    min_speedup: f64,
    fclocks: Option<Vec<f64>>,
    throughput_procs: Option<Vec<f64>>,
    bufferings: Option<Vec<Buffering>>,
) -> Result<String, RatError> {
    let space = DesignSpace {
        fclocks: fclocks.unwrap_or_else(|| vec![input.comp.fclock.hz()]),
        throughput_procs: throughput_procs.unwrap_or_else(|| vec![input.comp.throughput_proc]),
        bufferings: bufferings.unwrap_or_else(|| vec![Buffering::Single, Buffering::Double]),
        base: input.clone(),
    };
    Ok(explore(&space, min_speedup)?.render())
}

/// Axis overrides for a guided search, shared by the CLI flags and the JSON
/// body — `None` means "use the [`OptimizeSpace::around`] default".
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OptimizeSpec {
    /// Search seed; `None` uses the engine's root seed (the CLI default), so
    /// an unseeded request matches the CLI byte-for-byte.
    pub seed: Option<u64>,
    /// Generations to run; `None` = [`OptimizeConfig::default`].
    pub generations: Option<u32>,
    /// Candidates per generation; `None` = [`OptimizeConfig::default`].
    pub population: Option<usize>,
    /// Clock range in Hz, inclusive.
    pub fclock_range: Option<(f64, f64)>,
    /// `throughput_proc` range in ops/cycle, inclusive.
    pub throughput_range: Option<(f64, f64)>,
    /// Buffering candidates.
    pub bufferings: Option<Vec<Buffering>>,
    /// Device candidates, as case-insensitive catalog-name substrings.
    pub devices: Option<Vec<String>>,
    /// Fixed-point precision candidates, as total bit widths.
    pub precision_bits: Option<Vec<u32>>,
}

impl OptimizeSpec {
    /// Resolve the spec against a base worksheet into a concrete space and
    /// config, naming the offending field on failure.
    pub fn resolve(
        &self,
        input: &RatInput,
        default_seed: u64,
    ) -> Result<(OptimizeSpace, OptimizeConfig), RatError> {
        let mut space = OptimizeSpace::around(input.clone());
        if let Some(r) = self.fclock_range {
            space.fclock_hz = r;
        }
        if let Some(r) = self.throughput_range {
            space.throughput_proc = r;
        }
        if let Some(b) = &self.bufferings {
            space.bufferings = b.clone();
        }
        if let Some(names) = &self.devices {
            let mut devices = Vec::with_capacity(names.len());
            for n in names {
                devices.push(rat_core::resources::device::find_device(n).ok_or_else(|| {
                    RatError::quantity("devices", format!("no catalog device matches '{n}'"))
                })?);
            }
            space.devices = devices;
        }
        if let Some(bits) = &self.precision_bits {
            let mut precisions = Vec::with_capacity(bits.len());
            for &b in bits {
                let total = b.checked_sub(1).ok_or_else(|| {
                    RatError::quantity("precision_bits", "width must be at least 1 bit".to_string())
                })?;
                precisions.push(QFormat::signed(0, total).map_err(|e| {
                    RatError::quantity("precision_bits", format!("{b}-bit format: {e}"))
                })?);
            }
            space.precisions = precisions;
        }
        let defaults = OptimizeConfig::default();
        let config = OptimizeConfig {
            seed: self.seed.unwrap_or(default_seed),
            generations: self.generations.unwrap_or(defaults.generations),
            population: self.population.unwrap_or(defaults.population),
        };
        Ok((space, config))
    }
}

/// `rat optimize`: deterministic guided search over the design space around
/// a base worksheet, on `engine`. Same seed → byte-identical front at every
/// worker and thread count.
pub fn optimize_report(
    engine: &Engine,
    input: &RatInput,
    spec: &OptimizeSpec,
) -> Result<String, RatError> {
    let (space, config) = spec.resolve(input, engine.config().root_seed)?;
    Ok(optimize(engine, &space, &config)?.render())
}

/// Cached case-study simulation: run one of the four shipped hardware
/// designs on its simulated platform at `mhz`, memoized through `cache` so
/// repeated points cost a hash lookup instead of a simulation. This is the
/// endpoint that exercises cross-request simulator-cache sharing.
pub fn simulate_report(app: &str, mhz: f64, cache: Option<&SimCache>) -> Result<String, ModeError> {
    let wrap = |source: RatError| {
        ModeError::with_context(format!("simulating {app} at {mhz:.1} MHz"), source)
    };
    // The simulator's clock is picosecond-resolution; past 1 THz a cycle
    // rounds to zero, so reject anything outside the physically plausible
    // band up front instead of letting the simulator panic.
    if !(mhz.is_finite() && mhz > 0.0 && mhz <= 1.0e6) {
        return Err(wrap(RatError::simulation(format!(
            "clock must be a positive frequency in (0, 1e6] MHz, got {mhz}"
        ))));
    }
    let fclock_hz = mhz * 1.0e6;
    let summary = match app {
        "pdf1d" => rat_apps::pdf::pdf1d::design().simulate_summary(fclock_hz, cache),
        "pdf2d" => rat_apps::pdf::pdf2d::design().simulate_summary(fclock_hz, cache),
        "md" => {
            rat_apps::md::hw::MdDesign::paper_scale_analytic().simulate_summary(fclock_hz, cache)
        }
        "sort" => rat_apps::sort::rat::design().simulate_summary(fclock_hz, cache),
        other => {
            return Err(wrap(RatError::simulation(format!(
                "unknown case study '{other}' (pdf1d|pdf2d|md|sort)"
            ))))
        }
    };
    Ok(format!(
        "simulated {app} at {mhz:.1} MHz over {} iterations:\n\
         \x20 total (t_RC)   {}\n\
         \x20 comm busy      {}  ({:.1}% of makespan)\n\
         \x20 compute busy   {}  ({:.1}% of makespan)\n\
         \x20 host overhead  {}\n",
        summary.iterations,
        summary.total,
        summary.comm_busy,
        summary.channel_utilization() * 100.0,
        summary.compute_busy,
        summary.compute_utilization() * 100.0,
        summary.host_overhead,
    ))
}

// ---------------------------------------------------------------------------
// Request parsing and dispatch for the HTTP surface.
// ---------------------------------------------------------------------------

/// A parsed analysis request, ready to run.
#[derive(Debug, Clone)]
pub enum ApiRequest {
    /// `POST /v1/solve`
    Solve {
        /// The validated worksheet.
        input: RatInput,
        /// Target speedup.
        target: f64,
        /// Whether infeasible sub-solves are hard errors (422).
        strict: bool,
    },
    /// `POST /v1/sweep`
    Sweep {
        /// The validated worksheet.
        input: RatInput,
        /// Which parameter to sweep.
        param: SweepParam,
        /// The values to sweep over.
        values: Vec<f64>,
    },
    /// `POST /v1/uncertainty`
    Uncertainty {
        /// The validated worksheet.
        input: RatInput,
        /// Uncertain-parameter ranges.
        ranges: Vec<ParamRange>,
        /// Monte-Carlo sample count.
        samples: usize,
        /// Explicit RNG seed; `None` uses the engine's root seed (the CLI
        /// default), so an unseeded request matches the CLI byte-for-byte.
        seed: Option<u64>,
    },
    /// `POST /v1/explore`
    Explore {
        /// The validated worksheet (the base design).
        input: RatInput,
        /// Pass/fail speedup threshold.
        min_speedup: f64,
        /// Clock axis (Hz); defaults to the base worksheet's clock.
        fclocks: Option<Vec<f64>>,
        /// Parallelism axis; defaults to the base worksheet's value.
        throughput_procs: Option<Vec<f64>>,
        /// Buffering axis; defaults to both disciplines.
        bufferings: Option<Vec<Buffering>>,
    },
    /// `POST /v1/optimize`
    Optimize {
        /// The validated worksheet (the base design).
        input: RatInput,
        /// Search axes and knobs.
        spec: OptimizeSpec,
    },
    /// `POST /v1/sensitivity`
    Sensitivity {
        /// The validated worksheet.
        input: RatInput,
    },
    /// `POST /v1/simulate`
    Simulate {
        /// Case-study name (`pdf1d` | `pdf2d` | `md` | `sort`).
        app: String,
        /// Clock in MHz.
        mhz: f64,
    },
}

impl ApiRequest {
    /// The stable mode name echoed in the response envelope.
    pub fn mode(&self) -> &'static str {
        match self {
            ApiRequest::Solve { .. } => "solve",
            ApiRequest::Sweep { .. } => "sweep",
            ApiRequest::Uncertainty { .. } => "uncertainty",
            ApiRequest::Explore { .. } => "explore",
            ApiRequest::Optimize { .. } => "optimize",
            ApiRequest::Sensitivity { .. } => "sensitivity",
            ApiRequest::Simulate { .. } => "simulate",
        }
    }
}

/// All mode route suffixes under `/v1/`, in documentation order.
pub const MODES: [&str; 7] = [
    "solve",
    "sweep",
    "uncertainty",
    "explore",
    "optimize",
    "sensitivity",
    "simulate",
];

fn require<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, ApiError> {
    doc.get(key)
        .ok_or_else(|| ApiError::bad_request("reading request body", format!("missing '{key}'")))
}

fn require_str<'a>(doc: &'a Json, key: &str) -> Result<&'a str, ApiError> {
    require(doc, key)?.as_str().ok_or_else(|| {
        ApiError::bad_request("reading request body", format!("'{key}' must be a string"))
    })
}

fn require_f64(doc: &Json, key: &str) -> Result<f64, ApiError> {
    require(doc, key)?.as_f64().ok_or_else(|| {
        ApiError::bad_request("reading request body", format!("'{key}' must be a number"))
    })
}

fn optional_f64(doc: &Json, key: &str) -> Result<Option<f64>, ApiError> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v.as_f64().map(Some).ok_or_else(|| {
            ApiError::bad_request("reading request body", format!("'{key}' must be a number"))
        }),
    }
}

/// The optional `seed` field: a non-negative integer below 2^53, the range
/// in which every integer is an exact JSON number.
fn optional_seed(doc: &Json) -> Result<Option<u64>, ApiError> {
    const LIMIT: f64 = (1u64 << 53) as f64;
    match optional_f64(doc, "seed")? {
        None => Ok(None),
        Some(s) if s.fract() == 0.0 && (0.0..LIMIT).contains(&s) => Ok(Some(s as u64)),
        Some(s) => Err(ApiError::bad_request(
            "reading request body",
            format!("'seed' must be a non-negative integer below 2^53, got {s}"),
        )),
    }
}

fn optional_bool(doc: &Json, key: &str) -> Result<bool, ApiError> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(false),
        Some(Json::Bool(b)) => Ok(*b),
        Some(_) => Err(ApiError::bad_request(
            "reading request body",
            format!("'{key}' must be a boolean"),
        )),
    }
}

fn f64_list(v: &Json, key: &str) -> Result<Vec<f64>, ApiError> {
    v.as_array()
        .ok_or_else(|| {
            ApiError::bad_request("reading request body", format!("'{key}' must be an array"))
        })?
        .iter()
        .map(|x| {
            x.as_f64().ok_or_else(|| {
                ApiError::bad_request(
                    "reading request body",
                    format!("'{key}' must contain only numbers"),
                )
            })
        })
        .collect()
}

fn optional_f64_list(doc: &Json, key: &str) -> Result<Option<Vec<f64>>, ApiError> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => f64_list(v, key).map(Some),
    }
}

fn optional_str_list(doc: &Json, key: &str) -> Result<Option<Vec<String>>, ApiError> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => {
            let arr = v.as_array().ok_or_else(|| {
                ApiError::bad_request(
                    "reading request body",
                    format!("'{key}' must be an array of strings"),
                )
            })?;
            let mut out = Vec::with_capacity(arr.len());
            for s in arr {
                out.push(
                    s.as_str()
                        .ok_or_else(|| {
                            ApiError::bad_request(
                                "reading request body",
                                format!("'{key}' must be an array of strings"),
                            )
                        })?
                        .to_string(),
                );
            }
            Ok(Some(out))
        }
    }
}

fn parse_buffering_list(doc: &Json) -> Result<Option<Vec<Buffering>>, ApiError> {
    match optional_str_list(doc, "bufferings")? {
        None => Ok(None),
        Some(names) => {
            let mut out = Vec::with_capacity(names.len());
            for n in &names {
                out.push(
                    parse_buffering(n)
                        .map_err(|e| ApiError::bad_request("reading request body", e))?,
                );
            }
            Ok(Some(out))
        }
    }
}

/// Parse the JSON body of `POST /v1/<mode>` into a runnable request.
pub fn parse_mode_request(mode: &str, body: &str) -> Result<ApiRequest, ApiError> {
    let doc =
        json::parse(body).map_err(|e| ApiError::bad_request("parsing request body as JSON", e))?;
    if doc.as_object().is_none() {
        return Err(ApiError::bad_request(
            "reading request body",
            "top-level value must be an object",
        ));
    }
    match mode {
        "solve" => {
            let input = parse_worksheet(require_str(&doc, "worksheet_toml")?)?;
            let target = require_f64(&doc, "target")?;
            let strict = optional_bool(&doc, "strict")?;
            Ok(ApiRequest::Solve {
                input,
                target,
                strict,
            })
        }
        "sweep" => {
            let input = parse_worksheet(require_str(&doc, "worksheet_toml")?)?;
            let param = parse_param(require_str(&doc, "param")?)
                .map_err(|e| ApiError::bad_request("reading request body", e))?;
            let values = f64_list(require(&doc, "values")?, "values")?;
            if values.is_empty() {
                return Err(ApiError::bad_request(
                    "reading request body",
                    "sweep needs at least one value",
                ));
            }
            if values.len() > MAX_SWEEP_VALUES {
                return Err(ApiError::bad_request(
                    "reading request body",
                    format!("at most {MAX_SWEEP_VALUES} sweep values per request"),
                ));
            }
            Ok(ApiRequest::Sweep {
                input,
                param,
                values,
            })
        }
        "uncertainty" => {
            let input = parse_worksheet(require_str(&doc, "worksheet_toml")?)?;
            let ranges_json = require(&doc, "ranges")?.as_array().ok_or_else(|| {
                ApiError::bad_request("reading request body", "'ranges' must be an array")
            })?;
            let mut ranges = Vec::with_capacity(ranges_json.len());
            for r in ranges_json {
                let param = parse_param(require_str(r, "param")?)
                    .map_err(|e| ApiError::bad_request("reading request body", e))?;
                let lo = require_f64(r, "lo")?;
                let hi = require_f64(r, "hi")?;
                ranges.push(ParamRange::new(param, lo, hi));
            }
            if ranges.is_empty() {
                return Err(ApiError::bad_request(
                    "reading request body",
                    "uncertainty needs at least one {param, lo, hi} range",
                ));
            }
            let samples = match optional_f64(&doc, "samples")? {
                None => DEFAULT_MC_SAMPLES,
                Some(s) if s.fract() == 0.0 && s >= 1.0 && s <= MAX_MC_SAMPLES as f64 => s as usize,
                Some(s) => {
                    return Err(ApiError::bad_request(
                        "reading request body",
                        format!("'samples' must be an integer in 1..={MAX_MC_SAMPLES}, got {s}"),
                    ))
                }
            };
            let seed = optional_seed(&doc)?;
            Ok(ApiRequest::Uncertainty {
                input,
                ranges,
                samples,
                seed,
            })
        }
        "explore" => {
            let input = parse_worksheet(require_str(&doc, "worksheet_toml")?)?;
            let min_speedup = require_f64(&doc, "min_speedup")?;
            let fclocks = optional_f64_list(&doc, "fclocks")?;
            let throughput_procs = optional_f64_list(&doc, "throughput_procs")?;
            let bufferings = parse_buffering_list(&doc)?;
            let corners = fclocks.as_ref().map_or(1, Vec::len)
                * throughput_procs.as_ref().map_or(1, Vec::len)
                * bufferings.as_ref().map_or(2, Vec::len);
            if corners > MAX_EXPLORE_CORNERS {
                return Err(ApiError::bad_request(
                    "reading request body",
                    format!("design space has {corners} corners; at most {MAX_EXPLORE_CORNERS}"),
                ));
            }
            Ok(ApiRequest::Explore {
                input,
                min_speedup,
                fclocks,
                throughput_procs,
                bufferings,
            })
        }
        "optimize" => {
            let input = parse_worksheet(require_str(&doc, "worksheet_toml")?)?;
            let seed = optional_seed(&doc)?;
            let small_int = |key: &str, max: f64| -> Result<Option<f64>, ApiError> {
                match optional_f64(&doc, key)? {
                    None => Ok(None),
                    Some(v) if v.fract() == 0.0 && v >= 1.0 && v <= max => Ok(Some(v)),
                    Some(v) => Err(ApiError::bad_request(
                        "reading request body",
                        format!("'{key}' must be an integer in 1..={max}, got {v}"),
                    )),
                }
            };
            let generations = small_int("generations", 1.0e6)?.map(|v| v as u32);
            let population =
                small_int("population", MAX_OPTIMIZE_EVALS as f64)?.map(|v| v as usize);
            let defaults = OptimizeConfig::default();
            let evals = u64::from(generations.unwrap_or(defaults.generations))
                .saturating_mul(population.unwrap_or(defaults.population) as u64);
            if evals > MAX_OPTIMIZE_EVALS {
                return Err(ApiError::bad_request(
                    "reading request body",
                    format!(
                        "generations x population is {evals} evaluations; \
                         at most {MAX_OPTIMIZE_EVALS}"
                    ),
                ));
            }
            let pair = |key: &str| -> Result<Option<(f64, f64)>, ApiError> {
                match optional_f64_list(&doc, key)? {
                    None => Ok(None),
                    Some(v) if v.len() == 2 => Ok(Some((v[0], v[1]))),
                    Some(v) => Err(ApiError::bad_request(
                        "reading request body",
                        format!("'{key}' must be a [lo, hi] pair, got {} values", v.len()),
                    )),
                }
            };
            let fclock_range = pair("fclock_range")?;
            let throughput_range = pair("throughput_range")?;
            let bufferings = parse_buffering_list(&doc)?;
            let devices = optional_str_list(&doc, "devices")?;
            let precision_bits = match optional_f64_list(&doc, "precision_bits")? {
                None => None,
                Some(v) => {
                    let mut bits = Vec::with_capacity(v.len());
                    for b in v {
                        if b.fract() != 0.0 || !(1.0..=63.0).contains(&b) {
                            return Err(ApiError::bad_request(
                                "reading request body",
                                format!("'precision_bits' must be integers in 1..=63, got {b}"),
                            ));
                        }
                        bits.push(b as u32);
                    }
                    Some(bits)
                }
            };
            Ok(ApiRequest::Optimize {
                input,
                spec: OptimizeSpec {
                    seed,
                    generations,
                    population,
                    fclock_range,
                    throughput_range,
                    bufferings,
                    devices,
                    precision_bits,
                },
            })
        }
        "sensitivity" => {
            let input = parse_worksheet(require_str(&doc, "worksheet_toml")?)?;
            Ok(ApiRequest::Sensitivity { input })
        }
        "simulate" => {
            let app = require_str(&doc, "app")?.to_string();
            let mhz = require_f64(&doc, "mhz")?;
            Ok(ApiRequest::Simulate { app, mhz })
        }
        other => Err(ApiError::UnknownRoute(format!("/v1/{other}"))),
    }
}

/// Run a parsed request on `engine`, memoizing simulations through `cache`.
/// The success value's `report` is byte-identical to the CLI's stdout for
/// the same inputs.
pub fn handle(
    engine: &Engine,
    req: &ApiRequest,
    cache: Option<&SimCache>,
) -> Result<ApiOk, ApiError> {
    let mode = req.mode();
    let wrap = |input: &RatInput, source: RatError| {
        ApiError::Mode(ModeError::with_context(
            format!("running {mode} for worksheet '{}'", input.name),
            source,
        ))
    };
    let report = match req {
        ApiRequest::Solve {
            input,
            target,
            strict,
        } => {
            if *strict {
                solve_report_strict(input, *target).map_err(ApiError::Mode)?
            } else {
                solve_report(input, *target)
            }
        }
        ApiRequest::Sweep {
            input,
            param,
            values,
        } => sweep_report(engine, input, *param, values).map_err(|e| wrap(input, e))?,
        ApiRequest::Uncertainty {
            input,
            ranges,
            samples,
            seed,
        } => {
            let seed = seed.unwrap_or(engine.config().root_seed);
            uncertainty_report(engine, input, ranges, *samples, seed).map_err(|e| wrap(input, e))?
        }
        ApiRequest::Explore {
            input,
            min_speedup,
            fclocks,
            throughput_procs,
            bufferings,
        } => explore_report(
            input,
            *min_speedup,
            fclocks.clone(),
            throughput_procs.clone(),
            bufferings.clone(),
        )
        .map_err(|e| wrap(input, e))?,
        ApiRequest::Optimize { input, spec } => {
            optimize_report(engine, input, spec).map_err(|e| wrap(input, e))?
        }
        ApiRequest::Sensitivity { input } => {
            sensitivity_report(engine, input).map_err(|e| wrap(input, e))?
        }
        ApiRequest::Simulate { app, mhz } => {
            simulate_report(app, *mhz, cache).map_err(ApiError::Mode)?
        }
    };
    Ok(ApiOk { mode, report })
}

/// A convenience for tests and the load generator: the Freq type the CLI
/// uses for clock arguments, re-exported so callers need not depend on
/// `rat-core` directly for it.
pub type Clock = Freq;

#[cfg(test)]
mod tests {
    use super::*;

    fn ws_toml() -> String {
        toml::to_string(&rat_apps::pdf::pdf1d::rat_input(150.0e6)).expect("serializable")
    }

    #[test]
    fn status_table_mirrors_cli_exit_codes() {
        // exit 3 → 400, exit 4 → 422, exit 5 → 500, exit 6 → 507.
        assert_eq!(http_status(&RatError::InvalidParameter("x".into())), 400);
        assert_eq!(http_status(&RatError::quantity("comp.fclock", "bad")), 400);
        assert_eq!(http_status(&RatError::Infeasible("wall".into())), 422);
        assert_eq!(http_status(&RatError::simulation("diverged")), 500);
        assert_eq!(http_status(&RatError::cache_io("disk")), 507);
        // exit 2 (usage) → 400 at the protocol layer.
        assert_eq!(ApiError::bad_request("x", "y").status(), 400);
    }

    #[test]
    fn protocol_errors_have_distinct_statuses() {
        assert_eq!(ApiError::UnknownRoute("/nope".into()).status(), 404);
        assert_eq!(
            ApiError::WrongMethod {
                path: "/metrics".into(),
                allowed: "GET"
            }
            .status(),
            405
        );
        assert_eq!(ApiError::Timeout.status(), 408);
        assert_eq!(ApiError::TooLarge { limit: 1 }.status(), 413);
        assert_eq!(ApiError::Busy.status(), 503);
    }

    #[test]
    fn error_bodies_carry_the_cause_chain() {
        let e = ApiError::Mode(ModeError::with_context(
            "solving 'x' for 10x speedup",
            RatError::Infeasible("communication alone exceeds budget".into()),
        ));
        let body = e.to_json();
        assert!(
            body.contains("\"error\": \"solving 'x' for 10x speedup\""),
            "{body}"
        );
        assert!(body.contains("caused_by"), "{body}");
        assert!(body.contains("infeasible: communication"), "{body}");
    }

    #[test]
    fn escape_handles_quotes_newlines_and_controls() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
        // Round-trips through the strict reader.
        let s = "line1\nline2\t\"quoted\"";
        let doc = json::parse(&format!("{{\"x\": \"{}\"}}", escape_json(s))).unwrap();
        assert_eq!(doc.get("x").and_then(Json::as_str), Some(s));
    }

    #[test]
    fn parse_solve_request_round_trips() {
        let body = format!(
            "{{\"worksheet_toml\": \"{}\", \"target\": 8.0}}",
            escape_json(&ws_toml())
        );
        let req = parse_mode_request("solve", &body).unwrap();
        match &req {
            ApiRequest::Solve {
                input,
                target,
                strict,
            } => {
                assert_eq!(input.dataset.elements_in, 512);
                assert_eq!(*target, 8.0);
                assert!(!strict);
            }
            other => panic!("wrong variant: {other:?}"),
        }
        let ok = handle(&Engine::sequential(), &req, None).unwrap();
        assert_eq!(ok.mode, "solve");
        assert_eq!(
            ok.report,
            solve_report(&rat_apps::pdf::pdf1d::rat_input(150.0e6), 8.0)
        );
    }

    #[test]
    fn parse_rejects_missing_and_mistyped_fields() {
        assert!(matches!(
            parse_mode_request("solve", "{\"target\": 8}"),
            Err(ApiError::BadRequest { .. })
        ));
        assert!(matches!(
            parse_mode_request("solve", "not json"),
            Err(ApiError::BadRequest { .. })
        ));
        assert!(matches!(
            parse_mode_request("solve", "[1,2]"),
            Err(ApiError::BadRequest { .. })
        ));
        let body = format!(
            "{{\"worksheet_toml\": \"{}\", \"target\": \"ten\"}}",
            escape_json(&ws_toml())
        );
        assert!(matches!(
            parse_mode_request("solve", &body),
            Err(ApiError::BadRequest { .. })
        ));
        let body = format!(
            "{{\"worksheet_toml\": \"{}\", \"param\": \"warp\", \"values\": [1]}}",
            escape_json(&ws_toml())
        );
        assert!(matches!(
            parse_mode_request("sweep", &body),
            Err(ApiError::BadRequest { .. })
        ));
    }

    #[test]
    fn seeds_are_accepted_exactly_below_2_pow_53() {
        let ws = escape_json(&ws_toml());
        let below = (1u64 << 53) - 1;
        for (mode, extra) in [
            (
                "uncertainty",
                ", \"ranges\": [{\"param\": \"fclock\", \"lo\": 75e6, \"hi\": 150e6}]",
            ),
            ("optimize", ""),
        ] {
            let body =
                |seed: u64| format!("{{\"worksheet_toml\": \"{ws}\"{extra}, \"seed\": {seed}}}");
            let seed = match parse_mode_request(mode, &body(below)) {
                Ok(ApiRequest::Uncertainty { seed, .. }) => seed,
                Ok(ApiRequest::Optimize { spec, .. }) => spec.seed,
                other => panic!("{mode}: 2^53 - 1 rejected: {other:?}"),
            };
            assert_eq!(seed, Some(below), "{mode}");
            assert!(
                matches!(
                    parse_mode_request(mode, &body(1u64 << 53)),
                    Err(ApiError::BadRequest { .. })
                ),
                "{mode}: 2^53 accepted"
            );
        }
    }

    #[test]
    fn invalid_worksheet_maps_to_the_taxonomy_not_400_json() {
        let bad = ws_toml().replace("150000000.0", "-1.0");
        let body = format!(
            "{{\"worksheet_toml\": \"{}\", \"target\": 8.0}}",
            escape_json(&bad)
        );
        let err = parse_mode_request("solve", &body).unwrap_err();
        assert_eq!(err.status(), 400, "{err:?}");
        assert!(err.to_json().contains("fclock"), "{}", err.to_json());
    }

    #[test]
    fn simulate_report_is_deterministic_and_cached() {
        let cache = SimCache::new();
        let a = simulate_report("pdf1d", 150.0, Some(&cache)).unwrap();
        let before = cache.stats();
        let b = simulate_report("pdf1d", 150.0, Some(&cache)).unwrap();
        let after = cache.stats();
        assert_eq!(a, b);
        assert!(after.hits > before.hits, "{after:?} vs {before:?}");
        assert!(a.contains("total (t_RC)"), "{a}");
        // Bad inputs are simulation-class errors, not panics.
        let err = simulate_report("pdf1d", 0.0, Some(&cache)).unwrap_err();
        assert_eq!(http_status(&err.source), 500);
        let err = simulate_report("warp", 100.0, Some(&cache)).unwrap_err();
        assert!(err.source.to_string().contains("unknown case study"));
    }

    #[test]
    fn explore_defaults_mirror_the_cli() {
        let input = rat_apps::pdf::pdf1d::rat_input(150.0e6);
        let via_api = explore_report(&input, 5.0, None, None, None).unwrap();
        let space = DesignSpace {
            base: input.clone(),
            fclocks: vec![input.comp.fclock.hz()],
            throughput_procs: vec![input.comp.throughput_proc],
            bufferings: vec![Buffering::Single, Buffering::Double],
        };
        assert_eq!(via_api, explore(&space, 5.0).unwrap().render());
    }
}
