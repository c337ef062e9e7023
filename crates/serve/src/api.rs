//! The analysis API surface shared by the CLI and the server.
//!
//! There is one typed request, [`ApiRequest`], and one dispatcher,
//! [`handle`]. The server parses a JSON body into an `ApiRequest`
//! ([`parse_mode_request`]); the CLI parses its argv into the same type.
//! Each front end checks only its own syntax (argv tokens; JSON types and
//! the 2^53 seed limit). Every rule about a field's *value* lives in
//! [`ApiRequest::check`], which both parsers call. `handle` then resolves
//! the remaining defaults and renders the **exact report text** the CLI
//! prints; the server wraps it in a one-field JSON envelope. That single
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
//! | invalid parameter, quantity, or TOML; a value rule | 3 | 400 |
//! | infeasible | 4 | 422 |
//! | simulation failure | 5 | 500 |
//! | cache I/O failure | 6 | 507 |
//!
//! plus the protocol-level codes an HTTP surface needs: 404 unknown route,
//! 405 wrong method, 408 request timeout, 413 oversized body, 503 queue
//! full / draining.

use fixedpoint::format::MAX_TOTAL_BITS;
use fixedpoint::QFormat;
use fpga_sim::SimCache;
use rat_apps::case_study::CaseStudy;
use rat_core::engine::Engine;
use rat_core::explore::{explore, DesignSpace};
use rat_core::optimize::{optimize, OptimizeConfig, OptimizeSpace};
use rat_core::params::{Buffering, RatInput};
use rat_core::quantity::Freq;
use rat_core::sweep::SweepParam;
use rat_core::telemetry::json::{self, Json};
use rat_core::uncertainty::ParamRange;
use rat_core::RatError;

/// Monte-Carlo sample count used when a request does not specify one (the
/// CLI's `uncertainty` command never does).
pub const DEFAULT_MC_SAMPLES: usize = 10_000;

/// Upper bound on Monte-Carlo samples per request: a resident service must
/// not let one request monopolize the workers.
pub const MAX_MC_SAMPLES: usize = 1_000_000;

/// Upper bound on sweep values per request.
pub const MAX_SWEEP_VALUES: usize = 100_000;

/// Upper bound on design-space corners per explore request.
pub const MAX_EXPLORE_CORNERS: usize = 1_000_000;

/// Upper bound on guided-search evaluations (generations × population) per
/// optimize request; it also caps each factor.
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

/// Every sweep-parameter name both front ends accept, with its parameter.
const PARAMS: [(&str, SweepParam); 8] = [
    ("fclock", SweepParam::Fclock),
    ("alpha-write", SweepParam::AlphaWrite),
    ("alpha-read", SweepParam::AlphaRead),
    ("alpha", SweepParam::AlphaBoth),
    ("throughput-proc", SweepParam::ThroughputProc),
    ("ops-per-element", SweepParam::OpsPerElement),
    ("elements-in", SweepParam::ElementsIn),
    ("iterations", SweepParam::Iterations),
];

/// Parse a sweep-parameter name. The accepted names are the CLI's.
pub fn parse_param(name: &str) -> Result<SweepParam, String> {
    PARAMS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, p)| p)
        .ok_or_else(|| format!("unknown sweep parameter '{name}'"))
}

/// The name [`parse_param`] accepts for `param`.
fn param_name(param: SweepParam) -> &'static str {
    PARAMS
        .iter()
        .find(|(_, p)| *p == param)
        .map_or("?", |&(n, _)| n)
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
/// worksheet. `None` axes take the [`DesignSpace::around`] defaults.
pub fn explore_report(
    input: &RatInput,
    min_speedup: f64,
    fclocks: Option<Vec<f64>>,
    throughput_procs: Option<Vec<f64>>,
    bufferings: Option<Vec<Buffering>>,
) -> Result<String, RatError> {
    let space = DesignSpace::around(input.clone(), fclocks, throughput_procs, bufferings);
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
    let summary = CaseStudy::find(app)
        .map_err(|e| wrap(RatError::simulation(e)))?
        .simulate_summary(mhz, cache)
        .map_err(wrap)?;
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
// The one request type, its value rules, the JSON parser, and the dispatcher.
// ---------------------------------------------------------------------------

/// A parsed analysis request, built from a JSON body or from CLI argv.
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
        /// Monte-Carlo sample count; `None` uses [`DEFAULT_MC_SAMPLES`].
        samples: Option<usize>,
        /// Explicit RNG seed; `None` uses the engine's root seed.
        seed: Option<u64>,
    },
    /// `POST /v1/explore`
    Explore {
        /// The corner space, its base design the validated worksheet.
        space: DesignSpace,
        /// Pass/fail speedup threshold.
        min_speedup: f64,
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

    /// The request's worksheet; `None` for `simulate`, which has none.
    fn input(&self) -> Option<&RatInput> {
        match self {
            ApiRequest::Solve { input, .. }
            | ApiRequest::Sweep { input, .. }
            | ApiRequest::Uncertainty { input, .. }
            | ApiRequest::Optimize { input, .. }
            | ApiRequest::Sensitivity { input } => Some(input),
            ApiRequest::Explore { space, .. } => Some(&space.base),
            ApiRequest::Simulate { .. } => None,
        }
    }

    /// Check every rule about a field's value: non-empty lists, finite and
    /// ordered ranges inside the parameter's domain, the `MAX_*` caps, the
    /// `samples`, `generations` and `population` bounds, the evaluation
    /// budget, and `precision_bits`. Both front ends call this once their
    /// own syntax has parsed, so argv and JSON accept exactly the same
    /// values. A failure is an [`RatError::InvalidQuantity`] naming the
    /// field: CLI exit 3, HTTP 400.
    pub fn check(&self) -> Result<(), ApiError> {
        let Some(input) = self.input() else {
            return Ok(());
        };
        self.value_rules().map_err(|source| {
            ApiError::Mode(ModeError::with_context(
                format!(
                    "checking {} request for worksheet '{}'",
                    self.mode(),
                    input.name
                ),
                source,
            ))
        })
    }

    fn value_rules(&self) -> Result<(), RatError> {
        match self {
            ApiRequest::Sweep { values, .. } => {
                non_empty("values", values.len())?;
                at_most(
                    "values",
                    values.len() as u64,
                    MAX_SWEEP_VALUES as u64,
                    "values",
                )
            }
            ApiRequest::Uncertainty {
                input,
                ranges,
                samples,
                ..
            } => {
                non_empty("ranges", ranges.len())?;
                for r in ranges {
                    check_range(input, r)?;
                }
                match *samples {
                    Some(n) => within("samples", n as u64, MAX_MC_SAMPLES as u64),
                    None => Ok(()),
                }
            }
            ApiRequest::Explore { space, .. } => {
                non_empty("fclocks", space.fclocks.len())?;
                non_empty("throughput_procs", space.throughput_procs.len())?;
                non_empty("bufferings", space.bufferings.len())?;
                at_most(
                    "fclocks x throughput_procs x bufferings",
                    space.size() as u64,
                    MAX_EXPLORE_CORNERS as u64,
                    "corners",
                )
            }
            ApiRequest::Optimize { spec, .. } => {
                for (field, len) in [
                    ("bufferings", spec.bufferings.as_ref().map(Vec::len)),
                    ("devices", spec.devices.as_ref().map(Vec::len)),
                    ("precision_bits", spec.precision_bits.as_ref().map(Vec::len)),
                ] {
                    len.map_or(Ok(()), |n| non_empty(field, n))?;
                }
                let defaults = OptimizeConfig::default();
                let generations = u64::from(spec.generations.unwrap_or(defaults.generations));
                let population = spec.population.unwrap_or(defaults.population) as u64;
                within("generations", generations, MAX_OPTIMIZE_EVALS)?;
                within("population", population, MAX_OPTIMIZE_EVALS)?;
                at_most(
                    "generations x population",
                    generations.saturating_mul(population),
                    MAX_OPTIMIZE_EVALS,
                    "evaluations",
                )?;
                for &bits in spec.precision_bits.iter().flatten() {
                    within("precision_bits", bits.into(), MAX_TOTAL_BITS.into())?;
                }
                Ok(())
            }
            ApiRequest::Solve { .. }
            | ApiRequest::Sensitivity { .. }
            | ApiRequest::Simulate { .. } => Ok(()),
        }
    }
}

fn non_empty(field: &str, len: usize) -> Result<(), RatError> {
    if len == 0 {
        return Err(RatError::quantity(field, "needs at least one value"));
    }
    Ok(())
}

fn within(field: &str, n: u64, max: u64) -> Result<(), RatError> {
    if !(1..=max).contains(&n) {
        return Err(RatError::quantity(
            field,
            format!("must be in 1..={max}, got {n}"),
        ));
    }
    Ok(())
}

fn at_most(field: &str, n: u64, max: u64, what: &str) -> Result<(), RatError> {
    if n > max {
        return Err(RatError::quantity(
            field,
            format!("{n} {what}; at most {max}"),
        ));
    }
    Ok(())
}

/// An uncertainty range must be finite and ordered, and both endpoints must
/// pass the same worksheet validation a sweep applies to each value. The
/// domains are intervals, so every sample between valid endpoints is valid.
fn check_range(input: &RatInput, r: &ParamRange) -> Result<(), RatError> {
    let field = format!("ranges.{}", param_name(r.param));
    if !(r.lo.is_finite() && r.hi.is_finite()) {
        return Err(RatError::quantity(
            field,
            format!("bounds must be finite, got [{}, {}]", r.lo, r.hi),
        ));
    }
    if r.lo > r.hi {
        return Err(RatError::quantity(
            field,
            format!(
                "empty range: lower bound {} exceeds upper bound {}",
                r.lo, r.hi
            ),
        ));
    }
    for v in [r.lo, r.hi] {
        if let Err(e) = r.param.apply(input, v).validate() {
            return Err(RatError::quantity(field, format!("endpoint {v}: {e}")));
        }
    }
    Ok(())
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

fn bad_body(cause: impl Into<String>) -> ApiError {
    ApiError::bad_request("reading request body", cause)
}

fn require<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, ApiError> {
    doc.get(key)
        .ok_or_else(|| bad_body(format!("missing '{key}'")))
}

fn require_str<'a>(doc: &'a Json, key: &str) -> Result<&'a str, ApiError> {
    require(doc, key)?
        .as_str()
        .ok_or_else(|| bad_body(format!("'{key}' must be a string")))
}

fn require_f64(doc: &Json, key: &str) -> Result<f64, ApiError> {
    require(doc, key)?
        .as_f64()
        .ok_or_else(|| bad_body(format!("'{key}' must be a number")))
}

fn optional_f64(doc: &Json, key: &str) -> Result<Option<f64>, ApiError> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| bad_body(format!("'{key}' must be a number"))),
    }
}

/// A JSON number that must be a non-negative integer below 2^53, the range
/// in which every integer is an exact JSON number.
fn uint(v: f64, key: &str) -> Result<u64, ApiError> {
    const LIMIT: f64 = (1u64 << 53) as f64;
    if v.fract() == 0.0 && (0.0..LIMIT).contains(&v) {
        Ok(v as u64)
    } else {
        Err(bad_body(format!(
            "'{key}' must be a non-negative integer below 2^53, got {v}"
        )))
    }
}

fn optional_uint(doc: &Json, key: &str) -> Result<Option<u64>, ApiError> {
    optional_f64(doc, key)?.map(|v| uint(v, key)).transpose()
}

fn optional_bool(doc: &Json, key: &str) -> Result<bool, ApiError> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(false),
        Some(Json::Bool(b)) => Ok(*b),
        Some(_) => Err(bad_body(format!("'{key}' must be a boolean"))),
    }
}

fn f64_list(v: &Json, key: &str) -> Result<Vec<f64>, ApiError> {
    v.as_array()
        .ok_or_else(|| bad_body(format!("'{key}' must be an array")))?
        .iter()
        .map(|x| {
            x.as_f64()
                .ok_or_else(|| bad_body(format!("'{key}' must contain only numbers")))
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
    let not_strings = || bad_body(format!("'{key}' must be an array of strings"));
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_array()
            .ok_or_else(not_strings)?
            .iter()
            .map(|s| s.as_str().map(str::to_string).ok_or_else(not_strings))
            .collect::<Result<_, _>>()
            .map(Some),
    }
}

fn parse_buffering_list(doc: &Json) -> Result<Option<Vec<Buffering>>, ApiError> {
    optional_str_list(doc, "bufferings")?
        .map(|names| {
            names
                .iter()
                .map(|n| parse_buffering(n).map_err(bad_body))
                .collect()
        })
        .transpose()
}

/// Parse the JSON body of `POST /v1/<mode>` into a runnable request, then
/// apply [`ApiRequest::check`].
pub fn parse_mode_request(mode: &str, body: &str) -> Result<ApiRequest, ApiError> {
    let doc =
        json::parse(body).map_err(|e| ApiError::bad_request("parsing request body as JSON", e))?;
    if doc.as_object().is_none() {
        return Err(bad_body("top-level value must be an object"));
    }
    let worksheet = || parse_worksheet(require_str(&doc, "worksheet_toml")?);
    let req = match mode {
        "solve" => ApiRequest::Solve {
            input: worksheet()?,
            target: require_f64(&doc, "target")?,
            strict: optional_bool(&doc, "strict")?,
        },
        "sweep" => ApiRequest::Sweep {
            input: worksheet()?,
            param: parse_param(require_str(&doc, "param")?).map_err(bad_body)?,
            values: f64_list(require(&doc, "values")?, "values")?,
        },
        "uncertainty" => {
            let input = worksheet()?;
            let ranges = require(&doc, "ranges")?
                .as_array()
                .ok_or_else(|| bad_body("'ranges' must be an array"))?
                .iter()
                .map(|r| {
                    Ok(ParamRange {
                        param: parse_param(require_str(r, "param")?).map_err(bad_body)?,
                        lo: require_f64(r, "lo")?,
                        hi: require_f64(r, "hi")?,
                    })
                })
                .collect::<Result<_, ApiError>>()?;
            ApiRequest::Uncertainty {
                input,
                ranges,
                samples: optional_uint(&doc, "samples")?.map(|n| n as usize),
                seed: optional_uint(&doc, "seed")?,
            }
        }
        "explore" => {
            let input = worksheet()?;
            let min_speedup = require_f64(&doc, "min_speedup")?;
            ApiRequest::Explore {
                space: DesignSpace::around(
                    input,
                    optional_f64_list(&doc, "fclocks")?,
                    optional_f64_list(&doc, "throughput_procs")?,
                    parse_buffering_list(&doc)?,
                ),
                min_speedup,
            }
        }
        "optimize" => {
            let input = worksheet()?;
            let pair = |key: &str| -> Result<Option<(f64, f64)>, ApiError> {
                match optional_f64_list(&doc, key)? {
                    None => Ok(None),
                    Some(v) if v.len() == 2 => Ok(Some((v[0], v[1]))),
                    Some(v) => Err(bad_body(format!(
                        "'{key}' must be a [lo, hi] pair, got {} values",
                        v.len()
                    ))),
                }
            };
            let precision_bits = optional_f64_list(&doc, "precision_bits")?
                .map(|bits| {
                    bits.into_iter()
                        .map(|b| uint(b, "precision_bits").map(saturate_u32))
                        .collect()
                })
                .transpose()?;
            ApiRequest::Optimize {
                input,
                spec: OptimizeSpec {
                    seed: optional_uint(&doc, "seed")?,
                    generations: optional_uint(&doc, "generations")?.map(saturate_u32),
                    population: optional_uint(&doc, "population")?.map(|n| n as usize),
                    fclock_range: pair("fclock_range")?,
                    throughput_range: pair("throughput_range")?,
                    bufferings: parse_buffering_list(&doc)?,
                    devices: optional_str_list(&doc, "devices")?,
                    precision_bits,
                },
            }
        }
        "sensitivity" => ApiRequest::Sensitivity {
            input: worksheet()?,
        },
        "simulate" => ApiRequest::Simulate {
            app: require_str(&doc, "app")?.to_string(),
            mhz: require_f64(&doc, "mhz")?,
        },
        other => return Err(ApiError::UnknownRoute(format!("/v1/{other}"))),
    };
    req.check()?;
    Ok(req)
}

/// A JSON integer too wide for `u32` saturates, so the value check (not a
/// type error) names it.
fn saturate_u32(n: u64) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

/// Run a request on `engine`, memoizing simulations through `cache`: the one
/// dispatcher for the CLI and the server. Unset seeds and sample counts
/// resolve here. The success value's `report` is byte-identical to the
/// CLI's stdout for the same inputs.
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
        } => uncertainty_report(
            engine,
            input,
            ranges,
            samples.unwrap_or(DEFAULT_MC_SAMPLES),
            seed.unwrap_or(engine.config().root_seed),
        )
        .map_err(|e| wrap(input, e))?,
        ApiRequest::Explore { space, min_speedup } => explore(space, *min_speedup)
            .map_err(|e| wrap(&space.base, e))?
            .render(),
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

    /// The value error `parse_mode_request` returns for `body`: a 400
    /// `InvalidQuantity`, whose rendered cause is returned.
    fn value_error(mode: &str, body: &str) -> String {
        match parse_mode_request(mode, body) {
            Err(ApiError::Mode(ModeError {
                context: Some(context),
                source: source @ RatError::InvalidQuantity { .. },
            })) => {
                assert!(
                    context.starts_with(&format!("checking {mode} request")),
                    "{context}"
                );
                source.to_string()
            }
            other => panic!("{mode}: expected a value error, got {other:?}"),
        }
    }

    #[test]
    fn uncertainty_ranges_are_checked_not_asserted() {
        let ws = escape_json(&ws_toml());
        let body = |param: &str, lo: &str, hi: &str| {
            format!(
                "{{\"worksheet_toml\": \"{ws}\", \
                 \"ranges\": [{{\"param\": \"{param}\", \"lo\": {lo}, \"hi\": {hi}}}]}}"
            )
        };
        let inverted = value_error("uncertainty", &body("fclock", "150e6", "75e6"));
        assert!(inverted.contains("`ranges.fclock`") && inverted.contains("empty range"));
        // A negative clock is what `/v1/sweep` rejects for each value.
        let domain = value_error("uncertainty", &body("fclock", "-1", "150e6"));
        assert!(
            domain.contains("`ranges.fclock`") && domain.contains("comp.fclock"),
            "{domain}"
        );
        let alpha = value_error("uncertainty", &body("alpha-write", "0.5", "1.5"));
        assert!(
            alpha.contains("`ranges.alpha-write`") && alpha.contains("(0, 1]"),
            "{alpha}"
        );
        assert!(parse_mode_request("uncertainty", &body("fclock", "75e6", "75e6")).is_ok());
    }

    #[test]
    fn value_rules_name_their_field() {
        let ws = escape_json(&ws_toml());
        for (mode, extra, field) in [
            (
                "sweep",
                ", \"param\": \"fclock\", \"values\": []",
                "`values`",
            ),
            ("uncertainty", ", \"ranges\": []", "`ranges`"),
            (
                "uncertainty",
                ", \"ranges\": [{\"param\": \"fclock\", \"lo\": 1, \"hi\": 2}], \"samples\": 0",
                "`samples`",
            ),
            (
                "explore",
                ", \"min_speedup\": 5, \"bufferings\": []",
                "`bufferings`",
            ),
            (
                "explore",
                ", \"min_speedup\": 5, \"fclocks\": []",
                "`fclocks`",
            ),
            ("optimize", ", \"population\": 0", "`population`"),
            ("optimize", ", \"generations\": 0", "`generations`"),
            (
                "optimize",
                ", \"generations\": 2000",
                "`generations x population`",
            ),
            ("optimize", ", \"precision_bits\": [64]", "`precision_bits`"),
            ("optimize", ", \"devices\": []", "`devices`"),
        ] {
            let body = format!("{{\"worksheet_toml\": \"{ws}\"{extra}}}");
            let cause = value_error(mode, &body);
            assert!(cause.contains(field), "{mode} {extra}: {cause}");
        }
    }

    #[test]
    fn explore_corner_cap_counts_the_resolved_space() {
        let ws = escape_json(&ws_toml());
        let clocks = vec!["1e8"; 1000].join(", ");
        // 1000 clocks x 1000 procs x both default bufferings = 2e6 corners.
        let body = format!(
            "{{\"worksheet_toml\": \"{ws}\", \"min_speedup\": 5, \
             \"fclocks\": [{clocks}], \"throughput_procs\": [{}]}}",
            vec!["20"; 1000].join(", ")
        );
        let cause = value_error("explore", &body);
        assert!(cause.contains("2000000 corners"), "{cause}");
        // Omitted axes resolve to the same space as their explicit defaults.
        let input = rat_apps::pdf::pdf1d::rat_input(150.0e6);
        let omitted = format!("{{\"worksheet_toml\": \"{ws}\", \"min_speedup\": 5}}");
        match parse_mode_request("explore", &omitted).unwrap() {
            ApiRequest::Explore { space, .. } => {
                assert_eq!(space, DesignSpace::around(input, None, None, None));
                assert_eq!(space.size(), 2);
            }
            other => panic!("wrong variant: {other:?}"),
        }
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
