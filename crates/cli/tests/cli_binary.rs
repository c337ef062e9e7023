//! True end-to-end tests of the `rat` binary: spawn the compiled executable
//! against the shipped worksheets and inspect stdout/exit codes, the way a
//! user's shell would.

use std::path::PathBuf;
use std::process::Command;

fn rat_binary() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_rat"))
}

fn worksheet(name: &str) -> String {
    format!(
        "{}/../../worksheets/{name}.toml",
        env!("CARGO_MANIFEST_DIR")
    )
}

fn run_rat(args: &[&str]) -> (String, String, bool) {
    let (stdout, stderr, code) = run_rat_code(args);
    (stdout, stderr, code == 0)
}

/// Spawn the binary, returning the exact exit code (the CLI's error
/// taxonomy maps failure classes to distinct codes; see DESIGN.md §10).
fn run_rat_code(args: &[&str]) -> (String, String, i32) {
    let out = Command::new(rat_binary())
        .args(args)
        .output()
        .expect("spawning the rat binary");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().expect("rat exited with a code"),
    )
}

#[test]
fn analyze_shipped_pdf1d_worksheet() {
    let (stdout, stderr, ok) = run_rat(&["analyze", &worksheet("pdf1d")]);
    assert!(ok, "stderr: {stderr}");
    assert!(
        stdout.contains("10.6"),
        "missing Table-3 speedup:\n{stdout}"
    );
    assert!(stdout.contains("computation-bound"), "{stdout}");
}

#[test]
fn solve_on_shipped_md_worksheet_recovers_the_tuning() {
    let (stdout, _, ok) = run_rat(&["solve", &worksheet("md"), "10.7"]);
    assert!(ok);
    // §5.2's tuned value: ~50 ops/cycle.
    assert!(
        stdout.contains("required throughput_proc: 50.0 ops/cycle"),
        "{stdout}"
    );
}

#[test]
fn unknown_command_fails_with_usage_hint() {
    let (_, stderr, ok) = run_rat(&["bogus"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"), "{stderr}");
}

#[test]
fn missing_worksheet_is_a_clean_error() {
    let (_, stderr, ok) = run_rat(&["analyze", "/nonexistent/path.toml"]);
    assert!(!ok);
    assert!(stderr.contains("reading"), "{stderr}");
}

#[test]
fn help_exits_zero() {
    let (stdout, _, ok) = run_rat(&["help"]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
}

// ---- exit-code taxonomy: one test per failure class, each asserting the
// ---- `caused by:` source chain renders so the user sees both the CLI
// ---- context and the underlying model error.

#[test]
fn infeasible_strict_solve_exits_4_with_cause_chain() {
    // No design reaches a billionfold speedup: communication alone exceeds
    // the per-iteration budget, so `solve --strict` must fail infeasible.
    let (stdout, stderr, code) = run_rat_code(&["solve", "--strict", &worksheet("pdf1d"), "1e9"]);
    assert_eq!(code, 4, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stderr.contains("error: solving"), "{stderr}");
    assert!(stderr.contains("caused by: infeasible:"), "{stderr}");
    // Without --strict the same target renders inline and exits 0.
    let (stdout, _, code) = run_rat_code(&["solve", &worksheet("pdf1d"), "1e9"]);
    assert_eq!(code, 0);
    assert!(stdout.contains("infeasible"), "{stdout}");
}

#[test]
fn simulation_failure_exits_5_with_cause_chain() {
    // A zero clock, or one past the simulator's (0, 1e6] MHz band, is user
    // input the simulator rejects; the CLI must report what it was doing
    // (context) plus the simulator's reason (cause).
    for mhz in ["0", "1e9"] {
        let (_, stderr, code) = run_rat_code(&["trace", "pdf1d", "--mhz", mhz]);
        assert_eq!(code, 5, "--mhz {mhz}: {stderr}");
        assert!(stderr.contains("error: simulating pdf1d"), "{stderr}");
        assert!(stderr.contains("caused by: simulation failed:"), "{stderr}");
    }
}

#[test]
fn inverted_uncertainty_range_exits_3_naming_the_parameter() {
    // A checked value, not an assertion: no panic (exit 101), but exit 3
    // with the parameter named on the cause chain.
    let (_, stderr, code) = run_rat_code(&[
        "uncertainty",
        &worksheet("pdf1d"),
        "fclock",
        "150e6",
        "75e6",
    ]);
    assert_eq!(code, 3, "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(
        stderr.contains("caused by: invalid quantity in field `ranges.fclock`"),
        "{stderr}"
    );
}

#[test]
fn unwritable_profile_path_exits_6_with_cause_chain() {
    // The analysis succeeds, but the `--profile` output cannot be written:
    // that I/O failure becomes the exit code, with the OS reason underneath.
    let (_, stderr, code) = run_rat_code(&[
        "--profile",
        "/nonexistent-rat-dir/profile.json",
        "analyze",
        &worksheet("pdf1d"),
    ]);
    assert_eq!(code, 6, "stderr: {stderr}");
    assert!(
        stderr.contains("/nonexistent-rat-dir/profile.json"),
        "{stderr}"
    );
    assert!(stderr.contains("caused by:"), "{stderr}");
}

#[test]
fn deeply_nested_worksheet_exits_3_not_a_stack_overflow() {
    // 200,000 nested arrays would recurse the TOML parser off the main
    // thread's stack (an abort, exit 134); the depth limit makes it an
    // ordinary parse error.
    let depth = 200_000;
    let path = std::env::temp_dir().join(format!("rat-deep-{}.toml", std::process::id()));
    std::fs::write(
        &path,
        format!("a = {}{}\n", "[".repeat(depth), "]".repeat(depth)),
    )
    .unwrap();
    let (_, stderr, code) = run_rat_code(&["analyze", path.to_str().unwrap()]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(code, 3, "stderr: {stderr}");
    assert!(
        stderr.contains("TOML parse error: arrays and inline tables nest deeper than 128 levels"),
        "{stderr}"
    );
}

#[test]
fn trace_mhz_override_is_reflected_in_output() {
    let (stdout, _, code) = run_rat_code(&["trace", "pdf1d", "--mhz", "100"]);
    assert_eq!(code, 0);
    assert!(stdout.contains("simulated at 100 MHz"), "{stdout}");
}

/// `rat ... | head`: a reader that closes the pipe early is not a failure.
/// Each command's output is spawned with stdout piped and the read end
/// dropped at once; the trace CSV is larger than a pipe buffer, so its write
/// is certain to hit the closed pipe.
#[test]
fn closed_stdout_pipe_exits_quietly() {
    for args in [
        vec!["sensitivity".to_string(), worksheet("pdf1d")],
        vec!["trace".to_string(), "sort".to_string(), "--csv".to_string()],
    ] {
        let mut child = Command::new(rat_binary())
            .args(&args)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawning the rat binary");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("collect rat output");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "rat {args:?}: {stderr}");
        assert_eq!(out.status.code(), Some(0), "rat {args:?}: {stderr}");
    }
}
