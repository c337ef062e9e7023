//! Processes under test: the `rat` build, a spawned `rat serve`, one-shot
//! CLI runs with per-child kernel accounting, and `/proc` readings.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::client::Client;

/// Build release `rat` from the tree at `root` and return its path. Cargo
/// does nothing when the binary is current, so a stale binary can never
/// produce the numbers.
pub fn build_rat(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "-p",
            "rat-cli",
            "--bin",
            "rat",
        ])
        .current_dir(root)
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of rat failed: {status}"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), |d| root.join(d));
    let rat = target.join("release").join("rat");
    if rat.is_file() {
        Ok(rat)
    } else {
        Err(format!("built rat not found at {}", rat.display()))
    }
}

/// A `Command` for `rat` that never persists its simulator cache, so each
/// process starts cold and writes nothing to disk.
pub fn rat_command(rat: &Path) -> Command {
    let mut cmd = Command::new(rat);
    cmd.env_remove("RAT_SIM_CACHE");
    cmd
}

/// A running `rat serve`. Dropping it kills and reaps the process, so no
/// error path leaves a server behind.
pub struct ServeProcess {
    child: Option<Child>,
    /// Where it listens.
    pub addr: SocketAddr,
    stderr: Option<std::thread::JoinHandle<()>>,
}

impl ServeProcess {
    /// Spawn `rat serve` on an ephemeral loopback port with `workers`
    /// workers and wait for its readiness line.
    pub fn spawn(rat: &Path, workers: usize) -> Result<Self, String> {
        let mut child = rat_command(rat)
            .args(["serve", "--port", "0", "--workers", &workers.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning rat serve: {e}"))?;
        let mut lines = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let read = lines.read_line(&mut line);
        let addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse::<SocketAddr>().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!(
                "rat serve did not announce an address ({read:?}): {line:?}"
            ));
        };
        // Keep draining stderr so the server can never block on it.
        let stderr = std::thread::spawn(move || {
            let _ = std::io::copy(&mut lines, &mut std::io::sink());
        });
        Ok(ServeProcess {
            child: Some(child),
            addr,
            stderr: Some(stderr),
        })
    }

    /// The server's pid.
    pub fn pid(&self) -> u32 {
        self.child.as_ref().expect("running").id()
    }

    /// Poll `/healthz` until it answers 200. Exactly one probe is answered
    /// (and counted by the server): earlier probes are refused connections.
    pub fn await_ready(&self, deadline: Duration) -> Result<(), String> {
        let start = Instant::now();
        loop {
            let mut c = Client::new(self.addr, Duration::from_secs(5));
            if let Ok(r) = c.get("/healthz") {
                if r.status == 200 {
                    return Ok(());
                }
                return Err(format!("/healthz answered {}", r.status));
            }
            if start.elapsed() > deadline {
                return Err("rat serve never became ready".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Ask for a drain and wait for a clean exit; kill if it takes longer
    /// than `grace`.
    pub fn shutdown(mut self, grace: Duration) -> Result<(), String> {
        let mut c = Client::new(self.addr, Duration::from_secs(5));
        let asked = c.post("/shutdown", "");
        drop(c);
        let mut child = self.child.take().expect("running");
        let start = Instant::now();
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if start.elapsed() < grace => std::thread::sleep(Duration::from_millis(5)),
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break None;
                }
            }
        };
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
        match (asked, status) {
            (Ok(r), Some(s)) if r.status == 200 && s.success() => Ok(()),
            (asked, status) => Err(format!(
                "rat serve did not drain cleanly (shutdown request {:?}, exit {status:?})",
                asked.map(|r| r.status)
            )),
        }
    }
}

impl Drop for ServeProcess {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

/// User+system CPU time of process `pid`, all threads, from
/// `/proc/<pid>/stat`.
pub fn process_cpu(pid: u32) -> Result<Duration, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("reading /proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<u64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| "malformed /proc stat".to_string())
    };
    let ticks = tick(11)? + tick(12)?;
    Ok(Duration::from_secs_f64(
        ticks as f64 / clock_ticks_per_sec(),
    ))
}

/// `VmHWM` (peak resident set) of process `pid`, in KiB.
pub fn peak_rss_kib(pid: u32) -> Result<u64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("reading /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM in /proc status".into())
}

/// Raw `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
/// `long` counters of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    counters: [i64; 14],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
    fn getrusage(who: i32, rusage: *mut RUsage) -> i32;
    fn sysconf(name: i32) -> i64;
}

fn timeval(t: [i64; 2]) -> Duration {
    Duration::from_secs(t[0] as u64) + Duration::from_micros(t[1] as u64)
}

/// User+system CPU time of this process, all threads, at microsecond
/// resolution (`getrusage(RUSAGE_SELF)`).
pub fn self_cpu() -> Duration {
    const RUSAGE_SELF: i32 = 0;
    let mut usage = RUsage::default();
    // SAFETY: `usage` is a valid, exclusively borrowed local of the layout
    // the kernel writes.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc == 0 {
        timeval(usage.utime) + timeval(usage.stime)
    } else {
        Duration::ZERO
    }
}

fn clock_ticks_per_sec() -> f64 {
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf only reads a configuration value; any argument is
    // allowed and an unknown one returns -1.
    let t = unsafe { sysconf(SC_CLK_TCK) };
    if t > 0 {
        t as f64
    } else {
        100.0
    }
}

/// One finished CLI run.
pub struct CliRun {
    /// Spawn to reap.
    pub wall: Duration,
    /// Child user+system CPU from the kernel's accounting.
    pub cpu: Duration,
    /// Child peak RSS, KiB.
    pub maxrss_kib: u64,
    /// Whether it exited with code 0.
    pub success: bool,
    /// Captured stdout.
    pub stdout: Vec<u8>,
    /// Captured stderr.
    pub stderr: Vec<u8>,
}

/// Run `cmd` to completion, timing spawn to reap, and read the child's own
/// CPU time and peak RSS with `wait4` (the per-child form of
/// `getrusage(RUSAGE_CHILDREN)`, which would also count the cargo build).
pub fn run_measured(mut cmd: Command) -> Result<CliRun, String> {
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let start = Instant::now();
    let mut child = cmd.spawn().map_err(|e| format!("spawning rat: {e}"))?;
    let mut out_pipe = child.stdout.take().expect("stdout is piped");
    let mut err_pipe = child.stderr.take().expect("stderr is piped");
    let err_reader = std::thread::spawn(move || {
        let mut v = Vec::new();
        let _ = err_pipe.read_to_end(&mut v);
        v
    });
    let mut stdout = Vec::new();
    let read = out_pipe.read_to_end(&mut stdout);
    let stderr = err_reader.join().unwrap_or_default();
    let pid = i32::try_from(child.id()).map_err(|_| "pid out of range")?;
    let mut status = 0i32;
    let mut usage = RUsage::default();
    // SAFETY: `pid` is our own unreaped child (std has not waited on it and
    // will not: `Child` never waits on drop), and both out-pointers are
    // valid, exclusively borrowed locals of the right layout.
    let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    let wall = start.elapsed();
    if reaped != pid {
        return Err(format!("wait4 failed: {}", std::io::Error::last_os_error()));
    }
    read.map_err(|e| format!("reading rat stdout: {e}"))?;
    // Exited normally (low 7 bits zero) with code 0.
    let success = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    Ok(CliRun {
        wall,
        cpu: timeval(usage.utime) + timeval(usage.stime),
        maxrss_kib: usage.counters[0].max(0) as u64,
        success,
        stdout,
        stderr,
    })
}
