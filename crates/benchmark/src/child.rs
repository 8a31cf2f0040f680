//! The system under test as a child process: the real `laminar-server`
//! binary on a loopback port, with `ADDR --data-dir DIR` and nothing else
//! on its command line.

use laminar_client::{LaminarClient, RetryPolicy};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// User every benchmark request runs as.
pub const USER: &str = "bench";
pub const PASSWORD: &str = "bench";

/// A running server. Dropping it kills and reaps the process, on the
/// normal path and while unwinding from a panic alike.
pub struct ServerChild {
    child: Child,
    pub addr: SocketAddr,
    pub data_dir: PathBuf,
    /// Spawn → `listening on` line → first `health` and `login` answered.
    pub setup: Duration,
}

/// CPU and memory of the child as `/proc` reports them.
#[derive(Debug, Clone, Copy)]
pub struct ProcSample {
    /// utime + stime.
    pub cpu: Duration,
    pub peak_rss_mb: f64,
    pub threads: u64,
}

extern "C" {
    fn prctl(option: i32, ...) -> i32;
}
const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: std::ffi::c_ulong = 9;

/// The `laminar-server` binary built next to the running benchmark bin.
pub fn server_binary() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let path = me.with_file_name("laminar-server");
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!("{} is not built", path.display()))
    }
}

/// A fresh client on `addr` that never retries: a retry would hide the
/// failure it papers over.
pub fn client(addr: SocketAddr) -> LaminarClient {
    LaminarClient::connect_tcp(addr).with_retry(RetryPolicy::none())
}

impl ServerChild {
    /// Start the server on `data_dir` and wait until it answers `health`
    /// and a session for [`USER`] exists (registered on an empty
    /// directory, logged in on a fixture copy).
    pub fn spawn(data_dir: &Path) -> Result<ServerChild, String> {
        let mut command = Command::new(server_binary()?);
        command
            .arg("127.0.0.1:0")
            .arg("--data-dir")
            .arg(data_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        // SAFETY: the hook runs in the forked child before exec and makes
        // one async-signal-safe system call. It asks the kernel to kill
        // the server when the spawning thread (the benchmark's main
        // thread) dies, so a benchmark killed by a signal, which runs no
        // destructors, still leaves no server behind.
        unsafe {
            command.pre_exec(|| match prctl(PR_SET_PDEATHSIG, SIGKILL) {
                0 => Ok(()),
                _ => Err(std::io::Error::last_os_error()),
            });
        }
        let start = Instant::now();
        let mut child = command
            .spawn()
            .map_err(|e| format!("cannot spawn laminar-server: {e}"))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut server = ServerChild {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            data_dir: data_dir.to_path_buf(),
            setup: Duration::ZERO,
        };
        let mut lines = BufReader::new(stdout).lines();
        server.addr = loop {
            let line = match lines.next() {
                Some(Ok(line)) => line,
                _ => return Err("laminar-server exited before listening".into()),
            };
            if let Some(addr) = line.strip_prefix("laminar server listening on ") {
                break addr
                    .trim()
                    .parse()
                    .map_err(|e| format!("unparsable listen address `{addr}`: {e}"))?;
            }
        };
        // Keep draining so the child never blocks on a full pipe.
        std::thread::spawn(move || lines.for_each(drop));
        let mut c = client(server.addr);
        c.health().map_err(|e| format!("health failed: {e}"))?;
        if c.login(USER, PASSWORD).is_err() {
            c.register(USER, PASSWORD)
                .map_err(|e| format!("cannot open a session for `{USER}`: {e}"))?;
        }
        server.setup = start.elapsed();
        Ok(server)
    }

    /// A logged-in client for one load-generator thread.
    pub fn session(&self) -> Result<LaminarClient, String> {
        let mut c = client(self.addr);
        c.login(USER, PASSWORD)
            .map_err(|e| format!("login failed: {e}"))?;
        Ok(c)
    }

    pub fn sample(&self) -> ProcSample {
        let pid = self.child.id();
        let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
        let field = |name: &str| {
            status
                .lines()
                .find_map(|l| l.strip_prefix(name))
                .and_then(|v| v.split_whitespace().next())
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0)
        };
        ProcSample {
            cpu: cpu_time(&pid.to_string()),
            peak_rss_mb: field("VmHWM:") as f64 / 1024.0,
            threads: field("Threads:"),
        }
    }

    /// Bytes under the data directory.
    pub fn disk_bytes(&self) -> u64 {
        dir_bytes(&self.data_dir)
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// utime + stime of process `pid` (`"self"` for the caller).
pub fn cpu_time(pid: &str) -> Duration {
    // Fields 14 and 15, counted after the parenthesised command, are
    // utime and stime in clock ticks; Linux fixes USER_HZ at 100.
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    let Some((_, rest)) = stat.rsplit_once(") ") else {
        return Duration::ZERO;
    };
    let ticks = |i: usize| {
        rest.split_whitespace()
            .nth(i)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    Duration::from_millis((ticks(11) + ticks(12)) * 10)
}

pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
