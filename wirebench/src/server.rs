//! The `dego-server` child process: spawn, address discovery, and the
//! `/proc/<pid>` readings the benchmark takes from it.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::Duration;

extern "C" {
    /// `prctl(2)`; declared directly so the benchmark needs no libc crate.
    fn prctl(option: i32, ...) -> i32;
}

const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: i32 = 9;

/// `/proc/<pid>/stat` counts CPU time in `USER_HZ` ticks, which Linux
/// fixes at 100 per second for user space.
const TICKS_PER_S: f64 = 100.0;

/// How long the server may take to print its `listening on` line.
const BOOT_TIMEOUT: Duration = Duration::from_secs(20);

/// A running `dego-server`. Dropping it kills and reaps the process, so
/// every exit path of the benchmark, unwinding panics included, leaves
/// no server behind to take a core from the next run.
pub struct ServerProc {
    child: Mutex<Child>,
    stdout: Option<JoinHandle<()>>,
    pub pid: u32,
    pub addr: SocketAddr,
    /// The shard count the server announced.
    pub shards: usize,
}

impl ServerProc {
    /// Boot `bin` on an ephemeral loopback port with the full middleware
    /// stack and default shards and event loops, and wait for its
    /// `listening on` line.
    pub fn spawn(bin: &Path) -> Result<ServerProc, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["127.0.0.1:0", "--middleware", "full"])
            .env_remove("DEGO_SHARDS")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        // SAFETY: the closure runs in the forked child before exec and
        // only makes one async-signal-safe system call, whose variadic
        // argument is passed at the `unsigned long` width the kernel
        // reads. If the benchmark itself is killed, the kernel then kills
        // the server too.
        unsafe {
            cmd.pre_exec(|| {
                if prctl(PR_SET_PDEATHSIG, SIGKILL as u64) != 0 {
                    return Err(std::io::Error::last_os_error());
                }
                Ok(())
            });
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let pid = child.id();
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        // Reads the announcement, then drains stdout until the process
        // ends, so the server can never block on a full pipe.
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                let _ = tx.send(line);
            }
        });
        let mut server = ServerProc {
            child: Mutex::new(child),
            stdout: Some(reader),
            pid,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            shards: 0,
        };
        loop {
            let line = rx
                .recv_timeout(BOOT_TIMEOUT)
                .map_err(|_| "dego-server exited or hung before listening".to_string())?;
            if let Some((addr, shards)) = parse_listening(&line) {
                server.addr = addr;
                server.shards = shards;
                return Ok(server);
            }
        }
    }

    /// Kill the server now (the watchdog's way out of a hung window).
    pub fn kill(&self) {
        let mut child = self.child.lock().unwrap_or_else(|e| e.into_inner());
        let _ = child.kill();
    }

    /// The server's user+sys CPU time so far, in microseconds.
    pub fn cpu_us(&self) -> Result<f64, String> {
        proc_cpu_us(&format!("/proc/{}/stat", self.pid))
    }

    /// The server's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.pid);
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM line"))
    }

    /// How many event-loop threads the server runs (its threads are
    /// named `dego-loop-<i>`).
    pub fn event_loops(&self) -> usize {
        let Ok(tasks) = std::fs::read_dir(format!("/proc/{}/task", self.pid)) else {
            return 0;
        };
        tasks
            .filter_map(|t| t.ok())
            .filter_map(|t| std::fs::read_to_string(t.path().join("comm")).ok())
            .filter(|comm| comm.starts_with("dego-loop-"))
            .count()
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let mut child = self.child.lock().unwrap_or_else(|e| e.into_inner());
        let _ = child.kill();
        let _ = child.wait();
        drop(child);
        if let Some(reader) = self.stdout.take() {
            let _ = reader.join();
        }
    }
}

/// `dego-server listening on 127.0.0.1:PORT (N shards, M middleware layers)`.
fn parse_listening(line: &str) -> Option<(SocketAddr, usize)> {
    let rest = line.split("listening on ").nth(1)?;
    let (addr, rest) = rest.split_once(" (")?;
    let shards = rest.split_whitespace().next()?.parse().ok()?;
    Some((addr.parse().ok()?, shards))
}

/// User+sys CPU of the process whose `stat` file is `path`, in µs.
pub fn proc_cpu_us(path: &str) -> Result<f64, String> {
    let stat = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    // Fields after the parenthesised command name: state is field 3, so
    // utime (14) and stime (15) are the 12th and 13th after it.
    let after = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or_else(|| format!("{path}: malformed"))?;
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| format!("{path}: malformed"))
    };
    Ok((ticks(11)? + ticks(12)?) * 1e6 / TICKS_PER_S)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_announcement() {
        let line = "dego-server listening on 127.0.0.1:40123 (4 shards, 7 middleware layers)";
        let (addr, shards) = parse_listening(line).unwrap();
        assert_eq!(addr.port(), 40123);
        assert_eq!(shards, 4);
        assert!(parse_listening("metrics exposition at http://x/metrics").is_none());
    }

    #[test]
    fn reads_own_cpu() {
        assert!(proc_cpu_us("/proc/self/stat").unwrap() >= 0.0);
    }
}
