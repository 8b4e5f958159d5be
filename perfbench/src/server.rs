//! Server processes: spawn the release binaries, wait until they
//! serve, and read their counters from outside (Prometheus endpoint
//! and `/proc`).

use crate::workload::Workload;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a server may take to announce that it listens.
const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// One running server process.
pub struct Proc {
    pub role: &'static str,
    child: Child,
    pub addr: SocketAddr,
    pub metrics: SocketAddr,
}

impl Proc {
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

/// Dropping a `Proc` kills the process and waits for it.
impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A workload's running servers; `procs[0]` is the entry point the
/// load connects to (serve, or the cluster router).
pub struct Deployment {
    pub procs: Vec<Proc>,
    pub setup_s: f64,
}

impl Deployment {
    pub fn entry(&self) -> SocketAddr {
        self.procs[0].addr
    }
}

fn spawn(bin: &Path, args: &[String], log: &Path) -> Result<Child, String> {
    let file = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
    Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(file)
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))
}

/// The address after `marker` in the process's log, once it appears.
fn find_addr(text: &str, marker: &str) -> Option<SocketAddr> {
    let rest = &text[text.find(marker)? + marker.len()..];
    let end = rest
        .find(|c: char| c.is_whitespace() || c == '/')
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Polls the log until the process announces both its listening and
/// its metrics address.
fn wait_ready(role: &'static str, mut child: Child, log: &Path) -> Result<Proc, String> {
    let started = Instant::now();
    loop {
        let text = std::fs::read_to_string(log).unwrap_or_default();
        if let (Some(addr), Some(metrics)) = (
            find_addr(&text, "listening on "),
            find_addr(&text, "metrics exposition on http://"),
        ) {
            return Ok(Proc {
                role,
                child,
                addr,
                metrics,
            });
        }
        if let Ok(Some(status)) = child.try_wait() {
            return Err(format!(
                "{role} exited with {status} before serving:\n{text}"
            ));
        }
        if started.elapsed() > READY_TIMEOUT {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("{role} not ready after {READY_TIMEOUT:?}:\n{text}"));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

/// Starts the workload's servers and times spawn → ready. `tag`
/// separates the logs and data directories of repeated set-ups.
pub fn deploy(
    workload: Workload,
    bins: &Path,
    seed: u64,
    out: &Path,
    tag: usize,
) -> Result<Deployment, String> {
    let seed = seed.to_string();
    let rows = workload.rows().to_string();
    let log = |name: &str| out.join(format!("{name}-{tag}.log"));
    let started = Instant::now();
    let procs = match workload {
        Workload::Explore | Workload::Scan1m => {
            let args = strings(&[
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--rows",
                &rows,
                "--seed",
                &seed,
                "--metrics-addr",
                "127.0.0.1:0",
            ]);
            let child = spawn(&bins.join("serve"), &args, &log("serve"))?;
            vec![wait_ready("serve", child, &log("serve"))?]
        }
        Workload::RoutedBatch => {
            let mut shards = Vec::new();
            let mut children = Vec::new();
            for i in 0..2 {
                let dir: PathBuf = out.join(format!("data-{tag}-{i}"));
                let _ = std::fs::remove_dir_all(&dir);
                let dir = dir.display().to_string();
                let args = strings(&[
                    "shard",
                    "--addr",
                    "127.0.0.1:0",
                    "--workers",
                    "2",
                    "--rows",
                    &rows,
                    "--seed",
                    &seed,
                    "--reactor",
                    "--data-dir",
                    &dir,
                    "--snapshot-every",
                    "1",
                    "--metrics-addr",
                    "127.0.0.1:0",
                ]);
                let name = format!("shard{i}");
                children.push((spawn(&bins.join("cluster"), &args, &log(&name))?, name));
            }
            for (child, name) in children {
                shards.push(wait_ready("shard", child, &log(&name))?);
            }
            let mut args = strings(&["router", "--addr", "127.0.0.1:0"]);
            for s in &shards {
                args.push("--shard".into());
                args.push(s.addr.to_string());
            }
            args.extend(strings(&[
                "--replicas",
                "1",
                "--reactor",
                "--metrics-addr",
                "127.0.0.1:0",
            ]));
            let child = spawn(&bins.join("cluster"), &args, &log("router"))?;
            let router = wait_ready("router", child, &log("router"))?;
            let mut procs = vec![router];
            procs.extend(shards);
            procs
        }
    };
    Ok(Deployment {
        procs,
        setup_s: started.elapsed().as_secs_f64(),
    })
}

/// Prometheus text exposition, parsed.
#[derive(Default)]
pub struct Prom(HashMap<String, f64>);

impl Prom {
    /// `name` with its label set exactly as exposed, e.g.
    /// `aware_stage_latency_us{stage="execute",quantile="0.5"}`.
    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }
}

/// One HTTP GET of `/metrics`.
pub fn scrape(addr: SocketAddr) -> Result<Prom, String> {
    let err = |e: std::io::Error| format!("scrape {addr}: {e}");
    let mut s = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).map_err(err)?;
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(err)?;
    s.write_all(b"GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n")
        .map_err(err)?;
    let mut body = String::new();
    s.read_to_string(&mut body).map_err(err)?;
    let mut out = HashMap::new();
    for line in body.lines() {
        if line.starts_with('#') {
            continue;
        }
        if let Some((key, value)) = line.rsplit_once(' ') {
            if let Ok(v) = value.parse::<f64>() {
                out.insert(key.to_string(), v);
            }
        }
    }
    Ok(Prom(out))
}

/// `/proc/<pid>` readings of one process.
#[derive(Clone, Copy, Default)]
pub struct ProcStat {
    /// utime + stime in clock ticks (USER_HZ, 100 on Linux).
    pub cpu_ticks: u64,
    pub write_bytes: u64,
    pub vm_hwm_kb: u64,
}

pub const TICK_US: f64 = 10_000.0;

pub fn proc_stat(pid: u32) -> ProcStat {
    let read = |f: &str| std::fs::read_to_string(format!("/proc/{pid}/{f}")).unwrap_or_default();
    let stat = read("stat");
    // Fields after the parenthesised command name; utime and stime
    // are fields 14 and 15 of the whole line.
    let cpu_ticks = stat
        .rsplit_once(')')
        .map(|(_, rest)| {
            let f: Vec<&str> = rest.split_whitespace().collect();
            let n = |i: usize| f.get(i).and_then(|x| x.parse::<u64>().ok()).unwrap_or(0);
            n(11) + n(12)
        })
        .unwrap_or(0);
    let field = |text: &str, key: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.split_whitespace().next()?.parse::<u64>().ok())
            .unwrap_or(0)
    };
    ProcStat {
        cpu_ticks,
        write_bytes: field(&read("io"), "write_bytes:"),
        vm_hwm_kb: field(&read("status"), "VmHWM:"),
    }
}

/// Host-wide (steal, total) CPU time in clock ticks, from the first
/// line of `/proc/stat`.
pub fn host_cpu() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|rest| rest.split_whitespace().filter_map(|x| x.parse().ok()).collect())
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user and nice.
    let total = ticks.iter().take(8).sum();
    (ticks.get(7).copied().unwrap_or(0), total)
}
