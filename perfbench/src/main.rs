//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload explore|scan_1m|routed_batch --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. It builds the release `serve` and
//! `cluster` binaries, starts them the way the workload says, drives
//! them in closed loops from this one process (at most two threads and
//! two load connections), checks every answer, and prints one JSON
//! object as
//! the last line of standard output. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` runs the same load, scrapes the
//! servers' counters once, then replays the workload's inputs
//! in-process under spans and reports the per-layer metrics.
//! `perfbench/WORKLOADS.md` lists the workloads, their configuration and
//! which layer metric should move which end-to-end metric.

mod drive;
mod oracle;
mod replay;
mod server;
mod workload;

use server::{Deployment, ProcStat, Prom};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use workload::{Kind, Workload};

/// A seed kept out of tuning, for claims made later.
const HELD_OUT_SEED: u64 = 20_170_514;
/// Stream hashes for seed 0: a change means the generator drifted.
const SEED0_STREAM_HASH: [(Workload, u64); 3] = [
    (Workload::Explore, 0x820f_a62d_ed51_fbf6),
    (Workload::Scan1m, 0x8166_1b6c_b396_752a),
    (Workload::RoutedBatch, 0x57dd_ff39_14f3_2548),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload '{v}'"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
                })
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Builds the release binaries from the checkout's sources; returns
/// the directory that holds them.
fn build() -> Result<PathBuf, String> {
    if !Path::new("Cargo.toml").is_file() || !Path::new("crates/serve").is_dir() {
        return Err("run from the repository root (no Cargo.toml and crates/ here)".into());
    }
    // The cargo that launched this run, when there is one.
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = std::process::Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "aware-serve",
            "-p",
            "aware-cluster",
            "--bins",
        ])
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building serve and cluster failed: {status}"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    Ok(target.join("release"))
}

/// Quantile `q` of nanosecond samples, in milliseconds.
fn quantile_ms(xs: &mut [u64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_unstable();
    let i = ((xs.len() as f64 * q).ceil() as usize).clamp(1, xs.len()) - 1;
    xs[i] as f64 / 1e6
}

fn lat_of(samples: &[drive::Sample], keep: impl Fn(Kind) -> bool) -> Vec<u64> {
    samples.iter().filter(|s| keep(s.0)).map(|s| s.2).collect()
}

/// Latency figures are medians over at most this many groups.
const GROUPS: usize = 40;
/// Fewest samples a group holds; fewer samples make fewer groups.
const MIN_GROUP: usize = 20;

/// Median over consecutive groups of equally many samples, taken in
/// send order, of each group's quantile `q`, and the number of groups
/// (`None` without samples). A stall of the host then moves one
/// group's tail, not the reported figure; and every sample counts once
/// however slow its period was, where a time window would hold fewer
/// samples from a slow period.
fn grouped_ms(samples: &[drive::Sample], kind: Kind, q: f64) -> Option<(f64, usize)> {
    let mut xs: Vec<(u64, u64)> = samples
        .iter()
        .filter(|s| s.0 == kind)
        .map(|s| (s.1, s.2))
        .collect();
    if xs.is_empty() {
        return None;
    }
    xs.sort_unstable();
    let n = xs.len();
    let groups = (n / MIN_GROUP).clamp(1, GROUPS);
    let qs = (0..groups)
        .map(|g| {
            let mut w: Vec<u64> = xs[g * n / groups..(g + 1) * n / groups]
                .iter()
                .map(|x| x.1)
                .collect();
            quantile_ms(&mut w, q)
        })
        .collect();
    Some((median(qs), groups))
}

/// Median over `window_s` windows of the send rate of answered
/// samples, for samples sent in `[start_s, end_s)`.
fn windowed_rate(
    samples: &[drive::Sample],
    start_s: f64,
    end_s: f64,
    window_s: f64,
    per_sample: f64,
) -> f64 {
    let n = ((end_s - start_s) / window_s).floor().max(1.0) as usize;
    let mut counts = vec![0.0; n];
    for s in samples {
        let i = ((s.1 as f64 / 1e9 - start_s) / window_s).floor();
        if i >= 0.0 && (i as usize) < n {
            counts[i as usize] += per_sample / window_s;
        }
    }
    median(counts)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// A named measurement with its unit.
type Metric = (&'static str, f64, &'static str);

/// Everything one run produced.
#[derive(Default)]
struct Report {
    e2e: Vec<Metric>,
    layer: Vec<Metric>,
    /// Lines printed before the JSON: extra figures and notes.
    info: Vec<String>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

/// The load phase's results that per-layer metrics and the replay use.
struct LoadOutcome {
    book: drive::Book,
    answered: u64,
    headline_p50_ms: f64,
    gen_lag_p99_ms: f64,
}

fn run_load(dep: &Deployment, args: &Args, r: &mut Report) -> Result<LoadOutcome, String> {
    let w = args.workload;
    let warm_s = 1.0;
    let secs = args.seconds;
    let mut book = drive::Book::new(w, warm_s, secs);
    let mut c = match w {
        Workload::RoutedBatch => {
            drive::batch_loop(dep.entry(), args.seed, warm_s, secs, &mut book)?
        }
        _ => drive::single_loop(w, dep.entry(), args.seed, warm_s, secs, &mut book)?,
    };
    // The headline request: `add_visualization`, or (routed_batch) the
    // batch, whose samples are recorded as `Viz`.
    let (what, per_sample) = match w {
        Workload::RoutedBatch => ("batch", c.batch_items as f64),
        _ => ("viz", 1.0),
    };
    let cmd_s = windowed_rate(&c.samples, warm_s, warm_s + secs, 1.0, per_sample);
    let grouped = |q: f64| grouped_ms(&c.samples, Kind::Viz, q);
    let (Some((p50, groups)), Some((p90, _))) = (grouped(0.5), grouped(0.9)) else {
        return Err(format!("no {what} was answered in the measured {secs} s"));
    };
    let mut all = lat_of(&c.samples, |k| k == Kind::Viz);
    let n = all.len();
    match w {
        Workload::Explore => {
            let mut reads = lat_of(&c.samples, |k| matches!(k, Kind::Gauge | Kind::Transcript));
            r.info.push(format!(
                "read_p99_ms {:.4} ms (gauge and transcript, {} samples)",
                quantile_ms(&mut reads, 0.99),
                reads.len()
            ));
        }
        Workload::Scan1m => r
            .info
            .push(format!("tests_per_s {:.2} 1/s (pooled)", n as f64 / secs)),
        Workload::RoutedBatch => r.info.push(format!(
            "batch_cmd_s {:.1} cmd/s pooled ({}-item batches)",
            c.commands as f64 / secs,
            c.batch_items
        )),
    }
    r.info.push(format!(
        "{what} pooled over {n} samples: p50 {:.4} p90 {:.4} p99 {:.4} ms{}",
        quantile_ms(&mut all, 0.5),
        quantile_ms(&mut all, 0.9),
        quantile_ms(&mut all, 0.99),
        if n < 1000 { " (p99 rests on < 1000 samples)" } else { "" }
    ));
    r.info.push(format!(
        "cmd_s: median of one-second windows; p50_ms, p90_ms: medians over {groups} groups of {} {what} samples in send order",
        n / groups
    ));
    let lag = quantile_ms(&mut c.gaps_ns, 0.99);
    r.info.push(format!(
        "{} answered in {secs} s after {warm_s} s warm-up; generator gap p99 {lag:.4} ms",
        c.commands
    ));
    r.attempted = c.attempted;
    r.e2e.push(("cmd_s", cmd_s, "cmd/s"));
    r.e2e.push(("p50_ms", p50, "ms"));
    r.e2e.push(("p90_ms", p90, "ms"));
    Ok(LoadOutcome {
        book,
        answered: c.commands,
        headline_p50_ms: p50,
        gen_lag_p99_ms: lag,
    })
}

/// Count-weighted mean of a stage quantile over the service processes.
fn stage(proms: &[&Prom], stage: &str, q: &str) -> f64 {
    let mut num = 0.0;
    let mut den = 0.0;
    for p in proms {
        let n = p.get(&format!(
            "aware_stage_latency_us_count{{stage=\"{stage}\"}}"
        ));
        num += n * p.get(&format!(
            "aware_stage_latency_us{{stage=\"{stage}\",quantile=\"{q}\"}}"
        ));
        den += n;
    }
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The [S] and [P] metrics: one scrape per process after the load.
fn server_metrics(
    w: Workload,
    before: &[ProcStat],
    after: &[ProcStat],
    proms: &[Prom],
    answered: u64,
) -> Vec<Metric> {
    let cmds = answered.max(1) as f64;
    let cpu = |i: usize| {
        (after[i].cpu_ticks.saturating_sub(before[i].cpu_ticks)) as f64 * server::TICK_US
    };
    let total_cpu: f64 = (0..after.len()).map(cpu).sum();
    let writes: f64 = (0..after.len())
        .map(|i| after[i].write_bytes.saturating_sub(before[i].write_bytes) as f64)
        .sum();
    // The processes that run a Service (serve, or the shards).
    let svc: Vec<&Prom> = match w {
        Workload::RoutedBatch => proms[1..].iter().collect(),
        _ => proms.iter().collect(),
    };
    let sum = |key: &str| svc.iter().map(|p| p.get(key)).sum::<f64>();
    let hits = sum("aware_cache_hits_total{dataset=\"census\"}");
    let misses = sum("aware_cache_misses_total{dataset=\"census\"}");
    let batches = sum("aware_batches_total");
    let router = (w == Workload::RoutedBatch).then(|| &proms[0]);
    let rget = |key: &str| router.map(|p| p.get(key)).unwrap_or(0.0);
    let wakeups: f64 = proms
        .iter()
        .map(|p| p.get("aware_reactor_wakeups_total"))
        .sum();
    vec![
        ("proc.cpu_us_per_cmd", total_cpu / cmds, "us/cmd"),
        ("proc.entry_cpu_us_per_cmd", cpu(0) / cmds, "us/cmd"),
        ("store.write_bytes_per_cmd", writes / cmds, "B/cmd"),
        (
            "service.queue_wait_us.p50",
            stage(&svc, "queue_wait", "0.5"),
            "us",
        ),
        (
            "service.queue_wait_us.p99",
            stage(&svc, "queue_wait", "0.99"),
            "us",
        ),
        (
            "service.execute_us.p50",
            stage(&svc, "execute", "0.5"),
            "us",
        ),
        (
            "service.execute_us.p99",
            stage(&svc, "execute", "0.99"),
            "us",
        ),
        (
            "service.wire_encode_us",
            stage(&svc, "wire_encode", "0.5"),
            "us",
        ),
        (
            "service.snapshot_flush_us.p99",
            stage(&svc, "snapshot_flush", "0.99"),
            "us",
        ),
        (
            "service.batch_items_mean",
            if batches > 0.0 {
                sum("aware_batch_commands_total") / batches
            } else {
                0.0
            },
            "count",
        ),
        ("service.overloaded", sum("aware_overloaded_total"), "count"),
        ("reactor.wakeups_per_cmd", wakeups / cmds, "1/cmd"),
        (
            "data.cache_hit_ratio",
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
            "ratio",
        ),
        (
            "data.cache_selections",
            sum("aware_cache_selections{dataset=\"census\"}"),
            "count",
        ),
        (
            "cluster.forwarded_per_cmd",
            rget("aware_forwarded_total") / cmds,
            "1/cmd",
        ),
        (
            "cluster.shard_errors",
            rget("aware_shard_errors_total"),
            "count",
        ),
        (
            "cluster.shard_timeouts",
            rget("aware_shard_timeouts_total"),
            "count",
        ),
        (
            "cluster.hedged_reads",
            rget("aware_hedged_reads_total"),
            "count",
        ),
        (
            "cluster.replication_lag_max_epochs",
            rget("aware_replication_lag_max_epochs"),
            "count",
        ),
    ]
}

/// Set-ups per run; `setup_s` is their median.
fn setups(w: Workload) -> usize {
    match w {
        Workload::Scan1m => 5,
        _ => 9,
    }
}

fn run(args: &Args, bins: &Path, out: &Path) -> Result<Report, String> {
    let w = args.workload;
    let mut r = Report::default();

    // The command stream is a pure function of the seed.
    let hash = workload::stream_hash(&workload::units(w, args.seed, workload::hash_units(w)));
    let seed0 = workload::stream_hash(&workload::units(w, 0, workload::hash_units(w)));
    let frozen = SEED0_STREAM_HASH.iter().find(|(x, _)| *x == w).map(|x| x.1);
    if frozen != Some(seed0) {
        r.problems.push(format!(
            "seed-0 stream hash {seed0:016x} differs from the frozen {:016x}: the generator drifted",
            frozen.unwrap_or(0)
        ));
    }
    r.info.push(format!(
        "stream hash {hash:016x} (first {} units)",
        workload::hash_units(w)
    ));

    // Set up several times; the last deployment takes the load.
    let mut times = Vec::new();
    let mut dep = None;
    for tag in 0..setups(w) {
        let d = server::deploy(w, bins, args.seed, out, tag)?;
        times.push(d.setup_s);
        drop(dep.replace(d));
    }
    let dep = dep.expect("at least one set-up");
    let setup_s = median(times.clone());
    r.info.push(format!(
        "setup_s {setup_s:.4} s (median of {:?})",
        times
            .iter()
            .map(|t| (t * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    ));

    let pids: Vec<u32> = dep.procs.iter().map(|p| p.pid()).collect();
    let before: Vec<ProcStat> = pids.iter().map(|&p| server::proc_stat(p)).collect();
    let cpu_before = server::host_cpu();
    let load = run_load(&dep, args, &mut r)?;
    let cpu_after = server::host_cpu();
    let after: Vec<ProcStat> = pids.iter().map(|&p| server::proc_stat(p)).collect();
    // A virtual machine whose host takes its CPUs away measures the
    // host, not the program; printed so a disturbed run can be told.
    r.info.push(format!(
        "host steal during the load: {:.1}% of CPU time",
        100.0 * cpu_after.0.saturating_sub(cpu_before.0) as f64
            / cpu_after.1.saturating_sub(cpu_before.1).max(1) as f64
    ));
    let proms: Vec<Prom> = if args.trace {
        dep.procs
            .iter()
            .map(|p| server::scrape(p.metrics))
            .collect::<Result<_, _>>()?
    } else {
        Vec::new()
    };
    let rss_mb: f64 = after.iter().map(|s| s.vm_hwm_kb as f64 / 1024.0).sum();
    let roles: Vec<&str> = dep.procs.iter().map(|p| p.role).collect();
    r.info
        .push(format!("peak_rss_mb {rss_mb:.2} MiB over {roles:?}"));
    let layer_server = args
        .trace
        .then(|| server_metrics(w, &before, &after, &proms, load.answered));
    drop(dep);

    r.e2e.insert(0, ("setup_s", setup_s, "s"));
    r.e2e.push(("peak_rss_mb", rss_mb, "MiB"));
    r.failed = load.book.failed;
    if let Some(f) = &load.book.first_failure {
        r.problems
            .push(format!("{} failed commands; first: {f}", load.book.failed));
    }
    r.info.push(format!(
        "failed_frac {:.6} ratio ({} of {})",
        r.failed as f64 / r.attempted.max(1) as f64,
        r.failed,
        r.attempted
    ));

    // The oracle, off the timed path.
    let table = Arc::new(aware_data::census::CensusGenerator::new(args.seed).generate(w.rows()));
    let sessions = &load.book.done;
    let started = std::time::Instant::now();
    let (bad, first) = oracle::check(table.clone(), sessions);
    r.info.push(format!(
        "oracle: {} closed sessions replayed in {:.2} s, {bad} transcript mismatches",
        sessions.len(),
        started.elapsed().as_secs_f64()
    ));
    if sessions.is_empty() {
        r.problems
            .push("the oracle had no closed session to check".into());
    }
    if bad > 0 {
        r.failed += bad as u64;
        r.problems
            .push(format!("oracle: {}", first.unwrap_or_default()));
    }
    if w != Workload::Scan1m {
        let other =
            Arc::new(aware_data::census::CensusGenerator::new(args.seed ^ 1).generate(w.rows()));
        let rejected = oracle::rejects_other_seed(other, sessions);
        r.info.push(format!(
            "oracle negative control (reference from seed {}): {}",
            args.seed ^ 1,
            if rejected {
                "rejected, as it must"
            } else {
                "NOT rejected"
            }
        ));
        if !rejected {
            r.problems
                .push("the oracle accepted a reference built from another seed".into());
        }
    }
    drop(table);

    if let Some(mut layer) = layer_server {
        layer.extend(replay::run(w, args.seed, out, load.headline_p50_ms)?);
        layer.push(("gen.lag_p99_ms", load.gen_lag_p99_ms, "ms"));
        r.info.push(
            "not measured: the session-lock wait and the snapshot mark inside one command \
             have no public entry point and no counter, so no per-layer figure is given for them"
                .into(),
        );
        r.layer = layer;
    }
    Ok(r)
}

fn host_fingerprint() -> String {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!("nproc={nproc} cpu=\"{cpu}\"")
}

/// The commit when the checkout is a git work tree, else an FNV-1a
/// hash of the sources the binaries are built from.
fn source_id() -> String {
    if let Ok(o) = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
    {
        if o.status.success() {
            return format!("git:{}", String::from_utf8_lossy(&o.stdout).trim());
        }
    }
    let mut files = Vec::new();
    let mut stack = vec![
        PathBuf::from("crates"),
        PathBuf::from("Cargo.toml"),
        PathBuf::from("Cargo.lock"),
    ];
    while let Some(p) = stack.pop() {
        if p.is_dir() {
            if let Ok(rd) = std::fs::read_dir(&p) {
                stack.extend(rd.flatten().map(|e| e.path()));
            }
        } else {
            files.push(p);
        }
    }
    files.sort();
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for f in files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(&f).unwrap_or_default())
        {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    format!("tree:{h:016x}")
}

fn json_metrics(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let bins = match build() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let out = PathBuf::from(".bench_out").join(format!(
        "{}-seed{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("perfbench: {}: {e}", out.display());
        std::process::exit(1);
    }
    let report = match run(&args, &bins, &out) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    // Keep logs and spans; drop the shards' data directories.
    if let Ok(rd) = std::fs::read_dir(&out) {
        for e in rd.flatten() {
            if e.path().is_dir() {
                let _ = std::fs::remove_dir_all(e.path());
            }
        }
    }

    println!(
        "perfbench {} seed {} ({} s, trace {}) held-out seed {HELD_OUT_SEED}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    println!("host: {} source {}", host_fingerprint(), source_id());
    for line in &report.info {
        println!("  {line}");
    }
    for (name, v, unit) in report.e2e.iter().chain(&report.layer) {
        println!("  {name} = {v:.6} {unit}");
    }
    for p in &report.problems {
        println!("  PROBLEM: {p}");
    }
    let correct = report.problems.is_empty() && report.failed == 0;
    let metrics = if args.trace {
        &report.layer
    } else {
        &report.e2e
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.attempted.max(1),
        report.failed,
        json_metrics(metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
