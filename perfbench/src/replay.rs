//! The traced replay: the workload's generated request units, replayed
//! in-process with a span around each public entry point the layers
//! expose. Nothing inside the program is instrumented; a span covers
//! one call from this file into a layer.

use crate::workload::{self, rebase, Workload};
use aware_cluster::pool::ShardPool;
use aware_cluster::router::{Router, RouterConfig};
use aware_core::session::Session;
use aware_data::cache::EvalCache;
use aware_data::census::CensusGenerator;
use aware_data::table::Table;
use aware_mht::investing::AlphaInvesting;
use aware_serve::proto::{
    Batch, BatchItem, BatchMode, BoxedPolicy, Command, Envelope, PolicySpec, Reply, Response,
    SessionId,
};
use aware_serve::reactor_front::ServerFront;
use aware_serve::service::{Dispatch, Service, ServiceConfig, ServiceHandle};
use aware_serve::snapshot::{self, SessionImage};
use aware_serve::store::SnapshotStore;
use aware_serve::wire;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One timed call: name, start and end (ns since the tracer began),
/// the enclosing span, and the request unit it served.
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: u32,
    unit: u64,
}

/// Spans kept in memory and written out when the replay ends.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn begin(&mut self, name: &'static str, unit: u64) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start: self.t0.elapsed().as_nanos() as u64,
            end: 0,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            unit,
        });
        self.stack.push(id);
        id
    }

    fn end(&mut self, id: u32) {
        self.spans[id as usize].end = self.t0.elapsed().as_nanos() as u64;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id));
    }

    fn time<R>(&mut self, name: &'static str, unit: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, unit);
        let r = f();
        self.end(id);
        r
    }

    fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// Sum of durations of `name` spans per unit.
    fn per_unit(&self, name: &str) -> HashMap<u64, u64> {
        let mut out = HashMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.unit).or_insert(0) += s.end - s.start;
        }
        out
    }

    /// Writes every span with its self time (duration minus the time
    /// its children cover; children of one span never overlap here).
    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut child_time = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_time[s.parent as usize] += s.end - s.start;
            }
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tstart_ns\tend_ns\tparent\tunit\tself_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            let dur = s.end - s.start;
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.name,
                s.start,
                s.end,
                parent,
                s.unit,
                dur.saturating_sub(child_time[i])
            )?;
        }
        out.flush()
    }
}

/// Median of `xs` in microseconds (0 when empty).
fn p50_us(mut xs: Vec<u64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_unstable();
    xs[xs.len() / 2] as f64 / 1e3
}

/// A request unit in both wire encodings, prepared off the clock.
struct Prepared {
    cmds: Vec<Command>,
    line: String,
    frame: Vec<u8>,
}

fn prepare(index: u64, cmds: &[Command]) -> Prepared {
    let envelope = if cmds.len() == 1 {
        Envelope::Single {
            id: Some(index),
            cmd: cmds[0].clone(),
        }
    } else {
        Envelope::Batch {
            id: Some(index),
            batch: Batch {
                mode: BatchMode::Continue,
                items: cmds
                    .iter()
                    .enumerate()
                    .map(|(i, cmd)| BatchItem {
                        id: Some(i as u64),
                        cmd: cmd.clone(),
                    })
                    .collect(),
            },
        }
    };
    Prepared {
        cmds: cmds.to_vec(),
        line: envelope.encode_line(),
        frame: wire::encode_envelope(&envelope),
    }
}

fn reply_of(index: u64, responses: Vec<Response>) -> Reply {
    if responses.len() == 1 {
        Reply::Single {
            id: Some(index),
            response: responses.into_iter().next().expect("one response"),
        }
    } else {
        Reply::Batch {
            id: Some(index),
            items: responses
                .into_iter()
                .enumerate()
                .map(|(i, r)| (Some(i as u64), r))
                .collect(),
        }
    }
}

fn dispatch(handle: &impl Dispatch, cmds: &[Command]) -> Vec<Response> {
    if cmds.len() == 1 {
        vec![handle.call(cmds[0].clone())]
    } else {
        handle.call_batch_mode(cmds.to_vec(), BatchMode::Continue)
    }
}

fn service(table: &Arc<Table>) -> Service {
    let service = Service::start(ServiceConfig {
        workers: 2,
        sweep_interval: None,
        ..ServiceConfig::default()
    });
    service.handle().register_shared("census", table.clone());
    service
}

/// The codec and dispatch pass: decode the request on both surfaces,
/// dispatch it, encode the reply on both surfaces. With `tr` absent it
/// runs untraced (the overhead baseline). Returns wall time and reply
/// bytes.
fn service_pass(
    handle: &ServiceHandle,
    units: &[Prepared],
    mut tr: Option<&mut Tracer>,
) -> (f64, u64) {
    let started = Instant::now();
    let mut reply_bytes = 0u64;
    for (i, u) in units.iter().enumerate() {
        let i = i as u64;
        macro_rules! timed {
            ($name:expr, $e:expr) => {
                match tr.as_deref_mut() {
                    Some(t) => t.time($name, i, || $e),
                    None => $e,
                }
            };
        }
        let root = tr.as_deref_mut().map(|t| t.begin("unit", i));
        if u.cmds.len() == 1 {
            let _ = std::hint::black_box(timed!("proto.decode", Command::decode_line(&u.line)));
        } else {
            let _ = std::hint::black_box(timed!("proto.decode", Envelope::decode_line(&u.line)));
        }
        let _ = std::hint::black_box(timed!("wire.decode", wire::decode_envelope(&u.frame)));
        let responses = timed!("service.call", dispatch(handle, &u.cmds));
        let reply = reply_of(i, responses);
        let line = match &reply {
            Reply::Single { response, .. } => {
                timed!("proto.encode", response.encode_line(Some(i)))
            }
            _ => timed!("proto.encode", reply.encode_line()),
        };
        std::hint::black_box(line);
        let frame = timed!("wire.encode", wire::encode_reply(&reply));
        reply_bytes += frame.len() as u64;
        if let (Some(t), Some(root)) = (tr.as_deref_mut(), root) {
            t.end(root);
        }
    }
    (started.elapsed().as_secs_f64(), reply_bytes)
}

struct CoreSession {
    session: Session<BoxedPolicy>,
    policy: PolicySpec,
    policy_since: u64,
    mutations: u64,
}

/// Snapshots a session every this many mutations (and at close).
const SNAPSHOT_EVERY: u64 = 16;
/// Store saves the replay makes at most (each one syncs to disk).
const MAX_SAVES: usize = 64;

/// The engine pass: the same commands straight into `aware_core`
/// sessions, plus snapshot encode and store save of their images.
fn core_pass(
    tr: &mut Tracer,
    table: &Arc<Table>,
    units: &[Vec<Command>],
    store: &SnapshotStore,
) -> (u64, u64) {
    let cache = Arc::new(EvalCache::new());
    let fingerprint = table.fingerprint();
    let mut sessions: HashMap<SessionId, CoreSession> = HashMap::new();
    let (mut image_bytes, mut images, mut saves) = (0u64, 0u64, 0usize);
    let mut snap = |tr: &mut Tracer, id: SessionId, s: &CoreSession, unit: u64| {
        let image = SessionImage {
            id,
            dataset: "census".into(),
            fingerprint: Some(fingerprint),
            policy: s.policy.clone(),
            policy_since: s.policy_since,
            session: s.session.snapshot(),
        };
        let bytes = tr.time("snapshot.encode", unit, || snapshot::encode(&image));
        image_bytes += bytes.len() as u64;
        images += 1;
        if saves < MAX_SAVES {
            saves += 1;
            tr.time("store.save", unit, || store.save(&image))
                .expect("snapshot store save");
        }
    };
    for (i, unit) in units.iter().enumerate() {
        let i = i as u64;
        for cmd in unit {
            match cmd {
                Command::CreateSessionAs {
                    session,
                    alpha,
                    policy,
                    ..
                } => {
                    let s = tr.time("core.other", i, || {
                        Session::shared_with_cache(
                            table.clone(),
                            *alpha,
                            policy.build().expect("valid policy"),
                            cache.clone(),
                        )
                    });
                    sessions.insert(
                        *session,
                        CoreSession {
                            session: s.expect("session opens"),
                            policy: policy.clone(),
                            policy_since: 0,
                            mutations: 0,
                        },
                    );
                }
                Command::AddVisualization {
                    session,
                    attribute,
                    filter,
                } => {
                    let s = sessions.get_mut(session).expect("live session");
                    let pred = filter.to_predicate();
                    let r = tr.time("core.add_viz", i, || {
                        s.session.add_visualization(attribute.clone(), pred)
                    });
                    std::hint::black_box(r.expect("add_visualization"));
                    s.mutations += 1;
                    if s.mutations.is_multiple_of(SNAPSHOT_EVERY) {
                        snap(tr, *session, s, i);
                    }
                }
                Command::SetPolicy { session, policy } => {
                    let s = sessions.get_mut(session).expect("live session");
                    tr.time("core.other", i, || {
                        s.session
                            .replace_policy(policy.build().expect("valid policy"))
                    });
                    s.policy = policy.clone();
                    s.policy_since = s.session.tests_run() as u64;
                    s.mutations += 1;
                    if s.mutations.is_multiple_of(SNAPSHOT_EVERY) {
                        snap(tr, *session, s, i);
                    }
                }
                Command::Gauge { session } => {
                    let s = &sessions[session];
                    std::hint::black_box(
                        tr.time("core.gauge", i, || aware_core::gauge::render(&s.session)),
                    );
                }
                Command::Transcript { session, .. } => {
                    let s = &sessions[session];
                    std::hint::black_box(tr.time("core.transcript", i, || {
                        aware_core::transcript::export_csv(&s.session)
                    }));
                }
                Command::CloseSession { session } => {
                    let s = sessions.remove(session).expect("live session");
                    snap(tr, *session, &s, i);
                    tr.time("core.other", i, || drop(s));
                }
                _ => {}
            }
        }
    }
    (image_bytes, images)
}

/// The data pass: each visualization's filter and histogram through
/// the `aware-data` kernels, the goodness-of-fit test the engine runs
/// for it, and the α-investing decision on its p-value.
fn data_pass(tr: &mut Tracer, table: &Table, units: &[Vec<Command>]) {
    let cache = EvalCache::new();
    let mut global: HashMap<String, Vec<f64>> = HashMap::new();
    let mut machines: HashMap<SessionId, AlphaInvesting<BoxedPolicy>> = HashMap::new();
    for (i, unit) in units.iter().enumerate() {
        let i = i as u64;
        for cmd in unit {
            match cmd {
                Command::CreateSessionAs {
                    session,
                    alpha,
                    policy,
                    ..
                } => {
                    let machine = AlphaInvesting::new(
                        *alpha,
                        1.0 - alpha,
                        policy.build().expect("valid policy"),
                    )
                    .expect("valid machine");
                    machines.insert(*session, machine);
                }
                Command::AddVisualization {
                    session,
                    attribute,
                    filter,
                } => {
                    let pred = filter.to_predicate();
                    let bits = tr.time("data.eval", i, || pred.eval(table));
                    std::hint::black_box(bits.expect("predicate evaluates"));
                    let sel = tr
                        .time("data.selection", i, || cache.selection(table, &pred))
                        .expect("selection");
                    let h = tr
                        .time("data.histogram", i, || {
                            aware_data::hist::histogram(table, attribute, Some(&sel))
                        })
                        .expect("histogram");
                    let props = global.entry(attribute.clone()).or_insert_with(|| {
                        aware_data::hist::histogram(table, attribute, None)
                            .expect("histogram")
                            .proportions()
                    });
                    let counts = h.counts();
                    let test = tr.time("stats.test", i, || {
                        aware_stats::tests::chi_square_gof(&counts, props)
                    });
                    if let (Ok(outcome), Some(m)) = (test, machines.get_mut(session)) {
                        if m.can_continue() {
                            let p = outcome.p_value;
                            let _ = tr.time("mht.invest", i, || m.test(p));
                        }
                    }
                }
                Command::SetPolicy { session, policy } => {
                    if let Some(m) = machines.get_mut(session) {
                        m.replace_policy(policy.build().expect("valid policy"));
                    }
                }
                Command::CloseSession { session } => {
                    machines.remove(session);
                }
                _ => {}
            }
        }
    }
}

/// Offsets that keep the cluster passes' sessions apart from the
/// service pass's on the one shared service.
const POOL_OFFSET: u64 = 1 << 36;
const ROUTER_OFFSET: u64 = 1 << 37;

/// The cluster pass: each unit through a `ShardPool` straight to a
/// shard, and through a `RouterHandle` with that one shard joined, so
/// the pool round trip is the router's only child.
fn cluster_pass(
    tr: &mut Tracer,
    handle: &ServiceHandle,
    units: &[Vec<Command>],
    reactor: bool,
) -> Result<(), String> {
    let shard = ServerFront::bind("127.0.0.1:0", handle.clone(), reactor)
        .map_err(|e| format!("bind replay shard: {e}"))?;
    let addr = shard.local_addr().to_string();
    let pool = ShardPool::new(addr.clone()).map_err(|e| format!("pool: {e}"))?;
    let router = Router::start(RouterConfig::default());
    let rh = router.handle();
    match rh.call(Command::JoinShard { addr }) {
        Response::Rebalanced { .. } => {}
        other => return Err(format!("replay router join: {other:?}")),
    }
    for (i, unit) in units.iter().enumerate() {
        let i = i as u64;
        let p: Vec<Command> = unit.iter().map(|c| rebase(c, POOL_OFFSET)).collect();
        let r: Vec<Command> = unit.iter().map(|c| rebase(c, ROUTER_OFFSET)).collect();
        let via_pool = tr.time("pool.call", i, || {
            if p.len() == 1 {
                pool.call(&p[0]).map(|r| vec![r])
            } else {
                pool.call_batch(&p, BatchMode::Continue)
            }
        });
        let via_pool = via_pool.map_err(|e| format!("pool call: {e:?}"))?;
        let via_router = tr.time("router.call", i, || dispatch(&rh, &r));
        for (cmd, resp) in p.iter().zip(&via_pool).chain(r.iter().zip(&via_router)) {
            if !crate::drive::expected(cmd, resp) {
                return Err(format!("cluster replay: {} got {resp:?}", cmd.name()));
            }
        }
    }
    drop(router);
    drop(shard);
    Ok(())
}

/// Units each workload's replay covers.
fn replay_units(workload: Workload) -> usize {
    match workload {
        Workload::Explore => 3000,
        Workload::Scan1m => 160,
        Workload::RoutedBatch => 48,
    }
}

/// Runs every pass and returns the [T] metrics as (name, value, unit). `e2e_p50_ms` is the
/// untraced run's median for the workload's headline request, against
/// which the blocking spans are held for `trace.residual_frac`.
pub fn run(
    workload: Workload,
    seed: u64,
    out: &Path,
    e2e_p50_ms: f64,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let mut tr = Tracer::new();
    let table = tr.time("data.census_gen", u64::MAX, || {
        CensusGenerator::new(seed).generate(workload.rows())
    });
    let table = Arc::new(table);
    let units = workload::units(workload, seed, replay_units(workload));
    let prepared: Vec<Prepared> = units
        .iter()
        .enumerate()
        .map(|(i, u)| prepare(i as u64, u))
        .collect();
    let commands: u64 = units.iter().map(|u| u.len() as u64).sum();

    // Untraced baseline first, then the traced pass, each on a fresh
    // service so both start from a cold cache.
    let baseline = service(&table);
    let (untraced_s, _) = service_pass(&baseline.handle(), &prepared, None);
    baseline.shutdown();
    let traced = service(&table);
    let handle = traced.handle();
    let t_start = Instant::now();
    let (_, reply_bytes) = service_pass(&handle, &prepared, Some(&mut tr));
    let traced_s = t_start.elapsed().as_secs_f64();
    let stats = match handle.call(Command::Stats) {
        Response::Stats(s) => s,
        other => return Err(format!("replay stats: {other:?}")),
    };

    let store_dir = out.join("replay-store");
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = SnapshotStore::open(&store_dir).map_err(|e| format!("snapshot store: {e}"))?;
    let (image_bytes, images) = core_pass(&mut tr, &table, &units, &store);
    data_pass(&mut tr, &table, &units);
    cluster_pass(&mut tr, &handle, &units, workload == Workload::RoutedBatch)?;
    traced.shutdown();
    let _ = std::fs::remove_dir_all(&store_dir);

    tr.write(&out.join("spans.tsv"))
        .map_err(|e| format!("write spans: {e}"))?;

    // Dispatch = the service call minus the engine time the same unit
    // spent in aware-core.
    let calls = tr.per_unit("service.call");
    let mut core_time: HashMap<u64, u64> = HashMap::new();
    for name in [
        "core.add_viz",
        "core.gauge",
        "core.transcript",
        "core.other",
    ] {
        for (unit, t) in tr.per_unit(name) {
            *core_time.entry(unit).or_insert(0) += t;
        }
    }
    // Signed: where the engine dominates, run-to-run noise between the
    // two passes can exceed the dispatch cost itself.
    let mut dispatch: Vec<i64> = calls
        .iter()
        .map(|(unit, call)| *call as i64 - core_time.get(unit).copied().unwrap_or(0) as i64)
        .collect();
    dispatch.sort_unstable();
    let dispatch_us = dispatch.get(dispatch.len() / 2).copied().unwrap_or(0) as f64 / 1e3;

    // Blocking spans of the headline request on the serving path.
    let headline: Vec<u64> = match workload {
        Workload::RoutedBatch => (0..units.len() as u64).collect(),
        _ => units
            .iter()
            .enumerate()
            .filter(|(_, u)| matches!(u[0], Command::AddVisualization { .. }))
            .map(|(i, _)| i as u64)
            .collect(),
    };
    let unit_p50 = |name: &str| {
        let per = tr.per_unit(name);
        p50_us(
            headline
                .iter()
                .filter_map(|u| per.get(u).copied())
                .collect(),
        )
    };
    let blocking_us = match workload {
        Workload::Explore => {
            unit_p50("proto.decode") + unit_p50("service.call") + unit_p50("proto.encode")
        }
        Workload::Scan1m => {
            unit_p50("wire.decode") + unit_p50("service.call") + unit_p50("wire.encode")
        }
        Workload::RoutedBatch => {
            unit_p50("wire.decode") + unit_p50("router.call") + unit_p50("wire.encode")
        }
    };
    let residual = 1.0 - blocking_us / (e2e_p50_ms * 1e3);

    let d = |name: &str| p50_us(tr.durations(name));
    let pool_us = d("pool.call");
    let router_us = d("router.call");
    let metrics = vec![
        ("proto.decode_us", d("proto.decode"), "us"),
        ("proto.encode_us", d("proto.encode"), "us"),
        ("wire.decode_us", d("wire.decode"), "us"),
        ("wire.encode_us", d("wire.encode"), "us"),
        (
            "wire.reply_bytes_per_cmd",
            reply_bytes as f64 / commands as f64,
            "B/cmd",
        ),
        ("service.call_us", d("service.call"), "us"),
        ("service.dispatch_us", dispatch_us, "us"),
        ("core.add_viz_us", d("core.add_viz"), "us"),
        ("core.gauge_us", d("core.gauge"), "us"),
        ("core.transcript_us", d("core.transcript"), "us"),
        ("data.eval_us", d("data.eval"), "us"),
        ("data.selection_us", d("data.selection"), "us"),
        ("data.histogram_us", d("data.histogram"), "us"),
        ("data.census_gen_s", d("data.census_gen") / 1e6, "s"),
        ("stats.test_us", d("stats.test"), "us"),
        ("mht.invest_us", d("mht.invest"), "us"),
        ("mht.tests", stats.hypotheses_tested as f64, "count"),
        ("mht.discoveries", stats.discoveries as f64, "count"),
        (
            "mht.rejected_by_budget",
            stats.rejected_by_budget as f64,
            "count",
        ),
        ("snapshot.encode_us", d("snapshot.encode"), "us"),
        (
            "snapshot.image_bytes",
            image_bytes as f64 / images.max(1) as f64,
            "B",
        ),
        ("store.save_us", d("store.save"), "us"),
        ("pool.call_us", pool_us, "us"),
        ("router.call_us", router_us, "us"),
        ("router.self_us", router_us - pool_us, "us"),
        ("trace.overhead_frac", traced_s / untraced_s - 1.0, "ratio"),
        ("trace.residual_frac", residual, "ratio"),
    ];
    Ok(metrics)
}
