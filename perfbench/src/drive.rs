//! The load generator: closed loops from one process, with at most two
//! threads and two load connections, each with one request in flight.
//! explore sends NDJSON v1 single commands over one connection, scan_1m
//! AWR2 single commands over two, and routed_batch 64-item AWR2 batches
//! over one.

use crate::workload::{self, Kind, Script, Slot, Workload, ID_BASE};
use aware_serve::proto::{BatchMode, Command, Encoding, Response, SessionId, TranscriptFormat};
use aware_serve::tcp::Client;
use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// On scan_1m and routed_batch the oracle replays, in each slot, the
/// first session created after each of this many points spread evenly
/// over the measured period.
const ORACLE_POINTS: usize = 4;

/// True when `r` is the success reply `cmd` must get.
pub fn expected(cmd: &Command, r: &Response) -> bool {
    match (cmd, r) {
        (
            Command::CreateSessionAs { session: a, .. },
            Response::SessionCreated { session: b, .. },
        )
        | (Command::AddVisualization { session: a, .. }, Response::VizAdded { session: b, .. })
        | (Command::SetPolicy { session: a, .. }, Response::PolicySet { session: b, .. })
        | (Command::Gauge { session: a }, Response::GaugeText { session: b, .. })
        | (Command::Transcript { session: a, .. }, Response::TranscriptText { session: b, .. })
        | (Command::CloseSession { session: a }, Response::SessionClosed { session: b, .. }) => {
            a == b
        }
        _ => false,
    }
}

/// Which sessions the oracle replays.
enum Sampling {
    All,
    /// In each slot, the first session created at or after each of
    /// these offsets from the start of the load.
    After(Vec<Duration>),
}

/// Response checking and the oracle's bookkeeping: which sessions the
/// oracle replays, their scripts and the transcripts the server sent.
pub struct Book {
    sampling: Sampling,
    slots: u64,
    /// Per slot, the first offset of `Sampling::After` not yet taken.
    next: Vec<usize>,
    sampled: HashSet<SessionId>,
    pending: HashMap<SessionId, Script>,
    transcripts: HashMap<SessionId, String>,
    pub done: Vec<(Script, String)>,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Book {
    /// A book for a load that measures `secs` seconds after `warm_s`.
    pub fn new(workload: Workload, warm_s: f64, secs: f64) -> Book {
        let sampling = match workload {
            Workload::Explore => Sampling::All,
            // Spread over the measured period, so that sessions living
            // through a full cache (scan_1m) and background snapshots
            // (routed_batch) are checked too.
            Workload::Scan1m | Workload::RoutedBatch => Sampling::After(
                (0..ORACLE_POINTS)
                    .map(|i| {
                        Duration::from_secs_f64(warm_s + secs * i as f64 / ORACLE_POINTS as f64)
                    })
                    .collect(),
            ),
        };
        Book {
            sampling,
            slots: workload.slots() as u64,
            next: vec![0; workload.slots()],
            sampled: HashSet::new(),
            pending: HashMap::new(),
            transcripts: HashMap::new(),
            done: Vec::new(),
            failed: 0,
            first_failure: None,
        }
    }

    fn sampled(&self, id: SessionId) -> bool {
        matches!(self.sampling, Sampling::All) || self.sampled.contains(&id)
    }

    /// Records that `cmd` was sent `at` after the load began.
    pub fn sent(&mut self, cmd: &Command, at: Duration) {
        let (Command::CreateSessionAs { session, .. }, Sampling::After(points)) =
            (cmd, &self.sampling)
        else {
            return;
        };
        let next = &mut self.next[((session - ID_BASE) % self.slots) as usize];
        let mut take = false;
        while *next < points.len() && points[*next] <= at {
            *next += 1;
            take = true;
        }
        if take {
            self.sampled.insert(*session);
        }
    }

    /// Records a script whose last command was just sent.
    pub fn finished(&mut self, script: Option<Script>) {
        if let Some(s) = script {
            if self.sampled(s.id) {
                self.pending.insert(s.id, s);
            }
        }
    }

    /// Takes over another connection's book.
    pub fn absorb(&mut self, other: Book) {
        self.sampled.extend(other.sampled);
        self.pending.extend(other.pending);
        self.transcripts.extend(other.transcripts);
        self.done.extend(other.done);
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(why);
        }
    }

    /// Checks one reply; true when it is the expected success.
    pub fn reply(&mut self, cmd: &Command, r: &Response) -> bool {
        if !expected(cmd, r) {
            self.fail(format!("{} got {:?}", cmd.name(), r));
            return false;
        }
        match r {
            Response::TranscriptText {
                session,
                format: TranscriptFormat::Csv,
                text,
            } if self.sampled(*session) => {
                self.transcripts.insert(*session, text.clone());
            }
            Response::SessionClosed { session, .. } => {
                self.sampled.remove(session);
                if let (Some(script), Some(text)) = (
                    self.pending.remove(session),
                    self.transcripts.remove(session),
                ) {
                    self.done.push((script, text));
                }
            }
            _ => {}
        }
        true
    }
}

/// One answered request: its kind, when it was sent (ns since the load
/// began) and its latency (ns).
pub type Sample = (Kind, u64, u64);

/// Latency samples from a closed loop.
#[derive(Default)]
pub struct Closed {
    pub samples: Vec<Sample>,
    /// Commands answered inside the measured window.
    pub commands: u64,
    pub attempted: u64,
    pub batch_items: usize,
    /// Generator time between a reply and the next request.
    pub gaps_ns: Vec<u64>,
}

/// A v1 NDJSON connection (no hello), or an AWR2 one.
fn client(addr: SocketAddr, encoding: Encoding) -> Result<Client, String> {
    match encoding {
        Encoding::Json => Client::connect(addr).map_err(|e| format!("connect {addr}: {e}")),
        Encoding::Binary => Client::connect_with(addr, Encoding::Binary)
            .map_err(|e| format!("connect {addr}: {e}")),
    }
}

/// One connection of a single-command loop: its slots round-robin, one
/// command in flight.
fn single_conn(
    addr: SocketAddr,
    encoding: Encoding,
    slots: &mut [Slot],
    book: &mut Book,
    t0: Instant,
    warm_s: f64,
    secs: f64,
) -> Result<Closed, String> {
    let mut c = client(addr, encoding)?;
    let mut out = Closed::default();
    let warm = Duration::from_secs_f64(warm_s);
    let end = Duration::from_secs_f64(warm_s + secs);
    let mut replied = Instant::now();
    let mut turn = 0usize;
    while t0.elapsed() < end {
        let (cmd, finished) = slots[turn % slots.len()].next();
        turn += 1;
        book.finished(finished);
        let sent = Instant::now();
        book.sent(&cmd, sent - t0);
        let r = c.call(&cmd).map_err(|e| format!("call: {e}"))?;
        let lat = sent.elapsed().as_nanos() as u64;
        let counted = t0.elapsed() >= warm;
        if counted {
            out.attempted += 1;
            out.gaps_ns.push((sent - replied).as_nanos() as u64);
        }
        replied = Instant::now();
        if book.reply(&cmd, &r) && counted {
            out.samples
                .push((Kind::of(&cmd), (sent - t0).as_nanos() as u64, lat));
            out.commands += 1;
        }
    }
    Ok(out)
}

/// Splits a workload's slots between the two connections by parity.
fn split_slots(workload: Workload, seed: u64) -> [Vec<Slot>; 2] {
    let (even, odd): (Vec<_>, Vec<_>) = workload::slots(workload, seed)
        .into_iter()
        .enumerate()
        .partition(|(i, _)| i % 2 == 0);
    [
        even.into_iter().map(|(_, s)| s).collect(),
        odd.into_iter().map(|(_, s)| s).collect(),
    ]
}

/// explore: one NDJSON connection that round-robins over every slot.
/// scan_1m: two AWR2 connections, one thread each, each owning half
/// the slots. Single commands in a closed loop; samples taken after
/// `warm_s` count.
pub fn single_loop(
    workload: Workload,
    addr: SocketAddr,
    seed: u64,
    warm_s: f64,
    secs: f64,
    book: &mut Book,
) -> Result<Closed, String> {
    let t0 = Instant::now();
    if workload == Workload::Explore {
        // With two connections the round trip hung on how the scheduler
        // placed six busy threads on two CPUs, and p50 moved twice as
        // much between runs.
        let mut slots = workload::slots(workload, seed);
        return single_conn(addr, Encoding::Json, &mut slots, book, t0, warm_s, secs);
    }
    let [mut even, mut odd] = split_slots(workload, seed);
    let mut other = Book::new(workload, warm_s, secs);
    let (r0, r1) = std::thread::scope(|scope| {
        let h = scope.spawn(|| {
            single_conn(addr, Encoding::Binary, &mut odd, &mut other, t0, warm_s, secs)
        });
        let a = single_conn(addr, Encoding::Binary, &mut even, book, t0, warm_s, secs);
        (a, h.join().expect("load thread panicked"))
    });
    book.absorb(other);
    let mut a = r0?;
    let b = r1?;
    a.samples.extend(b.samples);
    a.gaps_ns.extend(b.gaps_ns);
    a.commands += b.commands;
    a.attempted += b.attempted;
    Ok(a)
}

/// routed_batch: one connection, 64-item AWR2 batches in a closed
/// loop. Each sample is one batch round trip (recorded under `Viz`).
pub fn batch_loop(
    addr: SocketAddr,
    seed: u64,
    warm_s: f64,
    secs: f64,
    book: &mut Book,
) -> Result<Closed, String> {
    let mut slots = workload::slots(Workload::RoutedBatch, seed);
    let mut c = client(addr, Encoding::Binary)?;
    let mut out = Closed::default();
    let mut finished = Vec::new();
    let t0 = Instant::now();
    let warm = Duration::from_secs_f64(warm_s);
    let end = Duration::from_secs_f64(warm_s + secs);
    let mut replied = Instant::now();
    while t0.elapsed() < end {
        finished.clear();
        let cmds = workload::next_batch(&mut slots, &mut finished);
        out.batch_items = cmds.len();
        for s in finished.drain(..) {
            book.finished(Some(s));
        }
        let sent = Instant::now();
        for cmd in &cmds {
            book.sent(cmd, sent - t0);
        }
        let replies = c
            .call_batch(&cmds, BatchMode::Continue)
            .map_err(|e| format!("batch call: {e}"))?;
        let lat = sent.elapsed().as_nanos() as u64;
        let counted = t0.elapsed() >= warm;
        if counted {
            out.gaps_ns.push((sent - replied).as_nanos() as u64);
        }
        replied = Instant::now();
        let mut ok = 0;
        for (cmd, r) in cmds.iter().zip(&replies) {
            if book.reply(cmd, r) {
                ok += 1;
            }
        }
        if counted {
            out.attempted += cmds.len() as u64;
            out.commands += ok;
            out.samples
                .push((Kind::Viz, (sent - t0).as_nanos() as u64, lat));
        }
    }
    Ok(out)
}
