//! The three workloads: their frozen configuration and their seeded
//! command streams.
//!
//! Every command a run sends is a pure function of the seed. Each
//! workload is a set of *slots*; a slot runs one analyst session after
//! another, so sessions are closed and replaced and the server's state
//! stays stationary (gauge and snapshot cost grow with session
//! history). The first session of slot `k` is shortened in proportion
//! to `k`, which staggers the closes.

use aware_data::predicate::CmpOp;
use aware_data::value::Value;
use aware_serve::proto::{Command, FilterSpec, PolicySpec, SessionId, TranscriptFormat};

/// Session ids are chosen by the benchmark (`create_session_as`) so a
/// session's commands never wait on its create reply. They start far
/// above any id a server or router allocates on its own.
pub const ID_BASE: u64 = 1 << 40;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Explore,
    Scan1m,
    RoutedBatch,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Explore, Workload::Scan1m, Workload::RoutedBatch];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Explore => "explore",
            Workload::Scan1m => "scan_1m",
            Workload::RoutedBatch => "routed_batch",
        }
    }

    /// Census rows the server generates from the seed.
    pub fn rows(self) -> usize {
        match self {
            Workload::Explore | Workload::RoutedBatch => 20_000,
            Workload::Scan1m => 1_000_000,
        }
    }

    /// Concurrent session slots.
    pub fn slots(self) -> usize {
        match self {
            Workload::Explore => 32,
            Workload::Scan1m => 4,
            Workload::RoutedBatch => 16,
        }
    }

    /// Most hypotheses one session can test; policy parameters are
    /// scaled to it so no session exhausts its α-wealth.
    fn max_tests(self) -> usize {
        match self {
            Workload::Explore => EXPLORE_VIZ,
            Workload::Scan1m => SCAN_VIZ,
            Workload::RoutedBatch => ROUTED_ROUNDS,
        }
    }
}

/// explore: per session, 14 `add_visualization`, 3 `gauge`, 2
/// `set_policy`, then `transcript` and `close_session` (22 commands
/// with the create).
const EXPLORE_VIZ: usize = 14;
const EXPLORE_GAUGE: usize = 3;
const EXPLORE_POLICY: usize = 2;
/// scan_1m: `add_visualization` per session (then one `gauge`,
/// `transcript` and `close_session`).
const SCAN_VIZ: usize = 40;
/// routed_batch: rounds of `add_visualization, set_policy, gauge,
/// gauge` per session (200 mutations).
const ROUTED_ROUNDS: usize = 100;
/// routed_batch: items each slot contributes to one batch.
pub const ROUTED_ITEMS_PER_SLOT: usize = 4;

/// splitmix64: small, fast, and stable across platforms and releases.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Derives an independent stream seed from a run seed and a label.
pub fn derive(seed: u64, label: u64) -> u64 {
    let mut r = Rng::new(seed ^ label.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    r.next_u64()
}

/// One analyst session: its id and every command it sends, create
/// first, `transcript` (CSV) and `close_session` last.
#[derive(Clone, Debug)]
pub struct Script {
    pub id: SessionId,
    pub cmds: Vec<Command>,
}

/// A slot's endless sequence of sessions.
pub struct Slot {
    workload: Workload,
    rng: Rng,
    index: u64,
    total: u64,
    generation: u64,
    script: Script,
    pos: usize,
}

impl Slot {
    pub fn new(workload: Workload, seed: u64, index: usize) -> Slot {
        let total = workload.slots();
        let mut slot = Slot {
            workload,
            rng: Rng::new(derive(seed, 0x510_7000 + index as u64)),
            index: index as u64,
            total: total as u64,
            generation: 0,
            script: Script {
                id: 0,
                cmds: Vec::new(),
            },
            pos: 0,
        };
        // Stagger: the first session is cut to (index + 1) / total of
        // its full length.
        slot.start_session((index + 1) as f64 / total as f64);
        slot
    }

    fn start_session(&mut self, fraction: f64) {
        let id = ID_BASE + self.generation * self.total + self.index;
        self.generation += 1;
        let rng = &mut self.rng;
        self.script = match self.workload {
            Workload::Explore => explore_script(rng, id, fraction),
            Workload::Scan1m => scan_script(rng, id, fraction),
            Workload::RoutedBatch => routed_script(rng, id, fraction),
        };
        self.pos = 0;
    }

    /// The slot's next command, and the finished script when this was
    /// its last command.
    pub fn next(&mut self) -> (Command, Option<Script>) {
        let cmd = self.script.cmds[self.pos].clone();
        self.pos += 1;
        if self.pos < self.script.cmds.len() {
            return (cmd, None);
        }
        let done = std::mem::replace(
            &mut self.script,
            Script {
                id: 0,
                cmds: Vec::new(),
            },
        );
        self.start_session(1.0);
        (cmd, Some(done))
    }
}

/// Fresh slots for a workload.
pub fn slots(workload: Workload, seed: u64) -> Vec<Slot> {
    (0..workload.slots())
        .map(|i| Slot::new(workload, seed, i))
        .collect()
}

/// The request units a run sends, in one fixed order: explore and
/// scan_1m send single commands, routed_batch sends 64-item batches.
/// This is the traced replay's input and the stream the run's hash
/// covers.
pub fn units(workload: Workload, seed: u64, count: usize) -> Vec<Vec<Command>> {
    let mut slots = slots(workload, seed);
    let mut out = Vec::with_capacity(count);
    match workload {
        Workload::Explore => {
            // One connection round-robins over every slot.
            for i in 0..count {
                let slot = i % slots.len();
                out.push(vec![slots[slot].next().0]);
            }
        }
        Workload::Scan1m => {
            // Connection c owns the slots with index % 2 == c and
            // round-robins over its own; the two connections alternate
            // here.
            let per_conn = slots.len() / 2;
            for i in 0..count {
                let conn = i % 2;
                let turn = i / 2;
                let slot = conn + 2 * (turn % per_conn);
                out.push(vec![slots[slot].next().0]);
            }
        }
        Workload::RoutedBatch => {
            for _ in 0..count {
                out.push(next_batch(&mut slots, &mut Vec::new()));
            }
        }
    }
    out
}

/// The next routed_batch envelope: four commands from each slot, in
/// slot order. Scripts that finish inside it are appended to
/// `finished`.
pub fn next_batch(slots: &mut [Slot], finished: &mut Vec<Script>) -> Vec<Command> {
    let mut cmds = Vec::with_capacity(slots.len() * ROUTED_ITEMS_PER_SLOT);
    for slot in slots.iter_mut() {
        for _ in 0..ROUTED_ITEMS_PER_SLOT {
            let (cmd, done) = slot.next();
            cmds.push(cmd);
            finished.extend(done);
        }
    }
    cmds
}

/// FNV-1a over the NDJSON encoding of every command in `units`.
pub fn stream_hash(units: &[Vec<Command>]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for cmd in units.iter().flatten() {
        for b in cmd.encode_line(None).bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Units the stream hash covers.
pub fn hash_units(workload: Workload) -> usize {
    match workload {
        Workload::Explore => 4096,
        Workload::Scan1m => 1024,
        Workload::RoutedBatch => 128,
    }
}

/// The explore filter pool: a small set of clauses that concurrent
/// sessions share, so their chains hit the shared evaluation cache.
fn pool_clause(i: usize) -> FilterSpec {
    let eq = |column: &str, value: &str| FilterSpec::Cmp {
        column: column.into(),
        op: CmpOp::Eq,
        value: Value::Str(value.into()),
    };
    let between = |column: &str, lo: f64, hi: f64| FilterSpec::Between {
        column: column.into(),
        lo,
        hi,
    };
    match i {
        0 => eq("education", "Bachelor"),
        1 => eq("education", "HS"),
        2 => FilterSpec::In {
            column: "education".into(),
            values: vec![Value::Str("Master".into()), Value::Str("PhD".into())],
        },
        3 => eq("sex", "Female"),
        4 => eq("sex", "Male"),
        5 => eq("marital_status", "Married"),
        6 => eq("marital_status", "Never-Married"),
        7 => eq("occupation", "Professional"),
        8 => between("age", 25.0, 40.0),
        9 => between("age", 40.0, 65.0),
        10 => between("hours_per_week", 40.0, 80.0),
        _ => eq("native_region", "North"),
    }
}

const POOL_CLAUSES: usize = 12;

fn clause_column(f: &FilterSpec) -> &str {
    match f {
        FilterSpec::Cmp { column, .. }
        | FilterSpec::In { column, .. }
        | FilterSpec::Between { column, .. } => column,
        _ => "",
    }
}

fn conjunction(mut clauses: Vec<FilterSpec>) -> FilterSpec {
    match clauses.len() {
        0 => FilterSpec::True,
        1 => clauses.pop().expect("one clause"),
        _ => FilterSpec::And(clauses),
    }
}

/// An attribute to plot that the filter does not already fix.
fn pick_attribute(rng: &mut Rng, filter: &[FilterSpec]) -> String {
    let attrs = aware_data::census::ATTRIBUTES;
    loop {
        let a = attrs[rng.below(attrs.len())];
        if filter.iter().all(|c| clause_column(c) != a) {
            return a.to_string();
        }
    }
}

/// One of the paper's investing rules, with parameters scaled to
/// `tests` so that `tests` acceptances in a row cannot exhaust the
/// wealth under any mix of them.
fn policy(rng: &mut Rng, tests: usize) -> PolicySpec {
    let scale = (2 * tests).max(20) as f64;
    match rng.below(5) {
        0 => PolicySpec::Fixed { gamma: scale },
        1 => PolicySpec::Hopeful { delta: scale },
        2 => PolicySpec::Farsighted { beta: 0.95 },
        3 => PolicySpec::PsiSupport {
            gamma: scale,
            psi: 0.5,
        },
        _ => PolicySpec::EpsilonHybrid {
            gamma: scale,
            delta: scale,
            epsilon: 0.3,
            window: Some(10),
        },
    }
}

fn create(rng: &mut Rng, id: SessionId, tests: usize) -> Command {
    Command::CreateSessionAs {
        session: id,
        dataset: "census".into(),
        alpha: 0.05,
        policy: policy(rng, tests),
    }
}

fn finish(id: SessionId, cmds: &mut Vec<Command>) {
    cmds.push(Command::Transcript {
        session: id,
        format: TranscriptFormat::Csv,
    });
    cmds.push(Command::CloseSession { session: id });
}

/// A filter chain that grows step by step from the shared pool, as an
/// analyst drills down, with an occasional step back to the overview.
struct Chain(Vec<FilterSpec>);

impl Chain {
    fn step(&mut self, rng: &mut Rng) {
        let r = rng.unit();
        if r < 0.15 {
            self.0.clear();
        } else if r < 0.65 && self.0.len() < 3 {
            let clause = pool_clause(rng.below(POOL_CLAUSES));
            if self
                .0
                .iter()
                .all(|c| clause_column(c) != clause_column(&clause))
            {
                self.0.push(clause);
            }
        }
    }

    fn viz(&self, rng: &mut Rng, session: SessionId) -> Command {
        Command::AddVisualization {
            session,
            attribute: pick_attribute(rng, &self.0),
            filter: conjunction(self.0.clone()),
        }
    }
}

fn explore_script(rng: &mut Rng, id: SessionId, fraction: f64) -> Script {
    let tests = Workload::Explore.max_tests();
    let mut cmds = vec![create(rng, id, tests)];
    let mut kinds: Vec<u8> = std::iter::repeat_n(0, EXPLORE_VIZ - 1)
        .chain(std::iter::repeat_n(1, EXPLORE_GAUGE))
        .chain(std::iter::repeat_n(2, EXPLORE_POLICY))
        .collect();
    for i in (1..kinds.len()).rev() {
        let j = rng.below(i + 1);
        kinds.swap(i, j);
    }
    // The first step always plots something.
    kinds.insert(0, 0);
    let keep = ((kinds.len() as f64 * fraction).ceil() as usize).max(1);
    kinds.truncate(keep);
    let mut chain = Chain(Vec::new());
    for kind in kinds {
        cmds.push(match kind {
            0 => {
                chain.step(rng);
                chain.viz(rng, id)
            }
            1 => Command::Gauge { session: id },
            _ => Command::SetPolicy {
                session: id,
                policy: policy(rng, tests),
            },
        });
    }
    finish(id, &mut cmds);
    Script { id, cmds }
}

/// A predicate no other probe shares: random numeric ranges on `age`
/// and `hours_per_week` plus one categorical clause.
fn unique_filter(rng: &mut Rng) -> Vec<FilterSpec> {
    let round = |x: f64| (x * 1000.0).round() / 1000.0;
    let age_lo = round(17.0 + rng.unit() * 40.0);
    let age_hi = round(age_lo + 8.0 + rng.unit() * 30.0);
    let hours_lo = round(15.0 + rng.unit() * 30.0);
    let hours_hi = round(hours_lo + 10.0 + rng.unit() * 40.0);
    let (column, domain): (&str, &[&str]) = match rng.below(4) {
        0 => ("education", &aware_data::census::EDUCATION),
        1 => ("marital_status", &aware_data::census::MARITAL),
        2 => ("occupation", &aware_data::census::OCCUPATION),
        _ => ("race", &aware_data::census::RACE),
    };
    let a = domain[rng.below(domain.len())];
    let b = domain[rng.below(domain.len())];
    vec![
        FilterSpec::Between {
            column: "age".into(),
            lo: age_lo,
            hi: age_hi,
        },
        FilterSpec::Between {
            column: "hours_per_week".into(),
            lo: hours_lo,
            hi: hours_hi,
        },
        FilterSpec::In {
            column: column.into(),
            values: vec![Value::Str(a.into()), Value::Str(b.into())],
        },
    ]
}

fn scan_script(rng: &mut Rng, id: SessionId, fraction: f64) -> Script {
    let tests = Workload::Scan1m.max_tests();
    let mut cmds = vec![create(rng, id, tests)];
    let n = ((SCAN_VIZ as f64 * fraction).ceil() as usize).max(1);
    for _ in 0..n {
        let filter = unique_filter(rng);
        cmds.push(Command::AddVisualization {
            session: id,
            attribute: pick_attribute(rng, &filter),
            filter: FilterSpec::And(filter),
        });
    }
    cmds.push(Command::Gauge { session: id });
    finish(id, &mut cmds);
    Script { id, cmds }
}

fn routed_script(rng: &mut Rng, id: SessionId, fraction: f64) -> Script {
    let tests = Workload::RoutedBatch.max_tests();
    let mut cmds = vec![create(rng, id, tests)];
    let rounds = ((ROUTED_ROUNDS as f64 * fraction).ceil() as usize).max(1);
    let mut chain = Chain(Vec::new());
    for _ in 0..rounds {
        chain.step(rng);
        cmds.push(chain.viz(rng, id));
        cmds.push(Command::SetPolicy {
            session: id,
            policy: policy(rng, tests),
        });
        cmds.push(Command::Gauge { session: id });
        cmds.push(Command::Gauge { session: id });
    }
    finish(id, &mut cmds);
    Script { id, cmds }
}

/// The command's kind, for latency accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Create,
    Viz,
    Policy,
    Gauge,
    Transcript,
    Close,
}

impl Kind {
    pub fn of(cmd: &Command) -> Kind {
        match cmd {
            Command::AddVisualization { .. } => Kind::Viz,
            Command::SetPolicy { .. } => Kind::Policy,
            Command::Gauge { .. } => Kind::Gauge,
            Command::Transcript { .. } => Kind::Transcript,
            Command::CloseSession { .. } => Kind::Close,
            _ => Kind::Create,
        }
    }
}

/// Moves a session command to another session id (the traced replay
/// runs the same stream more than once against one service).
pub fn rebase(cmd: &Command, offset: u64) -> Command {
    let mut cmd = cmd.clone();
    match &mut cmd {
        Command::CreateSessionAs { session, .. }
        | Command::AddVisualization { session, .. }
        | Command::SetPolicy { session, .. }
        | Command::Gauge { session }
        | Command::Transcript { session, .. }
        | Command::CloseSession { session } => *session += offset,
        _ => {}
    }
    cmd
}
