//! The four workloads: inputs drawn from the seed, set-up through the
//! library's public constructors, the run call, and a reference check of
//! the result that the benchmark computes on its own.

use rtx_calm::constructions::datalog_dist::{distribute_datalog, transitive_closure_program};
use rtx_calm::constructions::flood::{flood_transducer, FloodMode};
use rtx_dedalus::{
    parse_dedalus, DedalusOptions, DedalusProgram, DedalusRuntime, TemporalFacts, Trace,
};
use rtx_net::{
    run_from, run_sharded_from, run_sparse_from, Configuration, FifoRoundRobin,
    HorizontalPartition, Network, RunBudget, RunOutcome, Scheduler, ShardOptions, ShardRunOutcome,
};
use rtx_relational::{Fact, Instance, Relation, Schema, Tuple, Value};
use rtx_transducer::Transducer;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Debug;
use std::time::{Duration, Instant};

/// Step cap for the network runs: far above what any workload needs, so
/// hitting it means the run did not quiesce.
const MAX_STEPS: usize = 50_000_000;

/// The Dedalus program of `dedalus-churn`: `e` persists until a `del`
/// fact for the edge arrives, and `t` is its transitive closure.
pub const CHURN_PROGRAM: &str = "
    e(X,Y)@next :- e(X,Y), !del(X,Y).
    t(X,Y) :- e(X,Y).
    t(X,Z) :- t(X,Y), e(Y,Z).
";

/// The deductive half of [`CHURN_PROGRAM`], as the plain Datalog program
/// the Dedalus runtime maintains tick to tick.
pub const CHURN_CLOSURE: &str = "
    t(X,Y) :- e(X,Y).
    t(X,Z) :- t(X,Y), e(Y,Z).
";

/// The shape of the `tc-distributed` digraph is fixed; the seed only
/// names its vertices. Random shapes of this size differ several-fold in
/// closure size, which would swamp every run-to-run comparison.
const TC_SHAPE_SEED: u64 = 0x7c5e_ed00_0000_0002;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    FloodDense,
    FloodSparse,
    TcDistributed,
    DedalusChurn,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FloodDense,
        Workload::FloodSparse,
        Workload::TcDistributed,
        Workload::DedalusChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FloodDense => "flood-dense",
            Workload::FloodSparse => "flood-sparse",
            Workload::TcDistributed => "tc-distributed",
            Workload::DedalusChurn => "dedalus-churn",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes: [`Sizes::FULL`] for measurements, [`Sizes::SMOKE`] for
/// the seconds-long check that every metric prints.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub dense_side: usize,
    pub dense_facts: usize,
    pub sparse_width: usize,
    pub sparse_height: usize,
    pub tc_nodes: usize,
    pub tc_vertices: usize,
    pub tc_edges: usize,
    pub churn_chain: usize,
    pub churn_ladder: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        dense_side: 16,
        dense_facts: 8,
        sparse_width: 1000,
        sparse_height: 30,
        tc_nodes: 4,
        tc_vertices: 64,
        tc_edges: 96,
        churn_chain: 256,
        churn_ladder: 32,
    };

    pub const SMOKE: Sizes = Sizes {
        dense_side: 4,
        dense_facts: 3,
        sparse_width: 40,
        sparse_height: 5,
        tc_nodes: 4,
        tc_vertices: 12,
        tc_edges: 18,
        churn_chain: 24,
        churn_ladder: 8,
    };
}

/// splitmix64: the benchmark's only source of randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// `n` distinct labels, in draw order.
    pub fn labels(&mut self, n: usize) -> Vec<i64> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let v = self.below(1_000_000_000) as i64;
            if seen.insert(v) {
                out.push(v);
            }
        }
        out
    }
}

/// One workload's inputs, as plain data drawn from the seed.
pub enum Inputs {
    Flood {
        sparse: bool,
        width: usize,
        height: usize,
        values: Vec<i64>,
    },
    Tc {
        nodes: usize,
        edges: Vec<(i64, i64)>,
    },
    Churn {
        /// `(tick, edge)` arrivals of `e` facts.
        arrivals: Vec<(u64, (i64, i64))>,
        /// `(tick, edge)` arrivals of `del` facts.
        deletions: Vec<(u64, (i64, i64))>,
    },
}

impl Inputs {
    pub fn generate(w: Workload, seed: u64, sizes: &Sizes) -> Inputs {
        let mut rng = Rng::new(seed);
        match w {
            Workload::FloodDense => Inputs::Flood {
                sparse: false,
                width: sizes.dense_side,
                height: sizes.dense_side,
                values: rng.labels(sizes.dense_facts),
            },
            Workload::FloodSparse => Inputs::Flood {
                sparse: true,
                width: sizes.sparse_width,
                height: sizes.sparse_height,
                values: rng.labels(1),
            },
            Workload::TcDistributed => {
                let names = rng.labels(sizes.tc_vertices);
                let edges = tc_shape(sizes.tc_vertices, sizes.tc_edges)
                    .into_iter()
                    .map(|(a, b)| (names[a], names[b]))
                    .collect();
                Inputs::Tc {
                    nodes: sizes.tc_nodes,
                    edges,
                }
            }
            Workload::DedalusChurn => {
                let names = rng.labels(sizes.churn_chain + 1 + sizes.churn_ladder);
                let (chain, ladder) = names.split_at(sizes.churn_chain + 1);
                let chain_edges: Vec<(i64, i64)> = chain.windows(2).map(|p| (p[0], p[1])).collect();
                // The ladder: its own chain plus a skip edge out of every
                // even node, so deleting a chain edge that starts at an
                // even node leaves a detour and DRed re-derives the pairs
                // it over-deleted.
                let mut ladder_edges = Vec::new();
                let mut doomed = Vec::new();
                for i in 0..ladder.len().saturating_sub(1) {
                    ladder_edges.push((ladder[i], ladder[i + 1]));
                    if i % 4 == 0 {
                        doomed.push((ladder[i], ladder[i + 1]));
                    }
                    if i % 2 == 0 && i + 2 < ladder.len() {
                        ladder_edges.push((ladder[i], ladder[i + 2]));
                    }
                }
                let mut arrivals = Vec::new();
                for (tick, e) in chain_edges.iter().enumerate() {
                    arrivals.push((tick as u64, *e));
                }
                for (tick, e) in ladder_edges.iter().enumerate() {
                    arrivals.push((tick as u64, *e));
                }
                let first = chain_edges.len().max(ladder_edges.len()) as u64;
                let deletions = doomed
                    .into_iter()
                    .enumerate()
                    .map(|(k, e)| (first + k as u64, e))
                    .collect();
                Inputs::Churn {
                    arrivals,
                    deletions,
                }
            }
        }
    }
}

/// `m` distinct directed edges over `n` vertices (no self-loops), drawn
/// from the fixed shape seed.
fn tc_shape(n: usize, m: usize) -> Vec<(usize, usize)> {
    let mut rng = Rng::new(TC_SHAPE_SEED);
    let mut seen = BTreeSet::new();
    let mut out = Vec::with_capacity(m);
    while out.len() < m {
        let a = rng.below(n as u64) as usize;
        let b = rng.below(n as u64) as usize;
        if a != b && seen.insert((a, b)) {
            out.push((a, b));
        }
    }
    out
}

/// What a workload run is checked against.
pub enum Expected {
    /// Every node's `Store_S` equals this set.
    Flood(BTreeSet<i64>),
    /// The closure of the input edges (tc-distributed) or of the edges
    /// that survive their deletions (dedalus-churn).
    Closure(BTreeSet<(i64, i64)>),
}

impl Expected {
    pub fn of(inputs: &Inputs) -> Expected {
        match inputs {
            Inputs::Flood { values, .. } => Expected::Flood(values.iter().copied().collect()),
            Inputs::Tc { edges, .. } => Expected::Closure(closure(edges)),
            Inputs::Churn {
                arrivals,
                deletions,
            } => {
                let gone: BTreeSet<(i64, i64)> = deletions.iter().map(|(_, e)| *e).collect();
                let alive: Vec<(i64, i64)> = arrivals
                    .iter()
                    .map(|(_, e)| *e)
                    .filter(|e| !gone.contains(e))
                    .collect();
                Expected::Closure(closure(&alive))
            }
        }
    }
}

/// All pairs `(x, y)` joined by a path of at least one edge, by a BFS
/// from every vertex.
fn closure(edges: &[(i64, i64)]) -> BTreeSet<(i64, i64)> {
    let mut adj: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
    for &(a, b) in edges {
        adj.entry(a).or_default().push(b);
    }
    let mut out = BTreeSet::new();
    for &src in adj.keys() {
        let mut seen = BTreeSet::new();
        let mut queue: VecDeque<i64> = VecDeque::from([src]);
        while let Some(x) = queue.pop_front() {
            for &y in adj.get(&x).into_iter().flatten() {
                if seen.insert(y) {
                    out.insert((src, y));
                    queue.push_back(y);
                }
            }
        }
    }
    out
}

/// A workload ready to run, built through the library's constructors.
pub enum Setup {
    Net {
        net: Network,
        transducer: Transducer,
        /// Taken by the run call.
        config: Option<Configuration>,
    },
    Churn {
        program: DedalusProgram,
        edb: TemporalFacts,
    },
}

/// Time spent in the set-up's topology and configuration constructors.
#[derive(Default)]
pub struct SetupParts {
    pub topology: Duration,
    pub config: Duration,
}

fn fail<E: Debug>(what: &'static str) -> impl FnOnce(E) -> String {
    move |e| format!("{what}: {e:?}")
}

fn int_fact(rel: &str, values: &[i64]) -> Fact {
    Fact::new(
        rel,
        Tuple::new(values.iter().map(|v| Value::int(*v)).collect::<Vec<_>>()),
    )
}

/// Build the workload from its inputs: topology, input instance,
/// transducer or program, partition, and initial configuration or
/// temporal EDB.
pub fn setup(inputs: &Inputs, parts: &mut SetupParts) -> Result<Setup, String> {
    match inputs {
        Inputs::Flood {
            sparse,
            width,
            height,
            values,
        } => {
            let t0 = Instant::now();
            let net = Network::grid(*width, *height).map_err(fail("grid"))?;
            parts.topology += t0.elapsed();
            let facts: Vec<Fact> = values.iter().map(|v| int_fact("S", &[*v])).collect();
            let input =
                Instance::from_facts(Schema::new().with("S", 1), facts).map_err(fail("input"))?;
            let transducer =
                flood_transducer(input.schema(), FloodMode::Dedup, None).map_err(fail("flood"))?;
            let t1 = Instant::now();
            let config = if *sparse {
                let origin = Value::sym("n0");
                let partition = HorizontalPartition::concentrate(&net, &input, &origin)
                    .map_err(fail("partition"))?;
                Configuration::initial_lean(&net, &transducer, &partition)
            } else {
                let partition = HorizontalPartition::round_robin(&net, &input);
                Configuration::initial(&net, &transducer, &partition)
            }
            .map_err(fail("configuration"))?;
            parts.config += t1.elapsed();
            Ok(Setup::Net {
                net,
                transducer,
                config: Some(config),
            })
        }
        Inputs::Tc { nodes, edges } => {
            let t0 = Instant::now();
            let net = Network::ring(*nodes).map_err(fail("ring"))?;
            parts.topology += t0.elapsed();
            let facts: Vec<Fact> = edges
                .iter()
                .map(|(a, b)| int_fact("E", &[*a, *b]))
                .collect();
            let input =
                Instance::from_facts(Schema::new().with("E", 2), facts).map_err(fail("input"))?;
            let transducer =
                distribute_datalog(&transitive_closure_program(), &"T".into(), FloodMode::Dedup)
                    .map_err(fail("distribute_datalog"))?;
            let t1 = Instant::now();
            let partition = HorizontalPartition::round_robin(&net, &input);
            let config = Configuration::initial(&net, &transducer, &partition)
                .map_err(fail("configuration"))?;
            parts.config += t1.elapsed();
            Ok(Setup::Net {
                net,
                transducer,
                config: Some(config),
            })
        }
        Inputs::Churn {
            arrivals,
            deletions,
        } => {
            let program = parse_dedalus(CHURN_PROGRAM).map_err(fail("parse_dedalus"))?;
            let mut edb = TemporalFacts::new();
            for (tick, (a, b)) in arrivals {
                edb.insert(*tick, int_fact("e", &[*a, *b]));
            }
            for (tick, (a, b)) in deletions {
                edb.insert(*tick, int_fact("del", &[*a, *b]));
            }
            Ok(Setup::Churn { program, edb })
        }
    }
}

/// The result of one run call.
pub enum Outcome {
    Rounds(ShardRunOutcome),
    Scheduled(RunOutcome),
    Ticks(Trace),
}

/// Run a network set-up on its executor: the dense and sparse round
/// executors serially, tc-distributed on the scheduler loop `run_from` under
/// `scheduler`. `log` records the transition log of the round executors.
pub fn run_net(
    w: Workload,
    net: &Network,
    transducer: &Transducer,
    config: Configuration,
    log: bool,
    scheduler: &mut dyn Scheduler,
) -> Result<Outcome, String> {
    let budget = RunBudget::steps(MAX_STEPS);
    let mut opts = ShardOptions::serial();
    opts.record_log = log;
    match w {
        Workload::FloodDense => run_sharded_from(net, transducer, config, &opts, &budget)
            .map(Outcome::Rounds)
            .map_err(fail("run_sharded_from")),
        Workload::FloodSparse => run_sparse_from(net, transducer, config, &opts, &budget)
            .map(Outcome::Rounds)
            .map_err(fail("run_sparse_from")),
        Workload::TcDistributed => run_from(net, transducer, config, scheduler, &budget)
            .map(Outcome::Scheduled)
            .map_err(fail("run_from")),
        Workload::DedalusChurn => Err("dedalus-churn has no network".into()),
    }
}

/// Tick cap for the Dedalus run: the last arrival plus slack, so a run
/// that hits it has not converged.
pub fn churn_options(edb: &TemporalFacts) -> DedalusOptions {
    DedalusOptions {
        max_ticks: edb.last_arrival().unwrap_or(0) + 64,
        ..DedalusOptions::default()
    }
}

pub fn run_churn(program: &DedalusProgram, edb: &TemporalFacts) -> Result<Outcome, String> {
    DedalusRuntime::new(program)
        .and_then(|rt| rt.run(edb, &churn_options(edb)))
        .map(Outcome::Ticks)
        .map_err(fail("dedalus run"))
}

/// The timed run call of a set-up, with the executors' default settings.
pub fn run(w: Workload, setup: &mut Setup) -> Result<Outcome, String> {
    match setup {
        Setup::Net {
            net,
            transducer,
            config,
        } => {
            let config = config.take().ok_or("set-up already ran")?;
            run_net(
                w,
                net,
                transducer,
                config,
                false,
                &mut FifoRoundRobin::new(),
            )
        }
        Setup::Churn { program, edb } => run_churn(program, edb),
    }
}

/// Work counts of a checked run, printed beside the metrics so runs at
/// other seeds or sizes compare per unit of work.
pub type Work = Vec<(&'static str, u64)>;

fn ints(rel: &Relation) -> Option<BTreeSet<i64>> {
    rel.iter()
        .map(|t| t.get(0).and_then(Value::as_int))
        .collect()
}

fn pairs(rel: &Relation) -> Option<BTreeSet<(i64, i64)>> {
    rel.iter()
        .map(|t| Some((t.get(0)?.as_int()?, t.get(1)?.as_int()?)))
        .collect()
}

/// Check a run against the reference. Missing quiescence or
/// convergence is a failure like a wrong answer.
pub fn check(expected: &Expected, outcome: &Outcome, setup: &Setup) -> Result<Work, String> {
    match (expected, outcome, setup) {
        (Expected::Flood(want), Outcome::Rounds(o), Setup::Net { net, .. }) => {
            if !o.outcome.quiescent {
                return Err(format!("no quiescence after {} steps", o.outcome.steps));
            }
            let store = "Store_S".into();
            let cfg = &o.outcome.final_config;
            let mut nodes = 0u64;
            for node in net.nodes() {
                let state = cfg.state(node).ok_or("node without a state")?;
                let got = state.relation(&store).ok().and_then(|r| ints(&r));
                if got.as_ref() != Some(want) {
                    return Err(format!("node {node}: Store_S differs from the input"));
                }
                nodes += 1;
            }
            Ok(vec![
                ("nodes", nodes),
                ("steps", o.outcome.steps as u64),
                ("rounds", o.rounds as u64),
                ("deliveries", o.outcome.deliveries as u64),
                ("messages", o.outcome.messages_enqueued as u64),
                ("max_active", o.max_active as u64),
            ])
        }
        (Expected::Closure(want), Outcome::Scheduled(o), _) => {
            if !o.quiescent {
                return Err(format!("no quiescence after {} steps", o.steps));
            }
            if pairs(&o.output).as_ref() != Some(want) {
                return Err("output differs from the BFS closure".into());
            }
            for (node, out) in &o.outputs_per_node {
                if pairs(out).as_ref() != Some(want) {
                    return Err(format!("node {node}: output differs from the BFS closure"));
                }
            }
            Ok(vec![
                ("T", want.len() as u64),
                ("steps", o.steps as u64),
                ("deliveries", o.deliveries as u64),
                ("messages", o.messages_enqueued as u64),
            ])
        }
        (Expected::Closure(want), Outcome::Ticks(trace), _) => {
            if !trace.converged() {
                return Err(format!("no convergence in {} ticks", trace.ticks.len()));
            }
            let t = trace.last().relation(&"t".into()).ok();
            if t.as_ref().and_then(pairs).as_ref() != Some(want) {
                return Err("final t differs from the closure of the surviving edges".into());
            }
            Ok(vec![
                ("t", want.len() as u64),
                ("ticks", trace.ticks.len() as u64),
                ("trace_facts", trace_facts(trace)),
            ])
        }
        _ => Err("outcome does not match the workload".into()),
    }
}

pub fn trace_facts(trace: &Trace) -> u64 {
    trace.ticks.iter().map(|i| i.fact_count() as u64).sum()
}
