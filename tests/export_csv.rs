//! Byte-identity gate for the streamed CSV export: every view written
//! record by record through `csv::write_records` (and every
//! `DataFrame::to_csv`) must equal what the frame-based renderer produced
//! before streaming, kept here as the oracle. Covers arbitrary records of
//! every `Tabular` type, task prefixes that need quoting, special `f64`
//! cells, `Null` task_io keys from vanilla DXT, and header-only views.

use std::collections::HashSet;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use dtf::core::events::{
    CommEvent, IoOp, IoRecord, Location, ProxyAction, ProxyEvent, Stimulus, TaskDoneEvent,
    TaskMetaEvent, TaskState, TransitionEvent, WarningEvent, WarningKind, WorkerTaskState,
    WorkerTransitionEvent,
};
use dtf::core::ids::{ClientId, FileId, GraphId, NodeId, RunId, TaskKey, ThreadId, WorkerId};
use dtf::core::table::{CellSink, Tabular, Value};
use dtf::core::time::{Dur, Time};
use dtf::darshan::DxtConfig;
use dtf::perfrecup::csv::write_records;
use dtf::perfrecup::export::{export_run, CSV_VIEWS};
use dtf::perfrecup::{DataFrame, RunViews};
use dtf::wms::graph::{GraphBuilder, IoCall, SimAction};
use dtf::wms::sim::{SimCluster, SimConfig, SimWorkflow, SubmitPolicy};
use dtf::wms::RunData;

/// The CSV renderer as it was before streaming: clone each row, render
/// every cell to its own `String`, quote, join.
fn oracle_csv(df: &DataFrame) -> String {
    fn field(s: String) -> String {
        if s.contains(',') || s.contains('"') || s.contains('\n') {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s
        }
    }
    let mut out = String::new();
    out.push_str(&df.names().iter().map(|n| field(n.clone())).collect::<Vec<_>>().join(","));
    out.push('\n');
    for i in 0..df.n_rows() {
        let row: Vec<String> = df.row(i).iter().map(|v| field(v.to_string())).collect();
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

/// Counts the cells a record emits.
#[derive(Default)]
struct Count(usize);

impl CellSink for Count {
    fn str(&mut self, _: &str) {
        self.0 += 1;
    }
    fn u64(&mut self, _: u64) {
        self.0 += 1;
    }
    fn i64(&mut self, _: i64) {
        self.0 += 1;
    }
    fn f64(&mut self, _: f64) {
        self.0 += 1;
    }
    fn bool(&mut self, _: bool) {
        self.0 += 1;
    }
    fn null(&mut self) {
        self.0 += 1;
    }
    fn fmt(&mut self, _: std::fmt::Arguments<'_>) {
        self.0 += 1;
    }
}

/// Streamed CSV, `to_csv` and the oracle agree on `records`, and every
/// record emits exactly one cell per schema column.
fn assert_streams_like_oracle<T: Tabular>(records: &[T]) {
    let df = DataFrame::from_tabular(records);
    let want = oracle_csv(&df);
    let mut streamed = Vec::new();
    write_records(records, &mut streamed).unwrap();
    assert_eq!(String::from_utf8(streamed).unwrap(), want, "streamed vs oracle");
    assert_eq!(df.to_csv(), want, "to_csv vs oracle");
    for r in records {
        let mut n = Count::default();
        r.emit(&mut n);
        assert_eq!(n.0, T::schema().len(), "cells emitted vs schema width");
    }
}

/// A record of arbitrary cells, to drive every `Value` variant through
/// the encoder. Its column names need quoting too.
struct Cells(Vec<Value>);

impl Tabular for Cells {
    fn schema() -> Vec<&'static str> {
        vec!["plain", "com,ma", "qu\"ote", "new\nline", "last"]
    }
    fn emit<S: CellSink + ?Sized>(&self, out: &mut S) {
        for v in &self.0 {
            v.emit(out);
        }
    }
}

fn pick<T: Copy>(rng: &mut SmallRng, xs: &[T]) -> T {
    xs[rng.gen_range(0..xs.len())]
}

fn text(rng: &mut SmallRng) -> String {
    const FIXED: [&str; 8] = ["load", "", "a,b", "say \"hi\"", "two\nlines", "\"", ",", "ünï\r\n"];
    if rng.gen_bool(0.5) {
        return pick(rng, &FIXED).to_string();
    }
    let alphabet = ['a', 'z', '_', ',', '"', '\n', ' ', '\'', 'é', '-'];
    (0..rng.gen_range(0..9)).map(|_| pick(rng, &alphabet)).collect()
}

fn f64_cell(rng: &mut SmallRng) -> f64 {
    match rng.gen_range(0..4) {
        0 => pick(
            rng,
            &[f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, 0.0078125, 1e300],
        ),
        1 => 1e15 + rng.gen_range(0.0..1e18),
        2 => f64::from_bits(rng.gen()),
        _ => rng.gen::<u64>() as f64 / 1e9,
    }
}

fn value(rng: &mut SmallRng) -> Value {
    match rng.gen_range(0..6) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen()),
        2 => {
            let any = rng.gen();
            Value::I64(pick(rng, &[i64::MIN, -1, 0, any]))
        }
        3 => {
            let any = rng.gen();
            Value::U64(pick(rng, &[0, u64::MAX, any]))
        }
        4 => Value::F64(f64_cell(rng)),
        _ => Value::Str(text(rng)),
    }
}

fn key(rng: &mut SmallRng) -> TaskKey {
    let any = rng.gen();
    let token = pick(rng, &[0, 0xabc, u32::MAX, any]);
    TaskKey::new(text(rng), token, rng.gen())
}

fn worker(rng: &mut SmallRng) -> WorkerId {
    WorkerId::new(NodeId(rng.gen_range(0..70_000)), rng.gen_range(0..64))
}

/// A `(start, stop)` pair with `start <= stop`.
fn span(rng: &mut SmallRng) -> (Time, Time) {
    let start = rng.gen::<u64>() >> rng.gen_range(1..64);
    (Time(start), Time(start + (rng.gen::<u64>() >> rng.gen_range(1..64))))
}

const TASK_STATES: [TaskState; 8] = [
    TaskState::Released,
    TaskState::Waiting,
    TaskState::NoWorker,
    TaskState::Queued,
    TaskState::Processing,
    TaskState::Memory,
    TaskState::Erred,
    TaskState::Forgotten,
];

const WORKER_STATES: [WorkerTaskState; 8] = [
    WorkerTaskState::Waiting,
    WorkerTaskState::Fetch,
    WorkerTaskState::Flight,
    WorkerTaskState::Ready,
    WorkerTaskState::Executing,
    WorkerTaskState::Memory,
    WorkerTaskState::Error,
    WorkerTaskState::Released,
];

const STIMULI: [Stimulus; 11] = [
    Stimulus::GraphSubmitted,
    Stimulus::DependenciesMet,
    Stimulus::Dispatched,
    Stimulus::ComputeStarted,
    Stimulus::ComputeFinished,
    Stimulus::ComputeErred,
    Stimulus::WorkStolen,
    Stimulus::WorkerLost,
    Stimulus::ClientReleased,
    Stimulus::NoWorkerAvailable,
    Stimulus::Queue,
];

const PROXY_ACTIONS: [ProxyAction; 6] = [
    ProxyAction::Published,
    ProxyAction::Republished,
    ProxyAction::Resolved,
    ProxyAction::Evicted,
    ProxyAction::Resourced,
    ProxyAction::Orphaned,
];

fn transition(rng: &mut SmallRng) -> TransitionEvent {
    TransitionEvent {
        key: key(rng),
        graph: GraphId(rng.gen()),
        from: pick(rng, &TASK_STATES),
        to: pick(rng, &TASK_STATES),
        stimulus: pick(rng, &STIMULI),
        location: if rng.gen() { Location::Scheduler } else { Location::Worker(worker(rng)) },
        time: span(rng).0,
    }
}

fn worker_transition(rng: &mut SmallRng) -> WorkerTransitionEvent {
    WorkerTransitionEvent {
        key: key(rng),
        graph: GraphId(rng.gen()),
        worker: worker(rng),
        from: pick(rng, &WORKER_STATES),
        to: pick(rng, &WORKER_STATES),
        time: span(rng).0,
    }
}

fn meta(rng: &mut SmallRng) -> TaskMetaEvent {
    TaskMetaEvent {
        key: key(rng),
        graph: GraphId(rng.gen()),
        client: ClientId(rng.gen()),
        deps: (0..rng.gen_range(0..4)).map(|_| key(rng)).collect(),
        submitted: span(rng).0,
    }
}

fn done(rng: &mut SmallRng) -> TaskDoneEvent {
    let (start, stop) = span(rng);
    TaskDoneEvent {
        key: key(rng),
        graph: GraphId(rng.gen()),
        worker: worker(rng),
        thread: ThreadId(rng.gen()),
        start,
        stop,
        nbytes: rng.gen(),
    }
}

fn comm(rng: &mut SmallRng) -> CommEvent {
    let (start, stop) = span(rng);
    CommEvent { key: key(rng), from: worker(rng), to: worker(rng), nbytes: rng.gen(), start, stop }
}

fn io(rng: &mut SmallRng) -> IoRecord {
    let (start, stop) = span(rng);
    IoRecord {
        host: NodeId(rng.gen()),
        worker: worker(rng),
        thread: ThreadId(rng.gen()),
        file: FileId(rng.gen()),
        op: pick(rng, &[IoOp::Open, IoOp::Read, IoOp::Write, IoOp::Close]),
        offset: rng.gen(),
        size: rng.gen(),
        start,
        stop,
    }
}

fn warning(rng: &mut SmallRng) -> WarningEvent {
    WarningEvent {
        kind: pick(rng, &[WarningKind::UnresponsiveEventLoop, WarningKind::GcPause]),
        worker: if rng.gen() { Some(worker(rng)) } else { None },
        time: span(rng).0,
        duration: Dur(rng.gen()),
    }
}

fn proxy(rng: &mut SmallRng) -> ProxyEvent {
    ProxyEvent {
        action: pick(rng, &PROXY_ACTIONS),
        key: key(rng),
        graph: GraphId(rng.gen()),
        size: rng.gen(),
        owner: worker(rng),
        checksum: rng.gen(),
        generation: rng.gen(),
        worker: if rng.gen() { Some(worker(rng)) } else { None },
        time: span(rng).0,
    }
}

/// 0..6 records from `gen`; a third of the views are empty.
fn records<T>(rng: &mut SmallRng, gen: fn(&mut SmallRng) -> T) -> Vec<T> {
    let n = if rng.gen_range(0..3) == 0 { 0 } else { rng.gen_range(1..6) };
    (0..n).map(|_| gen(rng)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_records_stream_like_the_oracle(seed in any::<u64>()) {
        let rng = &mut SmallRng::seed_from_u64(seed);
        assert_streams_like_oracle(&records(rng, transition));
        assert_streams_like_oracle(&records(rng, worker_transition));
        assert_streams_like_oracle(&records(rng, meta));
        assert_streams_like_oracle(&records(rng, done));
        assert_streams_like_oracle(&records(rng, comm));
        assert_streams_like_oracle(&records(rng, io));
        assert_streams_like_oracle(&records(rng, warning));
        assert_streams_like_oracle(&records(rng, proxy));
        let cells: Vec<Cells> = (0..rng.gen_range(0..8))
            .map(|_| Cells((0..Cells::schema().len()).map(|_| value(rng)).collect()))
            .collect();
        assert_streams_like_oracle(&cells);
    }
}

/// A small simulated run whose task prefixes need quoting, with I/O so the
/// task_io join has rows.
fn quoted_prefix_run(dxt: DxtConfig) -> RunData {
    let mut b = GraphBuilder::new(GraphId(0));
    let tok = b.new_token();
    for (i, prefix) in ["load,\"x\"", "say\nhi", "plain"].iter().cycle().take(9).enumerate() {
        b.add_sim(
            prefix,
            tok,
            i as u32,
            vec![],
            SimAction {
                compute: Dur::from_millis_f64(20.0),
                io: vec![IoCall::read(FileId(0), i as u64 * 4096, 4096)],
                output_nbytes: 1024,
                stall_rate: 0.0,
            },
        );
    }
    let wf = SimWorkflow {
        name: "export-csv".into(),
        graphs: vec![b.build(&HashSet::new()).unwrap()],
        submit: SubmitPolicy::AllAtOnce,
        startup: Dur::from_secs_f64(0.5),
        inter_graph: Dur::ZERO,
        shutdown: Dur::ZERO,
        dataset: vec![("/f".into(), 1 << 20, 1)],
    };
    let cfg = SimConfig { run: RunId(0), dxt, ..Default::default() };
    SimCluster::new(cfg).unwrap().run(wf).unwrap()
}

/// Export `data` and compare every CSV file with the oracle rendering of
/// the matching view; returns the task_io frame.
fn assert_bundle_matches_oracle(data: &RunData, tag: &str) -> DataFrame {
    let dir = std::env::temp_dir().join(format!("dtf-export-csv-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    export_run(data, &dir).unwrap();
    let v = RunViews::new(data);
    let views = [
        ("tasks.csv", v.tasks()),
        ("task_meta.csv", v.meta()),
        ("transitions.csv", v.transitions()),
        ("worker_transitions.csv", v.worker_transitions()),
        ("comms.csv", v.comms()),
        ("io.csv", v.io()),
        ("warnings.csv", v.warnings()),
        ("task_io.csv", v.task_io()),
    ];
    let names: Vec<&str> = views.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, CSV_VIEWS, "every view is exported");
    for (name, df) in &views {
        let written = std::fs::read_to_string(dir.join(name)).unwrap();
        assert_eq!(written, oracle_csv(df), "{tag}: {name}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
    let joined: Vec<_> = v.io_tasks().collect();
    assert_streams_like_oracle(&joined);
    v.task_io()
}

#[test]
fn exported_bundle_matches_the_oracle() {
    let keys = |df: &DataFrame| -> (usize, usize) {
        let col = df.col("key").unwrap();
        let nulls = col.iter().filter(|v| matches!(v, Value::Null)).count();
        (col.len() - nulls, nulls)
    };

    let data = quoted_prefix_run(DxtConfig::default());
    assert!(data.task_done.iter().any(|d| d.key.prefix.as_str().contains('"')));
    let (matched, _) = keys(&assert_bundle_matches_oracle(&data, "pthread"));
    assert!(matched > 0, "the join attributes I/O to quoted-prefix tasks");

    // vanilla DXT scrubs thread ids: every task_io key/prefix is Null
    let data = quoted_prefix_run(DxtConfig::vanilla());
    let (matched, nulls) = keys(&assert_bundle_matches_oracle(&data, "vanilla"));
    assert!(matched == 0 && nulls > 0, "unmatched I/O exports Null cells");

    // a run with no records: every view is its header alone
    let mut empty = data.clone();
    empty.meta.clear();
    empty.transitions.clear();
    empty.worker_transitions.clear();
    empty.task_done.clear();
    empty.comms.clear();
    empty.warnings.clear();
    empty.darshan.logs.clear();
    assert_bundle_matches_oracle(&empty, "empty");
}
