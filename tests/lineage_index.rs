//! Equivalence gate for the indexed lineage builder: `lineage::build_all`
//! and `Lineages::get` must return exactly what a per-key linear scan of
//! every stream returns, element order included, for real runs and for
//! hand-built edge cases the simulator never produces.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;

use dtf::core::error::{DtfError, Result};
use dtf::core::fault::WorkerDeath;
use dtf::core::ids::{FileId, GraphId, RunId, TaskKey, ThreadId};
use dtf::core::provenance::{LineageLocation, LineageTransition, TaskLineage};
use dtf::core::time::{Dur, Time};
use dtf::perfrecup::lineage::{self, Lineages};
use dtf::wms::graph::{GraphBuilder, IoCall, SimAction, TaskGraph};
use dtf::wms::sim::{SimCluster, SimConfig, SimWorkflow, SubmitPolicy};
use dtf::wms::RunData;

/// The lineage of `key` by scanning every stream once per key.
fn scan(data: &RunData, key: &TaskKey) -> Result<TaskLineage> {
    let meta = data
        .meta
        .iter()
        .find(|m| &m.key == key)
        .ok_or_else(|| DtfError::NotFound(format!("task {key} in meta stream")))?;
    let dependents =
        data.meta.iter().filter(|m| m.deps.contains(key)).map(|m| m.key.clone()).collect();
    let states = data
        .transitions
        .iter()
        .filter(|t| &t.key == key && t.from != t.to)
        .map(|t| LineageTransition {
            from: t.from,
            to: t.to,
            stimulus: t.stimulus,
            location: t.location,
            time: t.time,
        })
        .collect();
    let done = data.task_done.iter().rfind(|d| &d.key == key);
    let movements: Vec<_> = data.comms.iter().filter(|c| &c.key == key).cloned().collect();
    let mut locations = Vec::new();
    if let Some(d) = done {
        locations.push(LineageLocation { worker: d.worker, thread: Some(d.thread), since: d.stop });
    }
    for m in &movements {
        locations.push(LineageLocation { worker: m.to, thread: None, since: m.stop });
    }
    let mut io = Vec::new();
    if let Some(d) = done {
        for r in data.darshan.all_records() {
            if r.thread == d.thread && r.start >= d.start && r.start <= d.stop {
                io.push(r.clone());
            }
        }
    }
    Ok(TaskLineage {
        key: Some(key.clone()),
        graph: Some(meta.graph),
        client: Some(meta.client),
        submitted: Some(meta.submitted),
        dependencies: meta.deps.clone(),
        dependents,
        states,
        locations,
        movements,
        io,
        output_nbytes: done.map(|d| d.nbytes),
        start: done.map(|d| d.start),
        stop: done.map(|d| d.stop),
    })
}

/// Assert the index agrees with the scan on every key of `data`, plus one
/// the run never saw. Returns the number of keys compared.
fn assert_index_matches_scan(data: &RunData) -> usize {
    let mut expected = HashMap::new();
    for m in &data.meta {
        expected.insert(m.key.clone(), scan(data, &m.key).unwrap());
    }
    let all = lineage::build_all(data);
    assert_eq!(all.len(), expected.len());
    for (key, want) in &expected {
        assert_eq!(all.get(key), Some(want), "build_all lineage of {key}");
    }
    let index = Lineages::new(data);
    for (key, want) in &expected {
        assert_eq!(&index.get(key).unwrap(), want, "indexed lineage of {key}");
    }
    let ghost = TaskKey::new("ghost", 0, 0);
    assert!(scan(data, &ghost).is_err());
    assert!(index.get(&ghost).is_err());
    assert!(lineage::build(data, &ghost).is_err());
    expected.len()
}

/// The two-task `lineage-test` run: a reading root and a compute-only
/// child.
fn two_task_run() -> (RunData, TaskKey, TaskKey) {
    let mut b = GraphBuilder::new(GraphId(0));
    let tok = b.new_token();
    let root = b.add_sim(
        "load",
        tok,
        0,
        vec![],
        SimAction {
            compute: Dur::from_millis_f64(40.0),
            io: vec![IoCall::read(FileId(0), 0, 4096)],
            output_nbytes: 1 << 20,
            stall_rate: 0.0,
        },
    );
    let child = b.add_sim(
        "consume",
        tok,
        0,
        vec![root.clone()],
        SimAction::compute_only(Dur::from_millis_f64(20.0), 64),
    );
    let wf = SimWorkflow {
        name: "lineage-test".into(),
        graphs: vec![b.build(&HashSet::new()).unwrap()],
        submit: SubmitPolicy::AllAtOnce,
        startup: Dur::from_secs_f64(1.0),
        inter_graph: Dur::ZERO,
        shutdown: Dur::ZERO,
        dataset: vec![("/f".into(), 1 << 20, 1)],
    };
    let data = SimCluster::new(SimConfig { run: RunId(0), ..Default::default() })
        .unwrap()
        .run(wf)
        .unwrap();
    (data, root, child)
}

#[test]
fn two_task_run_matches_scan() {
    let (data, root, _) = two_task_run();
    assert_eq!(assert_index_matches_scan(&data), 2);
    assert!(!lineage::build(&data, &root).unwrap().io.is_empty(), "the root's read is joined");
}

#[test]
fn hand_built_edge_cases_match_scan() {
    let (mut data, root, child) = two_task_run();
    let root_done = data.task_done.iter().find(|d| d.key == root).unwrap().clone();
    let io = data.darshan.all_records().next().expect("the root read something").clone();

    // duplicate deps, and a second meta record of the same dependent
    let child_meta = data.meta.iter_mut().find(|m| m.key == child).unwrap();
    child_meta.deps = vec![root.clone(), root.clone()];
    let child_meta = child_meta.clone();
    data.meta.push(child_meta);

    // a task that never completes, with a transition and a movement
    let pending = TaskKey::new("pending", 7, 0);
    let mut pending_meta = data.meta[0].clone();
    pending_meta.key = pending.clone();
    pending_meta.deps = vec![root.clone(), child.clone(), root.clone()];
    data.meta.push(pending_meta);
    let mut t = data.transitions[0].clone();
    t.key = pending.clone();
    data.transitions.push(t);
    let mut c = data.comms.first().cloned().unwrap_or(dtf::core::events::CommEvent {
        key: root.clone(),
        from: root_done.worker,
        to: root_done.worker,
        nbytes: 1,
        start: root_done.stop,
        stop: root_done.stop,
    });
    c.key = pending;
    data.comms.push(c);

    // the child never completes either
    data.task_done.retain(|d| d.key != child);

    // events for a key the meta stream never names
    let stray = TaskKey::new("stray", 1, 1);
    let mut t = data.transitions[0].clone();
    t.key = stray.clone();
    data.transitions.push(t);
    let mut d = root_done.clone();
    d.key = stray;
    data.task_done.push(d);

    // a second completion of the root, on another thread and later: the
    // last one wins
    let mut again = root_done.clone();
    again.thread = ThreadId(io.thread.0 + 1000);
    again.start = root_done.stop + Dur::from_millis_f64(5.0);
    again.stop = again.start + Dur::from_millis_f64(10.0);
    data.task_done.push(again.clone());

    // DXT on the winning thread: exactly at start and stop, just outside
    // both, out of time order, equal starts, and split across two logs
    let at = |start: Time, offset: u64| {
        let mut r = io.clone();
        r.thread = again.thread;
        r.start = start;
        r.stop = start;
        r.offset = offset;
        r
    };
    let tick = Dur::from_millis_f64(1.0);
    let mid = again.start + Dur::from_millis_f64(5.0);
    let first_log = vec![
        at(again.stop, 1),
        at(again.stop + tick, 2),
        at(mid, 3),
        at(again.start, 4),
        at(mid, 5),
        at(Time(again.start.0 - 1), 6),
    ];
    let second_log = vec![at(mid, 7), at(again.start, 8), at(Time(again.stop.0 + 1), 9)];
    let mut log = data.darshan.logs[0].clone();
    log.dxt = second_log;
    data.darshan.logs[0].dxt.extend(first_log);
    data.darshan.logs.push(log);

    assert_eq!(assert_index_matches_scan(&data), 3);
    let l = lineage::build(&data, &root).unwrap();
    let offsets: Vec<u64> = l.io.iter().map(|r| r.offset).collect();
    assert_eq!(offsets, vec![1, 3, 4, 5, 7, 8], "scan order, both bounds inclusive");
    assert_eq!(l.dependents, vec![child.clone(), child, TaskKey::new("pending", 7, 0)]);
    assert_eq!(l.start, Some(again.start));
}

/// A layered DAG whose tasks read and write a shared file, so the DXT join
/// is exercised on every worker thread.
fn layered_io_dag(layers: usize, width: usize, bytes: Vec<u8>) -> TaskGraph {
    let mut b = GraphBuilder::new(GraphId(0));
    let tok = b.new_token();
    let mut prev: Vec<TaskKey> = Vec::new();
    let mut byte_iter = bytes.into_iter().cycle();
    for layer in 0..layers {
        let mut current = Vec::new();
        for i in 0..width {
            let deps: Vec<TaskKey> = prev
                .iter()
                .filter(|_| byte_iter.next().unwrap_or(0).is_multiple_of(3))
                .cloned()
                .collect();
            let n_io = byte_iter.next().unwrap_or(0) % 4;
            let io = (0..n_io as u64)
                .map(|k| {
                    if k % 2 == 0 {
                        IoCall::read(FileId(0), k * 4096, 4096)
                    } else {
                        IoCall::write(FileId(0), k * 4096, 4096)
                    }
                })
                .collect();
            let ms = 5.0 + (byte_iter.next().unwrap_or(0) % 50) as f64;
            let action = SimAction {
                compute: Dur::from_millis_f64(ms),
                io,
                output_nbytes: 64 << 10,
                stall_rate: 0.0,
            };
            current.push(b.add_sim("node", tok, (layer * width + i) as u32, deps, action));
        }
        prev = current;
    }
    b.build(&HashSet::new()).expect("layered DAG is acyclic")
}

fn workflow_of(graph: TaskGraph) -> SimWorkflow {
    SimWorkflow {
        name: "prop".into(),
        graphs: vec![graph],
        submit: SubmitPolicy::AllAtOnce,
        startup: Dur::from_secs_f64(1.0),
        inter_graph: Dur::ZERO,
        shutdown: Dur::ZERO,
        dataset: vec![("/shared".into(), 1 << 20, 1)],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary layered workflows, optionally losing a worker mid-run so
    /// some tasks complete twice, index exactly as they scan.
    #[test]
    fn arbitrary_workflows_match_scan(
        layers in 1usize..6,
        width in 1usize..10,
        bytes in proptest::collection::vec(any::<u8>(), 1..64),
        (dead_worker, death_frac) in (0u32..8, 0.05f64..0.9),
        seed in 0u64..1000,
    ) {
        let graph = layered_io_dag(layers, width, bytes);
        let n_tasks = graph.len();
        let mut cfg = SimConfig { campaign_seed: seed, run: RunId(0), ..Default::default() };
        // worker 0 never dies: it stands for "no fault". Deaths land while
        // the graph runs (it starts at 1 s), so lost outputs are recomputed.
        if dead_worker > 0 {
            let time = Time::from_secs_f64(1.0 + 0.2 * death_frac);
            cfg.faults.deaths.push(WorkerDeath { worker: dead_worker, time });
        }
        let data = SimCluster::new(cfg).unwrap().run(workflow_of(graph)).unwrap();
        prop_assert_eq!(assert_index_matches_scan(&data), n_tasks);
    }
}
