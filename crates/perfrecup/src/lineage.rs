//! Fig. 8: the full provenance lineage of one task, reconstructed from the
//! fused multi-source data.
//!
//! Everything in the record comes from joins on shared identifiers:
//! dependencies and submission from the task-meta stream, state
//! transitions from the transition stream, compute location from the
//! completion record, replicas from communication events naming the
//! task's key, and I/O from Darshan records joined on
//! `(pthread id, execution interval)`.
//!
//! [`Lineages`] indexes every source once, so bulk lineage
//! ([`build_all`]) is one O((tasks + events + DXT records) · log DXT
//! records) pass rather than a scan of every stream per task.

use std::collections::HashMap;

use dtf_core::error::{DtfError, Result};
use dtf_core::events::{CommEvent, IoRecord, TaskDoneEvent, TaskMetaEvent, TransitionEvent};
use dtf_core::ids::{TaskKey, ThreadId};
use dtf_core::provenance::{LineageLocation, LineageTransition, TaskLineage};
use dtf_wms::RunData;

/// Per-key slice of the index, each list in stream order.
#[derive(Default)]
struct KeyIndex<'a> {
    /// The key's first task-meta record.
    meta: Option<&'a TaskMetaEvent>,
    /// Meta records naming the key as a dependency, once per record.
    dependents: Vec<&'a TaskMetaEvent>,
    /// Transitions that change the key's state.
    states: Vec<&'a TransitionEvent>,
    /// The key's last completion record.
    done: Option<&'a TaskDoneEvent>,
    /// Movements of the key's output between workers.
    comms: Vec<&'a CommEvent>,
}

/// Lineage index over one run: built by one scan of each stream, then
/// answers [`Lineages::get`] per key without rescanning.
pub struct Lineages<'a> {
    keys: HashMap<&'a TaskKey, KeyIndex<'a>>,
    /// DXT records per thread as `(scan position, record)`, sorted by
    /// `(start, scan position)`.
    io: HashMap<ThreadId, Vec<(usize, &'a IoRecord)>>,
}

impl<'a> Lineages<'a> {
    /// Index every stream of `data` once.
    pub fn new(data: &'a RunData) -> Self {
        let mut keys: HashMap<&TaskKey, KeyIndex> = HashMap::new();
        for m in &data.meta {
            keys.entry(&m.key).or_default().meta.get_or_insert(m);
        }
        for m in &data.meta {
            for dep in &m.deps {
                if let Some(ix) = keys.get_mut(dep) {
                    if !ix.dependents.last().is_some_and(|last| std::ptr::eq(*last, m)) {
                        ix.dependents.push(m);
                    }
                }
            }
        }
        for t in data.transitions.iter().filter(|t| t.from != t.to) {
            if let Some(ix) = keys.get_mut(&t.key) {
                ix.states.push(t);
            }
        }
        for d in &data.task_done {
            if let Some(ix) = keys.get_mut(&d.key) {
                ix.done = Some(d);
            }
        }
        for c in &data.comms {
            if let Some(ix) = keys.get_mut(&c.key) {
                ix.comms.push(c);
            }
        }
        let mut io: HashMap<ThreadId, Vec<(usize, &IoRecord)>> = HashMap::new();
        for (pos, r) in data.darshan.all_records().enumerate() {
            io.entry(r.thread).or_default().push((pos, r));
        }
        for records in io.values_mut() {
            // stable: equal starts keep scan order
            records.sort_by_key(|(_, r)| r.start);
        }
        Self { keys, io }
    }

    /// The lineage of `key`; `NotFound` when the meta stream never names it.
    pub fn get(&self, key: &TaskKey) -> Result<TaskLineage> {
        self.keys
            .get(key)
            .and_then(|ix| self.lineage(ix))
            .ok_or_else(|| DtfError::NotFound(format!("task {key} in meta stream")))
    }

    fn lineage(&self, ix: &KeyIndex<'a>) -> Option<TaskLineage> {
        let meta = ix.meta?;
        let done = ix.done;
        let states = ix
            .states
            .iter()
            .map(|t| LineageTransition {
                from: t.from,
                to: t.to,
                stimulus: t.stimulus,
                location: t.location,
                time: t.time,
            })
            .collect();
        // the compute location, then replicas created by data movements
        let locations = done
            .map(|d| LineageLocation { worker: d.worker, thread: Some(d.thread), since: d.stop })
            .into_iter()
            .chain(ix.comms.iter().map(|c| LineageLocation {
                worker: c.to,
                thread: None,
                since: c.stop,
            }))
            .collect();
        Some(TaskLineage {
            key: Some(meta.key.clone()),
            graph: Some(meta.graph),
            client: Some(meta.client),
            submitted: Some(meta.submitted),
            dependencies: meta.deps.clone(),
            dependents: ix.dependents.iter().map(|m| m.key.clone()).collect(),
            states,
            locations,
            movements: ix.comms.iter().map(|&c| c.clone()).collect(),
            io: done.map(|d| self.io_during(d)).unwrap_or_default(),
            output_nbytes: done.map(|d| d.nbytes),
            start: done.map(|d| d.start),
            stop: done.map(|d| d.stop),
        })
    }

    /// I/O performed during `d`'s execution, joined on thread id +
    /// interval, in scan order.
    fn io_during(&self, d: &TaskDoneEvent) -> Vec<IoRecord> {
        let Some(records) = self.io.get(&d.thread) else { return Vec::new() };
        let lo = records.partition_point(|(_, r)| r.start < d.start);
        let hi = records.partition_point(|(_, r)| r.start <= d.stop);
        let mut hits = records.get(lo..hi).unwrap_or_default().to_vec();
        hits.sort_unstable_by_key(|&(pos, _)| pos);
        hits.into_iter().map(|(_, r)| r.clone()).collect()
    }
}

/// Build the lineage of `key` from one run's data.
pub fn build(data: &RunData, key: &TaskKey) -> Result<TaskLineage> {
    Lineages::new(data).get(key)
}

/// Build lineages for every task in the meta stream (bulk provenance
/// export).
pub fn build_all(data: &RunData) -> HashMap<TaskKey, TaskLineage> {
    let index = Lineages::new(data);
    index.keys.iter().filter_map(|(&key, ix)| Some((key.clone(), index.lineage(ix)?))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtf_core::ids::{FileId, GraphId, RunId};
    use dtf_core::time::Dur;
    use dtf_wms::sim::{SimCluster, SimConfig, SimWorkflow, SubmitPolicy};
    use dtf_wms::{GraphBuilder, IoCall, SimAction};
    use std::collections::HashSet;

    fn run() -> (RunData, TaskKey, TaskKey) {
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
    fn lineage_is_complete_and_consistent() {
        let (data, root, child) = run();
        let l = build(&data, &root).unwrap();
        assert_eq!(l.key.as_ref(), Some(&root));
        assert_eq!(l.graph, Some(GraphId(0)));
        assert!(l.dependencies.is_empty());
        assert_eq!(l.dependents, vec![child.clone()]);
        assert!(l.is_consistent(), "state chain must be ordered and linked");
        // Released -> Waiting -> Processing -> Memory at minimum
        assert!(l.states.len() >= 3);
        assert_eq!(l.output_nbytes, Some(1 << 20));
        // the read it performed is attributed (plus open/close)
        assert_eq!(l.io.iter().filter(|r| r.op == dtf_core::events::IoOp::Read).count(), 1);
        assert!(!l.locations.is_empty());
        assert!(l.start.is_some() && l.stop.is_some());

        // child lineage sees its dependency
        let lc = build(&data, &child).unwrap();
        assert_eq!(lc.dependencies, vec![root]);
        assert!(lc.io.is_empty(), "compute-only task performed no I/O");
    }

    #[test]
    fn unknown_key_errors() {
        let (data, _, _) = run();
        assert!(build(&data, &TaskKey::new("ghost", 0, 0)).is_err());
    }

    #[test]
    fn build_all_covers_every_task() {
        let (data, _, _) = run();
        let all = build_all(&data);
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn lineage_renders_as_json() {
        let (data, root, _) = run();
        let l = build(&data, &root).unwrap();
        let js = l.to_pretty_json();
        assert!(js.contains("\"states\""));
        assert!(js.contains("load"));
    }
}
