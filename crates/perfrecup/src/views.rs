//! Views: uniform DataFrames over one run's multi-source data, plus the
//! fused task↔I/O view.
//!
//! The load-bearing join (paper §III-E3, §V): Darshan DXT records carry
//! `(host, pthread id, timestamps)`; Dask task records carry
//! `(worker, pthread id, start, stop)`. An I/O record belongs to the task
//! that was executing on that thread at that moment. Without the authors'
//! pthread-id extension this join is impossible — `task_io` on a
//! vanilla-DXT run returns no matches, which is exactly the
//! interoperability gap the paper calls out.

use std::collections::HashMap;

use dtf_core::events::IoRecord;
use dtf_core::ids::{TaskKey, ThreadId};
use dtf_core::table::{CellSink, Tabular, Value};
use dtf_core::time::Time;
use dtf_wms::RunData;

use crate::frame::DataFrame;

/// One traced I/O operation joined to the task that issued it: a row of
/// the fused task↔I/O view.
#[derive(Debug, Clone, Copy)]
pub struct TaskIo<'a> {
    pub io: &'a IoRecord,
    pub task: Option<&'a TaskKey>,
}

impl Tabular for TaskIo<'_> {
    fn schema() -> Vec<&'static str> {
        let mut schema = IoRecord::schema();
        schema.extend(["key", "prefix"]);
        schema
    }

    fn emit<S: CellSink + ?Sized>(&self, out: &mut S) {
        self.io.emit(out);
        match self.task {
            Some(key) => {
                out.fmt(format_args!("{key}"));
                out.str(key.prefix.as_str());
            }
            None => {
                out.null();
                out.null();
            }
        }
    }
}

/// Lazily built DataFrame views over one run.
pub struct RunViews<'a> {
    pub data: &'a RunData,
}

impl<'a> RunViews<'a> {
    pub fn new(data: &'a RunData) -> Self {
        Self { data }
    }

    /// Completed tasks (key, group, prefix, graph, worker, host, thread,
    /// start/stop/duration, nbytes).
    pub fn tasks(&self) -> DataFrame {
        DataFrame::from_tabular(&self.data.task_done)
    }

    /// Task metadata at submission (key, deps count, client, graph).
    pub fn meta(&self) -> DataFrame {
        DataFrame::from_tabular(&self.data.meta)
    }

    /// All task state transitions.
    pub fn transitions(&self) -> DataFrame {
        DataFrame::from_tabular(&self.data.transitions)
    }

    /// Worker-side task state transitions (waiting/fetch/flight/ready/
    /// executing/memory).
    pub fn worker_transitions(&self) -> DataFrame {
        DataFrame::from_tabular(&self.data.worker_transitions)
    }

    /// Inter-worker communications.
    pub fn comms(&self) -> DataFrame {
        DataFrame::from_tabular(&self.data.comms)
    }

    /// Traced I/O operations across all workers' Darshan logs.
    pub fn io(&self) -> DataFrame {
        DataFrame::from_tabular(self.data.darshan.all_records())
    }

    /// Runtime warnings.
    pub fn warnings(&self) -> DataFrame {
        DataFrame::from_tabular(&self.data.warnings)
    }

    /// Every traced I/O operation, in `darshan.all_records()` order, with
    /// the task that issued it: the task executing on the same pthread at
    /// the operation's start. Operations that match no task (e.g. thread
    /// ids scrubbed by vanilla DXT) get `None`. This is the join behind
    /// both [`Self::task_io`] and the exported `task_io.csv`.
    pub fn io_tasks(&self) -> impl Iterator<Item = TaskIo<'a>> {
        // index tasks by thread, sorted by start time
        let mut by_thread: HashMap<ThreadId, Vec<(Time, Time, &TaskKey)>> = HashMap::new();
        for d in &self.data.task_done {
            by_thread.entry(d.thread).or_default().push((d.start, d.stop, &d.key));
        }
        for v in by_thread.values_mut() {
            v.sort_by_key(|(s, _, _)| *s);
        }
        self.data.darshan.all_records().map(move |io| {
            // the start as the io view's `start_s` column holds it
            let t = Time::from_secs_f64(io.start.as_secs_f64());
            let task = by_thread.get(&io.thread).and_then(|intervals| {
                // last interval starting at or before t
                let idx = intervals.partition_point(|(s, _, _)| *s <= t);
                intervals[..idx].iter().rev().find(|(_, stop, _)| *stop >= t).map(|(_, _, k)| *k)
            });
            TaskIo { io, task }
        })
    }

    /// The fused task↔I/O view: the io view plus the issuing task's `key`
    /// and `prefix` ([`Self::io_tasks`]), `Null` where none matched.
    pub fn task_io(&self) -> DataFrame {
        DataFrame::from_tabular(self.io_tasks())
    }

    /// Fraction of traced I/O operations successfully attributed to a task
    /// by [`Self::task_io`]; 1.0 with the pthread-id extension, ~0 without.
    pub fn io_attribution_rate(&self) -> f64 {
        let df = self.task_io();
        if df.is_empty() {
            return 0.0;
        }
        let matched = df
            .col("key")
            .expect("task_io has key")
            .iter()
            .filter(|v| !matches!(v, Value::Null))
            .count();
        matched as f64 / df.n_rows() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtf_core::ids::{GraphId, RunId};
    use dtf_core::time::Dur;
    use dtf_wms::sim::{SimCluster, SimConfig, SimWorkflow, SubmitPolicy};
    use dtf_wms::{GraphBuilder, IoCall, SimAction};
    use std::collections::HashSet;

    fn run_with_io(dxt: dtf_darshan::DxtConfig) -> RunData {
        let mut b = GraphBuilder::new(GraphId(0));
        let tok = b.new_token();
        for i in 0..12u32 {
            b.add_sim(
                "load",
                tok,
                i,
                vec![],
                SimAction {
                    compute: Dur::from_millis_f64(30.0),
                    io: vec![IoCall::read(dtf_core::ids::FileId(0), i as u64 * 1024, 1024)],
                    output_nbytes: 1024,
                    stall_rate: 0.0,
                },
            );
        }
        let wf = SimWorkflow {
            name: "views-test".into(),
            graphs: vec![b.build(&HashSet::new()).unwrap()],
            submit: SubmitPolicy::AllAtOnce,
            startup: Dur::from_secs_f64(1.0),
            inter_graph: Dur::ZERO,
            shutdown: Dur::ZERO,
            dataset: vec![("/f".into(), 1 << 20, 1)],
        };
        let cfg = SimConfig { run: RunId(0), dxt, ..Default::default() };
        SimCluster::new(cfg).unwrap().run(wf).unwrap()
    }

    #[test]
    fn views_have_expected_shapes() {
        let data = run_with_io(dtf_darshan::DxtConfig::default());
        let v = RunViews::new(&data);
        assert_eq!(v.tasks().n_rows(), 12);
        assert_eq!(v.meta().n_rows(), 12);
        assert!(v.transitions().n_rows() >= 36);
        // each task: ready + executing + memory worker-side observations
        assert!(v.worker_transitions().n_rows() >= 36);
        // 12 reads + 12 opens + 12 closes
        assert_eq!(v.io().n_rows(), 36);
    }

    #[test]
    fn queue_waits_are_nonnegative_and_complete() {
        let data = run_with_io(dtf_darshan::DxtConfig::default());
        let waits = data.queue_waits();
        assert_eq!(waits.len(), 12, "every executed task has a ready->executing wait");
        for (_, w) in &waits {
            assert!(w.0 < 10_000_000_000, "waits are bounded in this tiny run");
        }
    }

    #[test]
    fn task_io_attributes_every_op_with_thread_ids() {
        let data = run_with_io(dtf_darshan::DxtConfig::default());
        let v = RunViews::new(&data);
        assert!((v.io_attribution_rate() - 1.0).abs() < 1e-9);
        // reads map to load tasks
        let fused = v.task_io();
        let fused = fused.filter("op", |o| o.as_str() == Some("read")).unwrap();
        for p in fused.col("prefix").unwrap() {
            assert_eq!(p.as_str(), Some("load"));
        }
    }

    #[test]
    fn vanilla_dxt_breaks_the_join() {
        // the ablation the paper motivates: without pthread ids, Darshan
        // records cannot be correlated with tasks
        let data = run_with_io(dtf_darshan::DxtConfig::vanilla());
        let v = RunViews::new(&data);
        assert_eq!(v.io_attribution_rate(), 0.0);
    }
}
