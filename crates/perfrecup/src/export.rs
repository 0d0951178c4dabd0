//! FAIR archival export (paper §V: "we have stored the data and metadata
//! in a unique tabular format, with at least one common identifier between
//! every two different data sources").
//!
//! Writes one run's complete characterization data to a directory:
//! every view as CSV (the common tabular format), the provenance chart and
//! run manifest as JSON, and the Darshan logs in their binary format.

use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::Path;

use dtf_core::error::{DtfError, Result};
use dtf_wms::RunData;

use crate::csv::write_records;
use crate::views::RunViews;

/// Streams one view of a run as CSV.
type ViewWriter = fn(&RunViews<'_>, &mut BufWriter<File>) -> io::Result<()>;

/// Every CSV file of the bundle with the records it holds, in write order.
const VIEWS: [(&str, ViewWriter); 8] = [
    ("tasks.csv", |v, w| write_records(&v.data.task_done, w)),
    ("task_meta.csv", |v, w| write_records(&v.data.meta, w)),
    ("transitions.csv", |v, w| write_records(&v.data.transitions, w)),
    ("worker_transitions.csv", |v, w| write_records(&v.data.worker_transitions, w)),
    ("comms.csv", |v, w| write_records(&v.data.comms, w)),
    ("io.csv", |v, w| write_records(v.data.darshan.all_records(), w)),
    ("warnings.csv", |v, w| write_records(&v.data.warnings, w)),
    // the fused task<->I/O view, the paper's headline join
    ("task_io.csv", |v, w| write_records(v.io_tasks(), w)),
];

/// CSV files written by [`export_run`].
pub const CSV_VIEWS: [&str; VIEWS.len()] = {
    let mut names = [""; VIEWS.len()];
    let mut i = 0;
    while i < names.len() {
        names[i] = VIEWS[i].0;
        i += 1;
    }
    names
};

/// Fill `inner` through a buffer, then flush it explicitly: a final write
/// that fails is returned, not discarded as `BufWriter`'s drop would.
fn buffered<W: io::Write>(
    inner: W,
    fill: impl FnOnce(&mut BufWriter<W>) -> io::Result<()>,
) -> io::Result<W> {
    let mut w = BufWriter::with_capacity(1 << 16, inner);
    fill(&mut w)?;
    w.into_inner().map_err(io::IntoInnerError::into_error)
}

/// Create `path` and fill it; any failure is an error naming the file.
fn write_file(
    path: &Path,
    fill: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> Result<()> {
    let io_err = |what: &str, e: io::Error| DtfError::Io(format!("{what} {}: {e}", path.display()));
    let file = File::create(path).map_err(|e| io_err("create", e))?;
    buffered(file, fill).map_err(|e| io_err("write", e))?;
    Ok(())
}

/// Export everything collected from `data` into `dir` (created if absent).
/// Returns the number of files written.
pub fn export_run(data: &RunData, dir: &Path) -> Result<usize> {
    std::fs::create_dir_all(dir)
        .map_err(|e| DtfError::Io(format!("mkdir {}: {e}", dir.display())))?;
    let views = RunViews::new(data);
    let mut written = 0;

    // every view streamed record by record, no frame in between
    for (name, view) in VIEWS {
        write_file(&dir.join(name), |w| view(&views, w))?;
        written += 1;
    }

    // provenance chart (layers 1-2) and run manifest
    let chart = serde_json::to_string_pretty(&data.chart)?;
    write_file(&dir.join("provenance_chart.json"), |w| w.write_all(chart.as_bytes()))?;
    written += 1;
    let manifest = serde_json::json!({
        "run": data.run.to_string(),
        "workflow": data.workflow,
        "wall_time_s": data.wall_time.as_secs_f64(),
        "distinct_tasks": data.distinct_tasks(),
        "task_graphs": data.task_graphs(),
        "distinct_files": data.distinct_files(),
        "io_ops_traced": data.io_ops(),
        "io_ops_complete": data.io_ops_complete(),
        "communications": data.comm_count(),
        "warnings": data.warnings.len(),
        "steals": data.steals,
        "dxt_truncated": data.darshan.any_truncated(),
        "identifiers": {
            "tasks": ["key", "worker", "thread", "start_s", "stop_s"],
            "io": ["host", "thread", "start_s", "stop_s"],
            "comms": ["key", "from", "to"],
            "workers": ["address", "host"],
        },
    });
    let manifest = serde_json::to_string_pretty(&manifest)?;
    write_file(&dir.join("manifest.json"), |w| w.write_all(manifest.as_bytes()))?;
    written += 1;

    // per-process Darshan logs in their binary format
    for log in &data.darshan.logs {
        let name = format!("darshan_{}.dtflog", log.header.worker.address().replace(':', "_"));
        write_file(&dir.join(name), |w| w.write_all(&log.to_bytes()))?;
        written += 1;
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtf_core::ids::{GraphId, RunId};
    use dtf_core::time::Dur;
    use dtf_darshan::log::DarshanLog;
    use dtf_wms::sim::{SimCluster, SimConfig, SimWorkflow, SubmitPolicy};
    use dtf_wms::{GraphBuilder, IoCall, SimAction};

    fn run() -> RunData {
        let mut b = GraphBuilder::new(GraphId(0));
        let tok = b.new_token();
        for i in 0..5u32 {
            b.add_sim(
                "load",
                tok,
                i,
                vec![],
                SimAction {
                    compute: Dur::from_millis_f64(20.0),
                    io: vec![IoCall::read(dtf_core::ids::FileId(0), 0, 4096)],
                    output_nbytes: 1024,
                    stall_rate: 0.0,
                },
            );
        }
        let wf = SimWorkflow {
            name: "export-test".into(),
            graphs: vec![b.build(&Default::default()).unwrap()],
            submit: SubmitPolicy::AllAtOnce,
            startup: Dur::from_secs_f64(0.5),
            inter_graph: Dur::ZERO,
            shutdown: Dur::ZERO,
            dataset: vec![("/f".into(), 1 << 20, 1)],
        };
        SimCluster::new(SimConfig { campaign_seed: 9, run: RunId(0), ..Default::default() })
            .unwrap()
            .run(wf)
            .unwrap()
    }

    #[test]
    fn export_writes_complete_bundle() {
        let data = run();
        let dir = std::env::temp_dir().join(format!("dtf-export-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let n = export_run(&data, &dir).unwrap();
        // 7 views + task_io + chart + manifest + 8 worker logs
        assert_eq!(CSV_VIEWS.len(), 8);
        assert_eq!(n, 18);
        for f in CSV_VIEWS {
            let content = std::fs::read_to_string(dir.join(f)).unwrap();
            assert!(content.lines().count() >= 1, "{f} has a header");
        }
        // tasks.csv has 5 rows + header
        let tasks = std::fs::read_to_string(dir.join("tasks.csv")).unwrap();
        assert_eq!(tasks.lines().count(), 6);
        // manifest fields
        let manifest: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(dir.join("manifest.json")).unwrap())
                .unwrap();
        assert_eq!(manifest["distinct_tasks"], 5);
        assert_eq!(manifest["workflow"], "export-test");
        // binary darshan logs parse back
        let any_log = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .find(|e| e.file_name().to_string_lossy().ends_with(".dtflog"))
            .expect("darshan log written");
        let bytes = std::fs::read(any_log.path()).unwrap();
        assert!(DarshanLog::from_bytes(&bytes).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_view_write_is_an_error_naming_the_file() {
        let data = run();
        let dir = std::env::temp_dir().join(format!("dtf-export-blocked-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("tasks.csv")).unwrap();
        let err = export_run(&data, &dir).expect_err("tasks.csv is a directory");
        assert!(matches!(err, DtfError::Io(_)), "{err:?}");
        assert!(err.to_string().contains("tasks.csv"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_final_flush_is_returned() {
        struct Full;
        impl io::Write for Full {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        // the row fits the buffer, so only the final flush reaches `Full`
        let err = buffered(Full, |w| w.write_all(b"key,prefix\n")).err().expect("flush fails");
        assert_eq!(err.to_string(), "disk full");
    }
}
