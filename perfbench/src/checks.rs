//! Output checks, counted on every iteration, and their non-vacuity
//! self-tests: each check must pass on a small intact run and fail on a
//! deliberately corrupted copy of it.

use std::collections::HashSet;
use std::path::Path;

use dtf_core::ids::{FileId, GraphId, RunId, TaskKey};
use dtf_core::time::Dur;
use dtf_mofka::bedrock::BedrockConfig;
use dtf_mofka::MofkaService;
use dtf_perfrecup::archive::ArchivedRun;
use dtf_perfrecup::export::export_run;
use dtf_perfrecup::live::{query_rundata, republish, LiveConfig, LiveViews, RunFinal, ViewQuery};
use dtf_perfrecup::live::{ViewResult, ViewSnapshot};
use dtf_wms::rundata::ArchiveMeta;
use dtf_wms::sim::{SimCluster, SimConfig, SimWorkflow, SubmitPolicy};
use dtf_wms::{GraphBuilder, IoCall, RunData, SimAction};

use crate::trace::Tracer;

pub type Check = Result<(), String>;

/// Utilization bins and thread cap the live engine and its oracle share.
pub const BINS: usize = 20;
pub const THREADS_PER_WORKER: u32 = 1;

/// Provenance events a drained record carries, over every topic.
pub fn events(d: &RunData) -> u64 {
    (d.meta.len()
        + d.transitions.len()
        + d.worker_transitions.len()
        + d.task_done.len()
        + d.comms.len()
        + d.warnings.len()
        + d.logs.len()
        + d.proxies.len()
        + d.online_io.len()) as u64
}

/// The run completed every task the generator produced.
pub fn tasks_complete(d: &RunData, expected: usize) -> Check {
    let got = d.distinct_tasks();
    if got == expected {
        Ok(())
    } else {
        Err(format!("{}: {got} distinct tasks, generator produced {expected}", d.workflow))
    }
}

/// An export completed.
pub fn exported<T>(r: dtf_core::Result<T>) -> Check {
    r.map(|_| ()).map_err(|e| format!("export failed: {e}"))
}

/// A republished and re-drained record carries the same stream.
pub fn same_stream(orig: &RunData, drained: &RunData) -> Check {
    let shape = |d: &RunData| {
        (d.meta.len(), d.transitions.len(), d.task_done.len(), d.comms.len(), d.logs.len())
    };
    if shape(orig) == shape(drained) && orig.task_done == drained.task_done {
        Ok(())
    } else {
        Err(format!("re-drained stream differs: {:?} vs {:?}", shape(orig), shape(drained)))
    }
}

/// The archive reconstructs every task and recovery repaired nothing.
pub fn archive_intact(a: &ArchivedRun, expected: usize) -> Check {
    tasks_complete(&a.data, expected)?;
    if a.was_repaired() {
        Err(format!("archive recovery repaired the store: {:?}", a.recovery))
    } else {
        Ok(())
    }
}

/// Two export bundles have the same fingerprint.
pub fn same_bundle(reference: &str, got: &str) -> Check {
    if reference == got {
        Ok(())
    } else {
        Err(format!("export fingerprint differs:\n{reference}---\n{got}"))
    }
}

/// The finalized live snapshot equals the post-hoc kernels over the
/// drained record.
pub fn live_equivalent(snap: &ViewSnapshot, drained: &RunData) -> Check {
    if !snap.finalized {
        return Err("live snapshot is not finalized".into());
    }
    let q = |q| query_rundata(drained, &q);
    let same = q(ViewQuery::Categories) == ViewResult::Categories(snap.categories.clone())
        && q(ViewQuery::Utilization { bins: BINS, threads_per_worker: THREADS_PER_WORKER })
            == ViewResult::Utilization(snap.utilization.clone())
        && q(ViewQuery::Phases) == ViewResult::Phases(snap.phases);
    if same {
        Ok(())
    } else {
        Err(format!("live snapshot v{} differs from the drained record", snap.version))
    }
}

/// FNV-1a 64-bit.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// `{name} {fnv64:016x} {len}` per exported file, sorted by name; the
/// shape of the repository's export golden. Also returns the bytes.
pub fn fingerprint(dir: &Path) -> std::io::Result<(String, u64)> {
    let mut names: Vec<String> = std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.file_name().to_string_lossy().into_owned()))
        .collect::<Result<_, _>>()?;
    names.sort();
    let mut out = String::new();
    let mut total = 0u64;
    for name in &names {
        let bytes = std::fs::read(dir.join(name))?;
        total += bytes.len() as u64;
        out.push_str(&format!("{name} {:016x} {}\n", fnv64(&bytes), bytes.len()));
    }
    Ok((out, total))
}

/// The non-Mofka half of `d`, as a persisted run archives it.
pub fn meta_of(d: &RunData) -> ArchiveMeta {
    ArchiveMeta {
        run: d.run,
        workflow: d.workflow.clone(),
        chart: d.chart.clone(),
        darshan: d.darshan.clone(),
        wall_time: d.wall_time,
        start_order: d.start_order.clone(),
        steals: d.steals,
    }
}

/// Drain `svc` post hoc under a fresh consumer group, fused with `meta`.
pub fn drain(svc: &MofkaService, meta: ArchiveMeta) -> dtf_core::Result<RunData> {
    let run = meta.run;
    let mut d = RunData::drain_from_mofka(
        svc,
        RunId(u32::MAX),
        meta.workflow,
        meta.chart,
        meta.darshan,
        meta.wall_time,
        meta.start_order,
        meta.steals,
    )?;
    d.run = run;
    Ok(d)
}

/// Darshan and platform counts of one run.
pub fn count_io(tr: &mut Tracer, d: &RunData) {
    tr.count("darshan.records", d.darshan.all_records().count() as f64);
    let truncated = d.darshan.logs.iter().filter(|l| l.header.dxt_truncated).count();
    tr.count("darshan.truncated_logs", truncated as f64);
    let log_bytes: usize = d.darshan.logs.iter().map(|l| l.to_bytes().len()).sum();
    tr.count("darshan.log_bytes", log_bytes as f64);
    tr.count("platform.io_ops", d.io_ops() as f64);
    tr.count("platform.comm_bytes", d.comms.iter().map(|c| c.nbytes as f64).sum());
}

/// Bytes of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

/// A small layered run with I/O, optionally persisted under `persist`.
fn small_run(persist: Option<&Path>) -> (RunData, usize) {
    let mut b = GraphBuilder::new(GraphId(0));
    let tok = b.new_token();
    let mut prev: Vec<TaskKey> = Vec::new();
    for layer in 0..3 {
        let mut cur = Vec::new();
        for i in 0..6u32 {
            let mut action =
                SimAction::compute_only(Dur::from_millis_f64(10.0 + (i * 3) as f64), 1 << 14);
            action.io.push(IoCall::read(FileId(0), i as u64 * 8192, 8192));
            let deps = if prev.is_empty() { vec![] } else { vec![prev[i as usize % 6].clone()] };
            cur.push(b.add_sim(&format!("layer{layer}"), tok, i, deps, action));
        }
        prev = cur;
    }
    let wf = SimWorkflow {
        name: "self-test".into(),
        graphs: vec![b.build(&HashSet::new()).expect("layered graph is valid")],
        submit: SubmitPolicy::AllAtOnce,
        startup: Dur::from_secs_f64(0.5),
        inter_graph: Dur::ZERO,
        shutdown: Dur::ZERO,
        dataset: vec![("/self-test.dat".into(), 1 << 20, 1)],
    };
    let tasks = wf.graphs.iter().map(|g| g.len()).sum();
    let cfg = SimConfig {
        campaign_seed: 5,
        persist_dir: persist.map(|p| p.to_string_lossy().into_owned()),
        ..Default::default()
    };
    let data = SimCluster::new(cfg).expect("self-test cluster").run(wf).expect("self-test run");
    (data, tasks)
}

/// `check` must pass on the intact input and fail on the corrupted one.
fn non_vacuous(name: &str, intact: Check, corrupted: Check) -> Check {
    intact.map_err(|e| format!("{name}: fails on intact input: {e}"))?;
    match corrupted {
        Err(_) => Ok(()),
        Ok(()) => Err(format!("{name}: passes on corrupted input (vacuous check)")),
    }
}

/// Run every check against an intact and a corrupted input. `work` is a
/// scratch directory inside the checkout.
pub fn self_test(work: &Path) -> Check {
    let io = |e: std::io::Error| format!("self-test I/O: {e}");
    let _ = std::fs::remove_dir_all(work);
    std::fs::create_dir_all(work).map_err(io)?;

    // distinct tasks: drop the last completed task
    let (data, tasks) = small_run(None);
    let mut short = data.clone();
    let last = short.task_done.pop().expect("run completed tasks").key;
    short.task_done.retain(|d| d.key != last);
    non_vacuous("tasks_complete", tasks_complete(&data, tasks), tasks_complete(&short, tasks))?;

    // republish + drain round trip: a drained copy missing one event
    let svc = BedrockConfig::wms_default().bootstrap().map_err(|e| e.to_string())?;
    republish(&data, &svc).map_err(|e| e.to_string())?;
    let drained = drain(&svc, meta_of(&data)).map_err(|e| e.to_string())?;
    let mut lossy = drained.clone();
    lossy.transitions.pop();
    non_vacuous("same_stream", same_stream(&data, &drained), same_stream(&data, &lossy))?;

    // export: a second export into a path below a regular file
    let (a, b) = (work.join("export-a"), work.join("export-b"));
    let blocked = a.join("tasks.csv").join("nested");
    non_vacuous(
        "exported",
        exported(export_run(&data, &a)),
        exported(export_run(&data, &blocked)),
    )?;

    // export fingerprint: flip one byte of one exported file
    export_run(&data, &b).map_err(|e| e.to_string())?;
    let (fa, _) = fingerprint(&a).map_err(io)?;
    let (fb, _) = fingerprint(&b).map_err(io)?;
    let victim = b.join("tasks.csv");
    let mut bytes = std::fs::read(&victim).map_err(io)?;
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&victim, bytes).map_err(io)?;
    let (fc, _) = fingerprint(&b).map_err(io)?;
    non_vacuous("same_bundle", same_bundle(&fa, &fb), same_bundle(&fa, &fc))?;

    // archive: append garbage to the metadata log's tail
    let store = work.join("store");
    let (_, tasks) = small_run(Some(&store));
    let intact = ArchivedRun::open(&store).map_err(|e| e.to_string())?;
    let yokan = store.join("yokan");
    let mut segs: Vec<_> = std::fs::read_dir(&yokan)
        .map_err(io)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "dtl"))
        .collect();
    segs.sort();
    let tail = segs.last().ok_or("self-test store has no metadata segment")?;
    let mut bytes = std::fs::read(tail).map_err(io)?;
    bytes.extend_from_slice(&[0xA5; 37]);
    std::fs::write(tail, bytes).map_err(io)?;
    let damaged = ArchivedRun::open(&store).map_err(|e| e.to_string())?;
    non_vacuous("archive_intact", archive_intact(&intact, tasks), archive_intact(&damaged, tasks))?;

    // live equivalence: perturb one category of the finalized snapshot
    let svc = BedrockConfig::wms_default().bootstrap().map_err(|e| e.to_string())?;
    republish(&data, &svc).map_err(|e| e.to_string())?;
    let cfg = LiveConfig {
        group: "self-test".into(),
        bins: BINS,
        threads_per_worker: THREADS_PER_WORKER,
    };
    let mut live = LiveViews::attach(&svc, cfg).map_err(|e| e.to_string())?;
    let snap = live
        .finalize(RunFinal { darshan: data.darshan.clone(), wall_time: data.wall_time })
        .map_err(|e| e.to_string())?;
    let drained = drain(&svc, meta_of(&data)).map_err(|e| e.to_string())?;
    let mut wrong = (*snap).clone();
    wrong.categories[0].tasks += 1;
    non_vacuous(
        "live_equivalent",
        live_equivalent(&snap, &drained),
        live_equivalent(&wrong, &drained),
    )?;

    std::fs::remove_dir_all(work).map_err(io)
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_check_fails_on_corrupted_input() {
        let work = std::env::temp_dir().join(format!("dtf-perfbench-{}", std::process::id()));
        super::self_test(&work).expect("non-vacuity self-test");
    }
}
