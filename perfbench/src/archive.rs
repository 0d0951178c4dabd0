//! `archive`: the write-beside-read path. A closed loop; each iteration
//! simulates one full-size XGBoost run in memory and exports it as the
//! reference bundle, simulates it again persisted to a store directory,
//! reopens the store with `ArchivedRun::open`, runs lineage, the fused
//! task↔I/O join and the figure kernels over the archive, and exports from
//! it. The archive's bundle must equal the reference bundle.
//!
//! Traced iterations add a null-substitution probe after the reopen: the
//! store alone (`MofkaService::reopen`) and the `run-meta` parse alone
//! (`serde_json::from_slice::<ArchiveMeta>`), which split the reopen into
//! `store` and `serde` time. Probes are excluded from the tracing
//! overhead and from the iteration walls.
//!
//! The timed loop runs no calibration kernel, so its metrics are raw host
//! times (`setup_s` is still scaled). An iteration lasts 10–18 s, most of
//! it one parse call, and kernels run only between iterations sample the
//! host at a few moments of a run: scaling by them widened the spread
//! across seeds (0.14–0.24 against 0.08–0.13 raw) instead of narrowing it.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use dtf_mofka::MofkaService;
use dtf_perfrecup::archive::ArchivedRun;
use dtf_perfrecup::export::export_run;
use dtf_perfrecup::{comm_scatter, io_timeline, lineage, parallel_coords, warnings_dist};
use dtf_wms::graph::TaskGraph;
use dtf_wms::rundata::{ArchiveMeta, ARCHIVE_META_KEY};
use dtf_wms::sim::SimCluster;
use dtf_workflows::Workload;

use crate::checks::{self, Check};
use crate::paper::Input;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{layer_values, span_secs, Ctx, Outcome, RunStat};

/// XGBoost: the cheapest generator to archive, at full size.
const GENERATOR: Workload = Workload::Xgboost;

fn setup(seed: u64) -> Input {
    let input = Input::new(GENERATOR, seed);
    black_box(input.simulate());
    input
}

pub fn run(ctx: &mut Ctx) -> (Vec<f64>, Outcome) {
    let (setup_times, input) = ctx.timed_setup(setup);

    let mut walls = Vec::new();
    let mut out = Outcome::default();
    let mut reopen = Vec::new();
    let started = Instant::now();
    let mut unit = 0;
    while ctx.more(started, unit) {
        ctx.begin_unit(unit);
        let traced = ctx.tr.is_on();
        ctx.tr.iter += 1;
        let iter = ctx.tr.iter;
        let _ = std::fs::remove_dir_all(&ctx.work);
        let t = Instant::now();
        let (events, open_s, results) =
            ctx.tr.span("bench.iteration", |tr| iteration(tr, &input, &ctx.work));
        let wall = t.elapsed().as_secs_f64() - span_secs(&ctx.tr, &[iter], "bench.probe");
        walls.push(wall);
        out.events += events;
        reopen.push(open_s);
        ctx.tally.iteration(results);
        if traced {
            out.layers.push(layer_values(&ctx.tr, &[iter]));
        }
        out.unit_walls.push((traced, wall));
        unit += 1;
    }
    out.timed_s = walls.iter().sum();
    out.run = RunStat::of(&walls, "iteration seconds");
    let _ = std::fs::remove_dir_all(&ctx.work);
    out.report.push(format!(
        "reopen_p50_s {} s (ArchivedRun::open, n={}; the iteration wall is run_p50_s)",
        median(&reopen),
        reopen.len()
    ));
    (setup_times, out)
}

/// One archive round. Returns the archived events, the reopen seconds and
/// the checks' results.
fn iteration(tr: &mut Tracer, input: &Input, work: &Path) -> (u64, f64, Vec<Check>) {
    let (ref_dir, arch_dir, store) =
        (work.join("reference"), work.join("from-archive"), work.join("store"));
    let wf = tr.span("workflows.generate", |_| input.workload.generate(&input.rr));
    let tasks: usize = wf.graphs.iter().map(TaskGraph::len).sum();
    tr.count("workflows.tasks", tasks as f64);
    let wf_persisted = wf.clone();
    let mut results = Vec::new();

    // reference: the in-memory run and its export bundle
    let data = tr
        .span("wms.sim", |_| SimCluster::new(input.cfg.clone()).and_then(|c| c.run(wf)))
        .expect("in-memory simulation");
    results.push(checks::tasks_complete(&data, tasks));
    let exported = tr.span("perfrecup.export", |_| export_run(&data, &ref_dir));
    let reference = exported
        .map_err(|e| e.to_string())
        .and_then(|_| checks::fingerprint(&ref_dir).map(|(fp, _)| fp).map_err(|e| e.to_string()));
    drop(data);

    // the same run, persisted
    let mut cfg = input.cfg.clone();
    cfg.persist_dir = Some(store.to_string_lossy().into_owned());
    let persisted =
        tr.span("store.persist_sim", |_| SimCluster::new(cfg).and_then(|c| c.run(wf_persisted)));
    drop(persisted.expect("persisted simulation"));

    let t = Instant::now();
    let archived = tr.span("perfrecup.archive_open", |_| ArchivedRun::open(&store));
    let open_s = t.elapsed().as_secs_f64();
    let archived = match archived {
        Ok(a) => a,
        Err(e) => {
            results.push(Err(format!("archive reopen failed: {e}")));
            return (0, open_s, results);
        }
    };
    if tr.is_on() {
        tr.span("bench.probe", |tr| probe(tr, &store));
    }
    results.push(checks::archive_intact(&archived, tasks));

    drop(tr.span("perfrecup.lineage", |_| lineage::build_all(&archived.data)));
    let views = archived.views();
    tr.span("perfrecup.task_io", |_| black_box(views.task_io()));
    tr.span("perfrecup.figures", |_| {
        let d = &archived.data;
        black_box(io_timeline::segments(d));
        black_box(io_timeline::signature(d, 2.0));
        black_box(comm_scatter::points(d));
        black_box(comm_scatter::summary(d, 30.0));
        black_box(parallel_coords::summary(d));
        black_box(warnings_dist::report(d, 12, 500.0, 60.0));
    });
    let exported = tr.span("perfrecup.export", |_| export_run(&archived.data, &arch_dir));
    let from_archive = exported
        .map_err(|e| e.to_string())
        .and_then(|_| checks::fingerprint(&arch_dir).map_err(|e| e.to_string()));
    results.push(match (&reference, &from_archive) {
        (Ok(r), Ok((a, _))) => checks::same_bundle(r, a),
        (Err(e), _) | (_, Err(e)) => Err(format!("export bundle: {e}")),
    });

    let events = checks::events(&archived.data);
    if tr.is_on() {
        tr.count("wms.steals", archived.data.steals as f64);
        tr.count("wms.transitions", archived.data.transitions.len() as f64);
        tr.count("mofka.events", events as f64);
        checks::count_io(tr, &archived.data);
        let bytes = from_archive.as_ref().map_or(0, |(_, b)| *b);
        tr.count("perfrecup.export_bytes", bytes as f64);
    }
    (events, open_s, results)
}

/// Reopen the store alone, then parse its `run-meta` record alone.
fn probe(tr: &mut Tracer, store: &Path) {
    let Ok((svc, rec)) = tr.span("store.reopen", |_| MofkaService::reopen(store)) else {
        return;
    };
    tr.count("store.restored_events", rec.restored_events as f64);
    tr.count("store.segments", (rec.yokan.segments + rec.warabi.segments) as f64);
    let repaired = rec.yokan.torn
        || rec.warabi.torn
        || rec.yokan.dropped_segments + rec.warabi.dropped_segments > 0;
    tr.count("store.repaired", f64::from(u8::from(repaired)));
    tr.count("store.disk_bytes", checks::dir_bytes(store) as f64);
    if let Some(raw) = svc.yokan().get(ARCHIVE_META_KEY) {
        tr.count("serde.run_meta_bytes", raw.len() as f64);
        let parsed =
            tr.span("serde.run_meta_parse", |_| serde_json::from_slice::<ArchiveMeta>(&raw));
        black_box(parsed.ok());
    }
}
