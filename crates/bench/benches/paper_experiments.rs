//! Criterion benches regenerating each paper table/figure.
//!
//! One group per experiment. The generation benches (`table1_*`) measure a
//! full single run of each workload — simulation, Mofka streaming, Darshan
//! collection, and fusion. The analysis benches (`fig*`) measure the
//! analysis kernels over a precomputed run, i.e. the PERFRECUP side.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use dtf_core::ids::RunId;
use dtf_core::rngx::RunRng;
use dtf_perfrecup::lineage::Lineages;
use dtf_perfrecup::phases::{PhaseBreakdown, PhaseSample};
use dtf_perfrecup::{comm_scatter, io_timeline, parallel_coords, warnings_dist, RunViews};
use dtf_wms::sim::{SimCluster, SimConfig};
use dtf_wms::RunData;
use dtf_workflows::Workload;

fn run_once(workload: Workload, seed: u64) -> RunData {
    let rr = RunRng::new(seed, RunId(0));
    let workflow = workload.generate(&rr);
    let mut cfg = SimConfig { campaign_seed: seed, run: RunId(0), ..Default::default() };
    workload.adjust(&mut cfg);
    SimCluster::new(cfg).expect("cluster").run(workflow).expect("run")
}

/// Table I: one full characterization run per workload.
fn bench_table1(c: &mut Criterion) {
    let mut g = c.benchmark_group("table1_run_generation");
    g.sample_size(10);
    for w in Workload::ALL {
        g.bench_function(w.name(), |b| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                black_box(run_once(w, seed))
            })
        });
    }
    g.finish();
}

/// Fig. 3: phase aggregation across run summaries.
fn bench_fig3(c: &mut Criterion) {
    let samples: Vec<PhaseSample> = (0..50)
        .map(|i| PhaseSample {
            wall_s: 1000.0 + i as f64,
            io_s: 5.0 + (i % 7) as f64,
            comm_s: 60.0,
            compute_s: 40_000.0,
        })
        .collect();
    c.bench_function("fig3_phase_breakdown", |b| {
        b.iter(|| black_box(PhaseBreakdown::from_samples(black_box(&samples), 64.0)))
    });
}

/// Fig. 4: per-thread I/O segments + burst-phase detection.
fn bench_fig4(c: &mut Criterion) {
    let data = run_once(Workload::ImageProcessing, 42);
    let mut g = c.benchmark_group("fig4_io_timeline");
    g.sample_size(20);
    g.bench_function("segments", |b| b.iter(|| black_box(io_timeline::segments(&data))));
    g.bench_function("phase_detection", |b| {
        b.iter(|| black_box(io_timeline::detect_phases(&data, 2.0)))
    });
    g.finish();
}

/// Fig. 5: communication scatter summary.
fn bench_fig5(c: &mut Criterion) {
    let data = run_once(Workload::ResNet152, 42);
    c.bench_function("fig5_comm_scatter", |b| {
        b.iter(|| black_box(comm_scatter::summary(&data, 30.0)))
    });
}

/// Fig. 6: parallel-coordinates summary over 10k tasks.
fn bench_fig6(c: &mut Criterion) {
    let data = run_once(Workload::Xgboost, 42);
    let mut g = c.benchmark_group("fig6_parallel_coords");
    g.sample_size(20);
    g.bench_function("summary", |b| b.iter(|| black_box(parallel_coords::summary(&data))));
    g.finish();
}

/// Fig. 7: warning distribution + long-task correlation.
fn bench_fig7(c: &mut Criterion) {
    let data = run_once(Workload::Xgboost, 42);
    c.bench_function("fig7_warning_report", |b| {
        b.iter(|| black_box(warnings_dist::report(&data, 12, 500.0, 60.0)))
    });
}

/// Fig. 8: lineage construction — the one-pass index, a single-key
/// lookup against it, and the fused I/O join.
fn bench_fig8(c: &mut Criterion) {
    let data = run_once(Workload::Xgboost, 42);
    let key = data
        .meta
        .iter()
        .find(|m| m.key.prefix == "getitem__get_categories")
        .map(|m| m.key.clone())
        .expect("key exists");
    let mut g = c.benchmark_group("fig8_lineage");
    g.sample_size(20);
    g.bench_function("index_build", |b| b.iter(|| black_box(Lineages::new(&data))));
    let lineages = Lineages::new(&data);
    g.bench_function("lookup", |b| b.iter(|| black_box(lineages.get(&key).unwrap())));
    g.bench_function("task_io_join", |b| {
        let views = RunViews::new(&data);
        b.iter(|| black_box(views.task_io()))
    });
    g.finish();
}

criterion_group!(
    experiments,
    bench_table1,
    bench_fig3,
    bench_fig4,
    bench_fig5,
    bench_fig6,
    bench_fig7,
    bench_fig8
);
criterion_main!(experiments);
