//! `paper-run`: the north-star unit. A closed loop with one run in flight,
//! round-robin over ImageProcessing, ResNet152 and XGBoost; each iteration
//! runs generate → simulate in memory → views → export. `run_p50_s` and
//! `run_tail_s` are taken over every iteration's wall.
//!
//! Traced iterations add two null substitutions that time single layers,
//! inside a `bench.probe` span that is subtracted from the iteration's
//! wall: the generated graphs driven through a bare scheduler, and the
//! simulated run republished into a fresh Mofka service and drained again.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use dtf_core::ids::{NodeId, RunId, ThreadId, WorkerId};
use dtf_core::rngx::RunRng;
use dtf_core::time::Time;
use dtf_mofka::bedrock::BedrockConfig;
use dtf_perfrecup::category::per_category;
use dtf_perfrecup::export::export_run;
use dtf_perfrecup::live::{phase_sample, republish};
use dtf_perfrecup::utilization::per_worker;
use dtf_wms::graph::TaskGraph;
use dtf_wms::plugins::PluginSet;
use dtf_wms::scheduler::{Action, Scheduler};
use dtf_wms::sim::{SimCluster, SimConfig, SubmitPolicy};
use dtf_wms::RunData;
use dtf_workflows::Workload;

use crate::checks::{self, Check, BINS, THREADS_PER_WORKER};
use crate::trace::Tracer;
use crate::{layer_values, span_secs, Ctx, Outcome, RunStat};

/// One generator's run: its simulator configuration and RNG streams.
pub struct Input {
    pub workload: Workload,
    pub cfg: SimConfig,
    pub rr: RunRng,
}

impl Input {
    pub fn new(workload: Workload, seed: u64) -> Self {
        let mut cfg = SimConfig { campaign_seed: seed, run: RunId(0), ..Default::default() };
        workload.adjust(&mut cfg);
        Self { workload, cfg, rr: RunRng::new(seed, RunId(0)) }
    }

    /// Simulate this input in memory.
    pub fn simulate(&self) -> RunData {
        let wf = self.workload.generate(&self.rr);
        SimCluster::new(self.cfg.clone())
            .and_then(|c| c.run(wf))
            .unwrap_or_else(|e| panic!("{} simulation failed: {e}", self.workload.name()))
    }
}

/// Build the three inputs and warm up with one in-memory run of each.
fn setup(seed: u64) -> Vec<Input> {
    let inputs: Vec<Input> = Workload::ALL.iter().map(|w| Input::new(*w, seed)).collect();
    for input in &inputs {
        black_box(input.simulate());
    }
    inputs
}

pub fn run(ctx: &mut Ctx) -> (Vec<f64>, Outcome) {
    let (setup_times, inputs) = ctx.timed_setup(setup);
    let export_dir = ctx.work.join("export");

    let mut out = Outcome::default();
    let mut walls = Vec::new();
    let started = Instant::now();
    let mut round = 0;
    while ctx.more(started, round) {
        ctx.begin_unit(round);
        let traced = ctx.tr.is_on();
        let mut iters = Vec::new();
        let mut round_wall = 0.0;
        for input in &inputs {
            ctx.tr.iter += 1;
            let iter = ctx.tr.iter;
            iters.push(iter);
            let t = Instant::now();
            let (data, results) =
                ctx.tr.span("bench.iteration", |tr| iteration(tr, input, &export_dir));
            let wall = t.elapsed().as_secs_f64() - span_secs(&ctx.tr, &[iter], "bench.probe");
            walls.push(wall);
            round_wall += wall;
            out.events += checks::events(&data);
            ctx.tally.iteration(results);
            if traced {
                count_layers(ctx, &data, &export_dir);
            }
            let _ = std::fs::remove_dir_all(&export_dir);
            ctx.calibrate();
        }
        out.unit_walls.push((traced, round_wall / inputs.len() as f64));
        if traced {
            out.layers.push(layer_values(&ctx.tr, &iters));
        }
        round += 1;
    }
    out.timed_s = walls.iter().sum();
    out.run = RunStat::of(&walls, "iteration seconds, three generators round-robin");
    (setup_times, out)
}

/// One paper run. Returns the drained record and the checks' results.
fn iteration(tr: &mut Tracer, input: &Input, export_dir: &Path) -> (RunData, Vec<Check>) {
    let wf = tr.span("workflows.generate", |_| input.workload.generate(&input.rr));
    let tasks: usize = wf.graphs.iter().map(TaskGraph::len).sum();
    tr.count("workflows.tasks", tasks as f64);
    let data = tr
        .span("wms.sim", |_| SimCluster::new(input.cfg.clone()).and_then(|c| c.run(wf)))
        .unwrap_or_else(|e| panic!("{} simulation failed: {e}", input.workload.name()));
    tr.span("perfrecup.views", |_| {
        black_box(per_category(&data));
        black_box(per_worker(&data, BINS, THREADS_PER_WORKER));
        black_box(phase_sample(&data));
    });
    let exported = tr.span("perfrecup.export", |_| export_run(&data, export_dir));
    let mut results = vec![checks::tasks_complete(&data, tasks), checks::exported(exported)];
    if tr.is_on() {
        results.push(tr.span("bench.probe", |tr| probe(tr, input, &data)));
    }
    (data, results)
}

/// The null substitutions of a traced iteration. The scheduler replay's
/// start count is reported as `wms.tasks_started`; the re-drained stream
/// must equal the simulated one.
fn probe(tr: &mut Tracer, input: &Input, data: &RunData) -> Check {
    let wf = input.workload.generate(&input.rr);
    let started = tr.span("wms.sched_replay", |_| sched_replay(wf.graphs, wf.submit, &input.cfg));
    tr.count("wms.tasks_started", started as f64);
    let svc = tr.span("mofka.republish", |_| {
        let svc = BedrockConfig::wms_default().bootstrap()?;
        republish(data, &svc)?;
        Ok::<_, dtf_core::DtfError>(svc)
    });
    let meta = checks::meta_of(data);
    let drained = svc.and_then(|svc| tr.span("mofka.drain", |_| checks::drain(&svc, meta)));
    drained.map_err(|e| e.to_string()).and_then(|d| checks::same_stream(data, &d))
}

/// Exact counts of one traced iteration, taken after its wall is timed.
fn count_layers(ctx: &mut Ctx, data: &RunData, export_dir: &Path) {
    let tr = &mut ctx.tr;
    tr.count("wms.steals", data.steals as f64);
    tr.count("wms.transitions", data.transitions.len() as f64);
    tr.count("mofka.events", checks::events(data) as f64);
    checks::count_io(tr, data);
    let bytes = checks::dir_bytes(export_dir);
    tr.count("perfrecup.export_bytes", bytes as f64);
}

/// Null substitution for the simulator: drive the generated graphs
/// through a bare scheduler (no plugins, zero-cost tasks and transfers) on
/// the simulated cluster's worker layout, submitting graphs as the
/// workflow's policy does. Returns the number of tasks started.
fn sched_replay(graphs: Vec<TaskGraph>, submit: SubmitPolicy, cfg: &SimConfig) -> u64 {
    let mut s = Scheduler::new(cfg.scheduler.clone(), PluginSet::new());
    for node in 1..=cfg.worker_nodes {
        for slot in 0..cfg.wms.workers_per_node {
            s.add_worker(WorkerId::new(NodeId(node), slot), cfg.wms.threads_per_worker);
        }
    }
    let mut pending = graphs.into_iter();
    let mut actions = Vec::new();
    let mut t = 0u64;
    let mut submit_next = |s: &mut Scheduler, actions: &mut Vec<Action>, t: u64| -> bool {
        match pending.next() {
            Some(g) => {
                actions.extend(s.submit_graph(g, Time(t)).expect("generated graph is valid"));
                true
            }
            None => false,
        }
    };
    submit_next(&mut s, &mut actions, t);
    if submit == SubmitPolicy::AllAtOnce {
        while submit_next(&mut s, &mut actions, t) {}
    }
    loop {
        let mut progressed = false;
        while let Some(Action::Fetch { dep, to, .. }) = actions.pop() {
            progressed = true;
            s.fetch_done(&dep, to, Time(t));
        }
        for w in s.worker_ids() {
            while let Some(key) = s.try_start(w, Time(t)) {
                progressed = true;
                t += 1;
                actions.extend(s.task_finished(&key, w, ThreadId(1), Time(t - 1), Time(t), 64));
            }
        }
        actions.extend(s.rebalance(Time(t)));
        if !progressed && actions.is_empty() {
            if s.unfinished() == 0 && submit_next(&mut s, &mut actions, t) {
                continue;
            }
            break;
        }
    }
    s.start_order().len() as u64
}
