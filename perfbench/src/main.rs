//! dtf-perfbench: end-to-end and per-layer benchmark of one dtf paper run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-run|archive|live --seed N --seconds S --trace 0|1 \
//!     [--fresh-limit-ms MS]
//! ```
//!
//! `live` needs `--fresh-limit-ms`, the freshness limit a sustained rate
//! must meet; `BENCHMARK.json` fixes it in the benchmark's command.
//!
//! Each invocation builds its inputs from the seed (set up five times;
//! the median is `setup_s`), runs the workload's timed loop for the given
//! seconds, checks every iteration's outputs, and prints a report followed
//! by one JSON line: end-to-end metrics with `--trace 0`, per-layer
//! metrics with `--trace 1`. Layers are measured from outside only, by
//! spans around calls into each crate's public functions (see `trace`).
//! The timed end-to-end metrics are scaled to a nominal host speed by a
//! calibration kernel run between set-ups and between iterations (see
//! `calib`; `archive`'s timed loop is not scaled); the raw host times are
//! printed beside them.
//!
//! A traced run alternates untraced and traced units of work; per-layer
//! numbers come from the traced units and the tracing overhead is the
//! difference between the two kinds. Spans are written to
//! `.bench_work/trace-<workload>.jsonl` when the run ends.

mod archive;
mod calib;
mod checks;
mod live;
mod paper;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use checks::Check;
use stats::{median, Summary};
use trace::Tracer;

/// End-to-end metrics, printed with `--trace 0`: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("run_p50_s", "s"),
    ("run_tail_s", "s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Spans named after a layer call; each becomes the per-layer metric
/// `<span>_ms`, summed per iteration.
pub const LAYER_SPANS: [&str; 16] = [
    "workflows.generate",
    "wms.sim",
    "wms.sched_replay",
    "mofka.republish",
    "mofka.drain",
    "store.persist_sim",
    "store.reopen",
    "serde.run_meta_parse",
    "perfrecup.views",
    "perfrecup.export",
    "perfrecup.archive_open",
    "perfrecup.lineage",
    "perfrecup.task_io",
    "perfrecup.figures",
    "perfrecup.live_pump",
    "perfrecup.live_finalize",
];

/// Per-layer metrics, printed with `--trace 1`: `(name, unit)`. A layer a
/// workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("workflows.generate_ms", "ms"),
    ("workflows.tasks", "count"),
    ("wms.sim_ms", "ms"),
    ("wms.sched_replay_ms", "ms"),
    ("wms.tasks_started", "count"),
    ("wms.steals", "count"),
    ("wms.transitions", "count"),
    ("mofka.republish_ms", "ms"),
    ("mofka.drain_ms", "ms"),
    ("mofka.events", "count"),
    ("store.persist_sim_ms", "ms"),
    ("store.reopen_ms", "ms"),
    ("store.restored_events", "count"),
    ("store.disk_bytes", "bytes"),
    ("store.segments", "count"),
    ("store.repaired", "count"),
    ("serde.run_meta_parse_ms", "ms"),
    ("serde.run_meta_bytes", "bytes"),
    ("darshan.records", "count"),
    ("darshan.truncated_logs", "count"),
    ("darshan.log_bytes", "bytes"),
    ("platform.io_ops", "count"),
    ("platform.comm_bytes", "bytes"),
    ("perfrecup.views_ms", "ms"),
    ("perfrecup.export_ms", "ms"),
    ("perfrecup.export_bytes", "bytes"),
    ("perfrecup.archive_open_ms", "ms"),
    ("perfrecup.lineage_ms", "ms"),
    ("perfrecup.task_io_ms", "ms"),
    ("perfrecup.figures_ms", "ms"),
    ("perfrecup.live_pump_ms", "ms"),
    ("perfrecup.live_finalize_ms", "ms"),
    ("perfrecup.live_publish_p50_ms", "ms"),
    ("perfrecup.live_publish_p99_ms", "ms"),
    ("perfrecup.live_publishes", "count"),
    ("perfrecup.live_empty_poll_ratio", "ratio"),
    ("perfrecup.live_backlog_max", "count"),
    ("bench.leftover_ms", "ms"),
];

/// Settings of one invocation.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `live`: a rate is sustained only if its freshness p99 stays under
    /// this many ms (and its backlog does not grow). Required for `live`,
    /// so the limit is fixed where the benchmark's command is.
    pub fresh_limit_ms: Option<f64>,
}

fn parse_args() -> Result<Opts, String> {
    let mut o = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        fresh_limit_ms: None,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    for pair in args.chunks(2) {
        let [flag, value] = pair else { return Err(format!("{} needs a value", pair[0])) };
        let num = |v: &str| v.parse::<f64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => o.workload = value.clone(),
            "--seed" => o.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => o.seconds = num(value)?,
            "--trace" => o.trace = value == "1",
            "--fresh-limit-ms" => o.fresh_limit_ms = Some(num(value)?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !["paper-run", "archive", "live"].contains(&o.workload.as_str()) {
        return Err(format!("--workload must be paper-run, archive or live, not {:?}", o.workload));
    }
    if o.workload == "live" && o.fresh_limit_ms.is_none() {
        return Err("the live workload needs --fresh-limit-ms".into());
    }
    Ok(o)
}

/// Iterations attempted and failed, and why.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub checks: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Record one iteration's checks; the iteration fails if any does.
    pub fn iteration(&mut self, results: Vec<Check>) {
        self.attempted += 1;
        self.checks += results.len() as u64;
        let errs: Vec<String> = results.into_iter().filter_map(Result::err).collect();
        if !errs.is_empty() {
            self.failed += 1;
            self.failures.extend(errs);
        }
    }
}

/// Seconds of each calibration kernel run (see `calib`), taken between
/// set-ups and between timed iterations.
#[derive(Debug, Default)]
pub struct Calib {
    pub setup: Vec<f64>,
    pub run: Vec<f64>,
}

/// Shared state of a run.
pub struct Ctx {
    pub opts: Opts,
    pub work: PathBuf,
    pub tr: Tracer,
    pub tally: Tally,
    pub calib: Calib,
}

impl Ctx {
    /// Run `setup` on the seed `SETUPS` times, with calibration kernels
    /// after each; returns each set-up's seconds and the last result.
    pub fn timed_setup<T>(&mut self, setup: impl Fn(u64) -> T) -> (Vec<f64>, T) {
        let mut times = Vec::with_capacity(SETUPS);
        let mut last = None;
        for _ in 0..SETUPS {
            let t = Instant::now();
            last = Some(setup(self.opts.seed));
            times.push(t.elapsed().as_secs_f64());
            self.calib.setup.extend((0..SETUP_CALIBRATIONS).map(|_| calib::kernel()));
        }
        (times, last.expect("SETUPS > 0"))
    }

    /// Run the calibration kernel once between timed iterations.
    pub fn calibrate(&mut self) {
        self.calib.run.push(calib::kernel());
    }

    /// Whether another unit should start: always until `min_units` have
    /// run, then until the measuring time is spent.
    pub fn more(&self, started: Instant, units: usize) -> bool {
        let min_units = if self.opts.trace { 2 } else { 1 };
        units < min_units || started.elapsed().as_secs_f64() < self.opts.seconds
    }

    /// Trace mode alternates untraced (even) and traced (odd) units.
    pub fn begin_unit(&mut self, unit: usize) {
        self.tr.set_on(self.opts.trace && unit % 2 == 1);
    }
}

/// `run_p50_s` and `run_tail_s`, and how they were taken.
#[derive(Default)]
pub struct RunStat {
    pub p50: f64,
    pub tail: f64,
    pub note: String,
}

impl RunStat {
    /// Median and supported tail of `samples` (seconds).
    pub fn of(samples: &[f64], what: &str) -> Self {
        let s = Summary::of(samples);
        Self {
            p50: s.p50,
            tail: s.tail,
            note: format!("{what}: median and p{} of n={}", s.tail_p, s.n),
        }
    }
}

/// What a workload hands back for reporting.
#[derive(Default)]
pub struct Outcome {
    pub run: RunStat,
    /// `events_per_s` is `events` over `timed_s`, the summed walls of the
    /// timed iterations.
    pub events: u64,
    pub timed_s: f64,
    /// Per-layer values of each traced unit.
    pub layers: Vec<BTreeMap<String, f64>>,
    /// `(traced, wall_s)` per unit, probe spans excluded.
    pub unit_walls: Vec<(bool, f64)>,
    /// Workload-specific report lines (`name value unit` and notes).
    pub report: Vec<String>,
}

/// Set-ups per invocation; `setup_s` is the median of their times.
const SETUPS: usize = 5;
/// Calibration kernels after each set-up.
const SETUP_CALIBRATIONS: usize = 3;

/// Per-layer values of the iterations `iters`: layer span time summed per
/// iteration, counters, and the leftover no layer or probe span covers;
/// averaged over the iterations.
pub fn layer_values(tr: &Tracer, iters: &[u32]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let spans = tr.spans();
    let selfs = trace::self_times(spans);
    for (i, s) in spans.iter().enumerate() {
        if !iters.contains(&s.iter) {
            continue;
        }
        if LAYER_SPANS.contains(&s.name) {
            *out.entry(format!("{}_ms", s.name)).or_insert(0.0) += s.dur_ns() as f64 / 1e6;
        } else if s.name.starts_with("bench.") && s.name != "bench.probe" && s.lane == 0 {
            *out.entry("bench.leftover_ms".into()).or_insert(0.0) += selfs[i] as f64 / 1e6;
        }
    }
    for ((iter, name), v) in tr.counters() {
        if iters.contains(iter) {
            *out.entry(name.to_string()).or_insert(0.0) += v;
        }
    }
    let n = iters.len().max(1) as f64;
    out.values_mut().for_each(|v| *v /= n);
    out
}

/// Summed duration of spans named `name` within `iters`, seconds.
pub fn span_secs(tr: &Tracer, iters: &[u32], name: &str) -> f64 {
    tr.spans()
        .iter()
        .filter(|s| s.name == name && iters.contains(&s.iter))
        .map(|s| s.dur_ns() as f64 / 1e9)
        .sum()
}

/// Median calibration kernel seconds over the nominal: above 1 on a
/// host running slower than nominal; 1 (raw host times) when no kernel ran.
fn slowdown(kernel_s: &[f64]) -> f64 {
    if kernel_s.is_empty() {
        1.0
    } else {
        median(kernel_s) / calib::NOMINAL_S
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Host fingerprint: results compare only under an identical one.
fn fingerprint(seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1).map(|m| m.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["--version"]);
    // only a repository rooted here names this tree's commit
    let here = std::env::current_dir().ok().and_then(|d| d.canonicalize().ok());
    let top = PathBuf::from(command_line("git", &["rev-parse", "--show-toplevel"])).canonicalize();
    let commit = if top.ok() == here && here.is_some() {
        command_line("git", &["rev-parse", "--short=12", "HEAD"])
    } else {
        "unknown".into()
    };
    format!("nproc={nproc} cpu=\"{cpu}\" rustc=\"{rustc}\" commit={commit} seed={seed}")
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work = PathBuf::from(".bench_work").join(&opts.workload);
    if let Err(e) = checks::self_test(&work.join("self-test")) {
        eprintln!("perfbench: check self-test failed: {e}");
        std::process::exit(3);
    }
    let mut ctx = Ctx {
        opts: opts.clone(),
        work,
        tr: Tracer::new(false),
        tally: Tally::default(),
        calib: Calib::default(),
    };
    let (setup_times, outcome) = match opts.workload.as_str() {
        "paper-run" => paper::run(&mut ctx),
        "archive" => archive::run(&mut ctx),
        _ => live::run(&mut ctx),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);

    println!("host: {} (results compare only under the same fingerprint)", fingerprint(opts.seed));
    println!("workload: {} seconds={} trace={}", opts.workload, opts.seconds, opts.trace as u8);
    // host speed relative to the calibration kernel's nominal time
    let (setup_slowdown, run_slowdown) = (slowdown(&ctx.calib.setup), slowdown(&ctx.calib.run));
    println!(
        "calibration: kernel median {:.5} s over {} set-up runs, {:.5} s over {} timed-loop runs (nominal {} s); timed metrics are host times × nominal / median, raw where no kernel ran",
        setup_slowdown * calib::NOMINAL_S,
        ctx.calib.setup.len(),
        run_slowdown * calib::NOMINAL_S,
        ctx.calib.run.len(),
        calib::NOMINAL_S
    );
    let setup_host_s = median(&setup_times);
    let setup_s = setup_host_s / setup_slowdown;
    println!("setup_host_s {setup_host_s:.4} s (median of {} set-ups)", setup_times.len());
    let run = &outcome.run;
    for line in &outcome.report {
        println!("{line}");
    }
    let tally = &ctx.tally;
    let fail_ratio = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "fail_ratio {fail_ratio} ratio ({} of {} iterations failed; {} checks)",
        tally.failed, tally.attempted, tally.checks
    );
    for f in &tally.failures {
        println!("FAILED: {f}");
    }

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if opts.trace {
        let mut agg: BTreeMap<&str, f64> = BTreeMap::new();
        for (name, _) in PER_LAYER {
            let vals: Vec<f64> =
                outcome.layers.iter().map(|m| m.get(name).copied().unwrap_or(0.0)).collect();
            agg.insert(name, if vals.is_empty() { 0.0 } else { median(&vals) });
        }
        report_trace(&ctx.tr, &outcome, &agg);
        metrics.extend(PER_LAYER.iter().map(|(n, u)| (*n, agg[n], *u)));
        let path = PathBuf::from(".bench_work").join(format!("trace-{}.jsonl", opts.workload));
        let written = std::fs::create_dir_all(".bench_work")
            .and_then(|_| std::fs::write(&path, trace::to_json_lines(ctx.tr.spans())));
        match written {
            Ok(()) => println!("spans: {} written to {}", ctx.tr.spans().len(), path.display()),
            Err(e) => println!("spans: not written ({e})"),
        }
    } else {
        let events_per_s = outcome.events as f64 / outcome.timed_s;
        println!(
            "host times: run_p50_host_s {} s, run_tail_host_s {} s, events_per_host_s {events_per_s} 1/s",
            run.p50, run.tail
        );
        let values = [
            setup_s,
            run.p50 / run_slowdown,
            run.tail / run_slowdown,
            events_per_s * run_slowdown,
            peak_rss_mb(),
        ];
        for ((name, unit), v) in END_TO_END.iter().zip(values) {
            println!("{name} {v} {unit}");
            metrics.push((name, v, unit));
        }
        println!("run_p50_s / run_tail_s are the {}", run.note);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_num(*v)))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Self times by span name, the leftover, additivity and tracing overhead.
fn report_trace(tr: &Tracer, outcome: &Outcome, agg: &BTreeMap<&str, f64>) {
    let spans = tr.spans();
    let selfs = trace::self_times(spans);
    let mut by_name: BTreeMap<&str, (u64, usize)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let e = by_name.entry(s.name).or_default();
        e.0 += selfs[i];
        e.1 += 1;
    }
    let iters: std::collections::BTreeSet<u32> = spans.iter().map(|s| s.iter).collect();
    println!("self time by span over {} traced iterations:", iters.len());
    for (name, (ns, n)) in &by_name {
        println!("  {name:<28} {:>12.3} ms total  ({n} spans)", *ns as f64 / 1e6);
    }
    let worst = iters.iter().map(|&i| trace::additivity_error_ns(spans, i)).max().unwrap_or(0);
    println!(
        "additivity: self times + leftover = wall in every traced iteration (max error {worst} ns)"
    );
    println!("leftover {:.3} ms per iteration (bench.leftover_ms)", agg["bench.leftover_ms"]);
    let walls = |traced: bool| -> Vec<f64> {
        outcome.unit_walls.iter().filter(|(t, _)| *t == traced).map(|(_, w)| *w).collect()
    };
    let (on, off) = (walls(true), walls(false));
    if !on.is_empty() && !off.is_empty() {
        let (m_on, m_off) = (median(&on), median(&off));
        println!(
            "tracing overhead {:+.2}% (median unit wall {m_on:.4} s traced, n={}, vs {m_off:.4} s untraced, n={}; null-substitution probes excluded)",
            (m_on / m_off - 1.0) * 100.0,
            on.len(),
            off.len()
        );
    }
    assert_eq!(worst, 0, "span self times must add up to the iteration wall");
}
