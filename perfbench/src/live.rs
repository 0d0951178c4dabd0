//! `live`: the only workload with latency under a rate. An open loop: a
//! generator thread replays drained paper-run streams (one per generator,
//! simulated during set-up) into a fresh virtual-time Mofka service at a
//! fixed event rate, flushing after every batch it sends, while a
//! `LiveViews` thread pumps Δ-batches and publishes a snapshot after each
//! non-empty pump (polling every `IDLE_POLL` when idle). No scheduler,
//! store or export runs.
//!
//! Event `j` of a stream is due `j / rate` seconds after the stream
//! starts. Its freshness is the time from when it was due to the first
//! published snapshot whose ingest count for its topic covers it;
//! freshness, backlog and generator lateness are reported for every rate.
//! Each stream ends with `finalize` and the equivalence check against a
//! post-hoc drain of the same service.
//!
//! A unit is one pass over every rate and stream, with the saturating
//! rate run `SATURATED_PASSES` times. An iteration is one stream at the
//! saturating rate, which runs as fast as the pipeline goes: its time is
//! from the stream's first event to its finalized snapshot, and
//! `run_p50_s`, `run_tail_s` and `events_per_s` are taken over those
//! streams, so they measure the pipeline's capacity. Freshness is reported
//! per rate, not gated: on a shared two-core host the tail of
//! sub-millisecond freshness moves between runs by more than any gate
//! could bound.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use dtf_core::time::Time;
use dtf_mofka::bedrock::BedrockConfig;
use dtf_mofka::ProducerConfig;
use dtf_perfrecup::live::{LiveConfig, LiveProgress, LiveViews, RunFinal};
use dtf_wms::graph::TaskGraph;
use dtf_wms::plugins::{MofkaPlugin, WmsPlugin};
use dtf_wms::RunData;
use dtf_workflows::Workload;

use crate::checks::{self, Check, BINS, THREADS_PER_WORKER};
use crate::paper::Input;
use crate::stats;
use crate::trace::Tracer;
use crate::{layer_values, Ctx, Outcome, RunStat};

/// Offered rates, events/s. A 2-core host keeps up with about 1M/s, so
/// 600k and 2M bracket its capacity instead of sitting on it.
const RATES: [f64; 4] = [100_000.0, 300_000.0, 600_000.0, 2_000_000.0];
/// The rate whose freshness and per-layer numbers are reported.
const REFERENCE_RATE: f64 = 300_000.0;
/// A rate above capacity: streams offered at it run as fast as the
/// pipeline goes, and they are the timed iterations.
const SATURATION_RATE: f64 = 2_000_000.0;
/// Passes over the streams at `SATURATION_RATE` per unit, so that a run
/// has enough iterations for a tail percentile.
const SATURATED_PASSES: usize = 3;
/// Sleep between polls that found nothing.
const IDLE_POLL: Duration = Duration::from_micros(200);
/// Events per topic per pump.
const PUMP_MAX: usize = 4096;
/// A stream whose engine ingests nothing for this long is abandoned (and
/// its equivalence check fails).
const STALL: Duration = Duration::from_secs(10);
/// A backlog grows when it rises by more than this share of the offered
/// rate: the system then keeps up with less than 95% of it.
const GROWTH: f64 = 0.05;
/// Topics in replay order; the index is the `LiveProgress` field order.
const TOPICS: usize = 7;

/// One drained run and the order its events are replayed in:
/// `(topic, index)` sorted by event time, each topic in drain order.
struct Stream {
    data: RunData,
    order: Vec<(u8, u32)>,
    /// Tasks the generator produced.
    tasks: usize,
}

fn replay_order(d: &RunData) -> Vec<(u8, u32)> {
    let mut v: Vec<(Time, u8, u32)> = Vec::with_capacity(checks::events(d) as usize);
    let mut add = |topic: u8, times: &mut dyn Iterator<Item = Time>| {
        v.extend(times.enumerate().map(|(i, t)| (t, topic, i as u32)));
    };
    add(0, &mut d.meta.iter().map(|e| e.submitted));
    add(1, &mut d.transitions.iter().map(|e| e.time));
    add(2, &mut d.worker_transitions.iter().map(|e| e.time));
    add(3, &mut d.task_done.iter().map(|e| e.stop));
    add(4, &mut d.comms.iter().map(|e| e.start));
    add(5, &mut d.warnings.iter().map(|e| e.time));
    add(6, &mut d.logs.iter().map(|e| e.time));
    v.sort_unstable();
    v.into_iter().map(|(_, topic, i)| (topic, i)).collect()
}

fn push(plugin: &mut MofkaPlugin, d: &RunData, topic: u8, i: u32) {
    let i = i as usize;
    match topic {
        0 => plugin.on_task_meta(&d.meta[i]),
        1 => plugin.on_transition(&d.transitions[i]),
        2 => plugin.on_worker_transition(&d.worker_transitions[i]),
        3 => plugin.on_task_done(&d.task_done[i]),
        4 => plugin.on_comm(&d.comms[i]),
        5 => plugin.on_warning(&d.warnings[i]),
        _ => plugin.on_log(&d.logs[i]),
    }
}

fn counts(p: &LiveProgress) -> [u64; TOPICS] {
    [p.meta, p.transitions, p.worker_transitions, p.task_done, p.comms, p.warnings, p.logs]
}

/// Simulate the three paper runs and build their replay orders.
fn setup(seed: u64) -> Vec<Stream> {
    Workload::ALL
        .iter()
        .map(|w| {
            let input = Input::new(*w, seed);
            let tasks = input.workload.generate(&input.rr).graphs.iter().map(TaskGraph::len).sum();
            let data = input.simulate();
            Stream { order: replay_order(&data), data, tasks }
        })
        .collect()
}

struct Generated {
    /// Due time of each pushed event, per topic, in push order (s).
    due: [Vec<f64>; TOPICS],
    /// Flush completion minus due time, per event (s).
    late: Vec<f64>,
    offered_s: f64,
}

/// The open-loop generator: sends every event that is due, flushes, and
/// sleeps until the next one is due.
fn generate(
    tr: &mut Tracer,
    mut plugin: MofkaPlugin,
    s: &Stream,
    rate: f64,
    t0: Instant,
    flushed: &AtomicU64,
) -> Generated {
    let n = s.order.len();
    let mut due: [Vec<f64>; TOPICS] = Default::default();
    let mut late = Vec::with_capacity(n);
    let mut i = 0;
    while i < n {
        let now = t0.elapsed().as_secs_f64();
        let next = i as f64 / rate;
        if next > now {
            std::thread::sleep(Duration::from_secs_f64(next - now));
            continue;
        }
        let hi = ((now * rate) as usize + 1).clamp(i + 1, n);
        tr.span("mofka.republish", |_| {
            for (j, &(topic, idx)) in s.order.iter().enumerate().take(hi).skip(i) {
                push(&mut plugin, &s.data, topic, idx);
                due[topic as usize].push(j as f64 / rate);
            }
            plugin.flush();
        });
        let at = t0.elapsed().as_secs_f64();
        late.extend((i..hi).map(|j| at - j as f64 / rate));
        flushed.store(hi as u64, Ordering::Release);
        i = hi;
    }
    Generated { due, late, offered_s: t0.elapsed().as_secs_f64() }
}

struct Consumed {
    /// Publish completion time and ingest counts per topic.
    publishes: Vec<(f64, [u64; TOPICS])>,
    polls: u64,
    empty_polls: u64,
    /// `(time, flushed − ingested)` after every poll.
    backlog: Vec<(f64, f64)>,
}

/// The live engine: pump, publish after every non-empty pump, until the
/// whole stream is ingested.
fn consume(
    tr: &mut Tracer,
    live: &mut LiveViews,
    total: u64,
    t0: Instant,
    flushed: &AtomicU64,
) -> Consumed {
    let mut c = Consumed { publishes: Vec::new(), polls: 0, empty_polls: 0, backlog: Vec::new() };
    let mut last_ingest = Instant::now();
    loop {
        let n = tr.span("perfrecup.live_pump", |_| live.pump(PUMP_MAX)).expect("live pump");
        c.polls += 1;
        if n > 0 {
            last_ingest = Instant::now();
            let snap = tr.span("perfrecup.live_publish", |_| live.publish());
            c.publishes.push((t0.elapsed().as_secs_f64(), counts(&snap.progress)));
        } else {
            c.empty_polls += 1;
        }
        let ingested = live.progress().total();
        let visible = flushed.load(Ordering::Acquire);
        c.backlog.push((t0.elapsed().as_secs_f64(), visible.saturating_sub(ingested) as f64));
        if ingested >= total || last_ingest.elapsed() > STALL {
            return c;
        }
        if n == 0 {
            std::thread::sleep(IDLE_POLL);
        }
    }
}

/// Freshness and generator lateness of one stream, seconds.
#[derive(Clone, Copy)]
struct StreamStat {
    fresh_p50: f64,
    fresh_p99: f64,
    late_p99: f64,
    /// From the first event until the finalized snapshot.
    to_final: f64,
}

/// One stream at one rate.
struct StreamRun {
    stat: StreamStat,
    /// Engine backlog: flushed but not yet ingested, at any poll.
    backlog_max: f64,
    /// Due but not yet published, at any publish of the offered period.
    due_backlog_max: f64,
    /// Growth of the due backlog over the offered period, events/s.
    backlog_slope: f64,
    events: u64,
    polls: u64,
    empty_polls: u64,
    publishes: u64,
    results: Vec<Check>,
}

fn stream(tr: &mut Tracer, s: &Stream, rate: f64) -> StreamRun {
    let svc = BedrockConfig::wms_default().bootstrap().expect("live service");
    let cfg = LiveConfig {
        group: "perfbench-live".into(),
        bins: BINS,
        threads_per_worker: THREADS_PER_WORKER,
    };
    let mut live = LiveViews::attach(&svc, cfg).expect("live engine attaches");
    let plugin = MofkaPlugin::new(&svc, ProducerConfig::default()).expect("replay producers");
    let total = s.order.len() as u64;
    let flushed = AtomicU64::new(0);

    let start = Instant::now();
    let (gen, con) = tr.span("bench.replay", |tr| {
        let (mut gtr, mut etr) = (tr.fork(1), tr.fork(2));
        let t0 = Instant::now();
        let (flushed, live) = (&flushed, &mut live);
        let (gen, con) = std::thread::scope(|sc| {
            let g = sc.spawn(move || {
                let r = generate(&mut gtr, plugin, s, rate, t0, flushed);
                (r, gtr)
            });
            let e = sc.spawn(move || {
                let r = consume(&mut etr, live, total, t0, flushed);
                (r, etr)
            });
            let g = g.join().expect("generator thread");
            let e = e.join().expect("live engine thread");
            tr.absorb(g.1);
            tr.absorb(e.1);
            (g.0, e.0)
        });
        (gen, con)
    });

    let fin = RunFinal { darshan: s.data.darshan.clone(), wall_time: s.data.wall_time };
    let snap = tr.span("perfrecup.live_finalize", |_| live.finalize(fin)).expect("finalize");
    let to_final = start.elapsed().as_secs_f64();
    let meta = checks::meta_of(&s.data);
    let drained = tr.span("mofka.drain", |_| checks::drain(&svc, meta));
    let results = vec![drained.map_err(|e| e.to_string()).and_then(|d| {
        checks::tasks_complete(&d, s.tasks)?;
        checks::live_equivalent(&snap, &d)
    })];

    // freshness: each event is covered by the first publish whose count
    // for its topic reaches it; anything left is covered by finalize
    let mut fresh = Vec::with_capacity(total as usize);
    let mut covered = [0usize; TOPICS];
    let t_final = gen.offered_s.max(con.publishes.last().map_or(0.0, |p| p.0));
    let all = [(t_final, [u64::MAX; TOPICS])];
    for (t, c) in con.publishes.iter().chain(all.iter()) {
        for (k, due) in gen.due.iter().enumerate() {
            let upto = (c[k] as usize).min(due.len());
            fresh.extend(due[covered[k].min(upto)..upto].iter().map(|d| t - d));
            covered[k] = covered[k].max(upto);
        }
    }
    // backlog as a user sees it: events due but not yet in a published
    // snapshot, at each publish of the offered period
    let (xs, ys): (Vec<f64>, Vec<f64>) = con
        .publishes
        .iter()
        .filter(|(t, _)| *t <= gen.offered_s)
        .map(|(t, c)| {
            let due = ((t * rate) as u64 + 1).min(total);
            (*t, due.saturating_sub(c.iter().sum::<u64>()) as f64)
        })
        .unzip();
    let fresh = stats::sorted(fresh);
    let stat = StreamStat {
        fresh_p50: stats::median(&fresh),
        fresh_p99: stats::percentile(&fresh, 99.0),
        late_p99: stats::percentile(&stats::sorted(gen.late), 99.0),
        to_final,
    };
    StreamRun {
        stat,
        backlog_max: con.backlog.iter().map(|b| b.1).fold(0.0, f64::max),
        due_backlog_max: ys.iter().copied().fold(0.0, f64::max),
        backlog_slope: stats::slope(&xs, &ys),
        events: snap.progress.total(),
        polls: con.polls,
        empty_polls: con.empty_polls,
        publishes: con.publishes.len() as u64,
        results,
    }
}

/// Everything measured at one rate.
#[derive(Default)]
struct RateAgg {
    streams: Vec<StreamStat>,
    due_backlog_max: f64,
    max_slope: f64,
}

pub fn run(ctx: &mut Ctx) -> (Vec<f64>, Outcome) {
    let (setup_times, streams) = ctx.timed_setup(setup);

    let mut out = Outcome::default();
    let mut saturated = Vec::new();
    let mut per_rate: BTreeMap<u64, RateAgg> = BTreeMap::new();
    let started = Instant::now();
    let mut unit = 0;
    while ctx.more(started, unit) {
        ctx.begin_unit(unit);
        let traced = ctx.tr.is_on();
        let mut ref_iters = Vec::new();
        let mut unit_saturated = Vec::new();
        let (mut polls, mut empty, mut publishes, mut backlog_max) = (0u64, 0u64, 0u64, 0f64);
        let passes = |rate| if rate == SATURATION_RATE { SATURATED_PASSES } else { 1 };
        for rate in RATES.into_iter().flat_map(|r| std::iter::repeat_n(r, passes(r))) {
            for s in &streams {
                ctx.tr.iter += 1;
                let iter = ctx.tr.iter;
                let r = ctx.tr.span("bench.iteration", |tr| stream(tr, s, rate));
                ctx.tally.iteration(r.results);
                if rate == SATURATION_RATE {
                    unit_saturated.push(r.stat.to_final);
                    out.events += r.events;
                    out.timed_s += r.stat.to_final;
                    ctx.calibrate();
                }
                let agg = per_rate.entry(rate as u64).or_default();
                agg.due_backlog_max = agg.due_backlog_max.max(r.due_backlog_max);
                agg.max_slope = agg.max_slope.max(r.backlog_slope);
                agg.streams.push(r.stat);
                if rate == REFERENCE_RATE {
                    ref_iters.push(iter);
                    polls += r.polls;
                    empty += r.empty_polls;
                    publishes += r.publishes;
                    backlog_max = backlog_max.max(r.backlog_max);
                    if traced {
                        ctx.tr.count("mofka.events", r.events as f64);
                        ctx.tr
                            .count("darshan.records", s.data.darshan.all_records().count() as f64);
                    }
                }
            }
        }
        let mean = unit_saturated.iter().sum::<f64>() / unit_saturated.len() as f64;
        out.unit_walls.push((traced, mean));
        saturated.extend(unit_saturated);
        if traced {
            let mut m = layer_values(&ctx.tr, &ref_iters);
            let publish_ms = stats::sorted(
                ctx.tr
                    .spans()
                    .iter()
                    .filter(|s| s.name == "perfrecup.live_publish" && ref_iters.contains(&s.iter))
                    .map(|s| s.dur_ns() as f64 / 1e6)
                    .collect(),
            );
            if !publish_ms.is_empty() {
                m.insert("perfrecup.live_publish_p50_ms".into(), stats::median(&publish_ms));
                m.insert(
                    "perfrecup.live_publish_p99_ms".into(),
                    stats::percentile(&publish_ms, 99.0),
                );
            }
            let n = ref_iters.len().max(1) as f64;
            m.insert("perfrecup.live_publishes".into(), publishes as f64 / n);
            m.insert("perfrecup.live_empty_poll_ratio".into(), empty as f64 / polls.max(1) as f64);
            m.insert("perfrecup.live_backlog_max".into(), backlog_max);
            out.layers.push(m);
        }
        unit += 1;
    }
    out.run = RunStat::of(&saturated, &format!("stream seconds at {SATURATION_RATE}/s"));

    let limit = ctx.opts.fresh_limit_ms.expect("checked when parsing arguments");
    let mut max_rate = 0u64;
    for (rate, agg) in &per_rate {
        let med = |f: &dyn Fn(&StreamStat) -> f64| {
            stats::median(&agg.streams.iter().map(f).collect::<Vec<_>>())
        };
        let (p50, p99) = (med(&|s| s.fresh_p50), med(&|s| s.fresh_p99));
        let late = med(&|s| s.late_p99);
        let growing = agg.max_slope > GROWTH * *rate as f64;
        let sustained = p99 * 1e3 < limit && !growing;
        if sustained {
            max_rate = max_rate.max(*rate);
        }
        out.report.push(format!(
            "rate {rate}/s: fresh_p50_ms {:.4} fresh_p99_ms {:.4} gen_late_p99_ms {:.4} backlog_max {} backlog_slope_max {:.1}/s growing={growing} sustained={sustained} (medians over {} streams)",
            p50 * 1e3,
            p99 * 1e3,
            late * 1e3,
            agg.due_backlog_max,
            agg.max_slope,
            agg.streams.len()
        ));
        if *rate as f64 == REFERENCE_RATE {
            out.report.push(format!("fresh_p50_ms {} ms (at {rate}/s)", p50 * 1e3));
            out.report.push(format!("fresh_p99_ms {} ms (at {rate}/s)", p99 * 1e3));
            out.report.push(format!("gen_late_p99_ms {} ms (at {rate}/s)", late * 1e3));
        }
    }
    out.report.push(format!(
        "live_max_rate {max_rate} 1/s (highest rate with fresh p99 < {limit} ms and no growing backlog)"
    ));
    (setup_times, out)
}
