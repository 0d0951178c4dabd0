//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only here, in the benchmark, around its calls into
//! the workspace crates: each has a name, start, end, parent, iteration id
//! and lane (one lane per thread). A span's self time is its duration
//! minus the durations of its direct children on the same lane; the self
//! time of an iteration's root span is the leftover that no layer span
//! covers. Spans on other lanes (threads the iteration spawned) hang off
//! the span that spawned them but do not count against its self time.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub iter: u32,
    pub lane: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans and exact counters when on; when off, `span` just calls
/// its closure and `count` does nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    lane: u32,
    pub iter: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Span, on the spawning lane, that this lane's root spans hang off.
    fork_parent: Option<usize>,
    /// `(iteration, counter) → value`, summed.
    counters: BTreeMap<(u32, &'static str), f64>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            lane: 0,
            iter: 0,
            spans: Vec::new(),
            open: Vec::new(),
            fork_parent: None,
            counters: BTreeMap::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let parent = self.open.last().copied();
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            iter: self.iter,
            lane: self.lane,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Add `v` to counter `name` of the current iteration.
    pub fn count(&mut self, name: &'static str, v: f64) {
        if self.on {
            *self.counters.entry((self.iter, name)).or_default() += v;
        }
    }

    /// A tracer for a thread spawned inside the currently open span.
    pub fn fork(&self, lane: u32) -> Tracer {
        Tracer {
            on: self.on,
            epoch: self.epoch,
            lane,
            iter: self.iter,
            spans: Vec::new(),
            open: Vec::new(),
            fork_parent: self.open.last().copied(),
            counters: BTreeMap::new(),
        }
    }

    /// Take back the spans and counters of a forked tracer.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        for mut s in other.spans {
            // the forked lane recorded local parent indices; its roots
            // hang off the span that spawned the thread
            s.parent = s.parent.map(|p| p + base).or(other.fork_parent);
            self.spans.push(s);
        }
        for (k, v) in other.counters {
            *self.counters.entry(k).or_default() += v;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn counters(&self) -> &BTreeMap<(u32, &'static str), f64> {
        &self.counters
    }
}

/// Self time of every span, in ns (same index as `spans`).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            if spans[p].lane == s.lane {
                out[p] = out[p].saturating_sub(s.dur_ns());
            }
        }
    }
    out
}

/// Per-lane additivity of iteration `iter`: for every lane, the self times
/// of its spans sum to the summed duration of its root spans (for lane 0,
/// the iteration's wall). Returns the largest mismatch in ns.
pub fn additivity_error_ns(spans: &[Span], iter: u32) -> u64 {
    let selfs = self_times(spans);
    let mut by_lane: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.iter == iter) {
        let e = by_lane.entry(s.lane).or_default();
        e.0 += selfs[i];
        let root = s.parent.is_none_or(|p| spans[p].lane != s.lane);
        if root {
            e.1 += s.dur_ns();
        }
    }
    by_lane.values().map(|(sum_self, roots)| sum_self.abs_diff(*roots)).max().unwrap_or(0)
}

/// Render spans as JSON lines (written out once, when the run ends).
pub fn to_json_lines(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{parent},\"iter\":{},\"lane\":{}}}\n",
            s.name, s.start_ns, s.end_ns, selfs[i], s.iter, s.lane
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < us as u128 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_times_and_leftover_add_up_to_the_wall() {
        let mut tr = Tracer::new(true);
        tr.iter = 3;
        tr.span("root", |tr| {
            busy(200);
            tr.span("a", |tr| {
                busy(100);
                tr.span("a.b", |_| busy(100));
            });
            std::thread::scope(|s| {
                let mut forked = tr.fork(1);
                let h = s.spawn(move || {
                    forked.span("thread", |t| t.span("thread.leaf", |_| busy(50)));
                    forked
                });
                let forked = h.join().expect("traced thread");
                tr.absorb(forked);
            });
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 5);
        assert_eq!(additivity_error_ns(spans, 3), 0);
        let root = spans.iter().position(|s| s.name == "root").unwrap();
        let thread = spans.iter().position(|s| s.name == "thread").unwrap();
        let leaf = spans.iter().position(|s| s.name == "thread.leaf").unwrap();
        assert_eq!(spans[thread].parent, Some(root));
        assert_eq!(spans[leaf].parent, Some(thread));
        let selfs = self_times(spans);
        let a = spans.iter().position(|s| s.name == "a").unwrap();
        // the thread's span does not count against the root's self time
        assert_eq!(selfs[root], spans[root].dur_ns() - spans[a].dur_ns());
    }

    #[test]
    fn off_records_nothing() {
        let mut tr = Tracer::new(false);
        let v = tr.span("x", |tr| {
            tr.count("c", 1.0);
            7
        });
        assert_eq!(v, 7);
        assert!(tr.spans().is_empty() && tr.counters().is_empty());
    }
}
