//! In-memory spans around the benchmark's calls into the library.
//!
//! A span records its name, start, end, parent span and the operation id
//! it belongs to.  Operation spans (`op`) wrap one closed-loop operation of
//! a workload; call spans (`call`) wrap one public library call inside it;
//! replay spans (`replay`) wrap the per-layer replays the traced run makes
//! after an operation (for layers only reachable inside another call).
//! Spans stay in memory and are written out once, when the run ends.  With
//! tracing off every method just runs its closure.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Op,
    Call,
    Replay,
}

struct Span {
    name: &'static str,
    kind: Kind,
    op: u64,
    parent: Option<usize>,
    start: u64,
    end: u64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    next_op: u64,
    last_ns: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            next_op: 0,
            last_ns: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, kind: Kind, op: u64) -> usize {
        let parent = self.stack.last().copied();
        let start = self.now();
        self.spans.push(Span { name, kind, op, parent, start, end: start });
        let id = self.spans.len() - 1;
        self.stack.push(id);
        id
    }

    fn close(&mut self, id: usize) {
        self.stack.pop();
        let span = &mut self.spans[id];
        span.end = self.epoch.elapsed().as_nanos() as u64;
        self.last_ns = span.end - span.start;
    }

    /// Duration of the span closed last, in nanoseconds (0 when off).
    pub fn last_ns(&self) -> u64 {
        self.last_ns
    }

    /// Runs one workload operation under a fresh operation id.
    pub fn op<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        self.next_op += 1;
        let id = self.open(name, Kind::Op, self.next_op);
        let out = f(self);
        self.close(id);
        out
    }

    /// Runs one library call as a child of the open span.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let op = self.stack.last().map_or(0, |&p| self.spans[p].op);
        let id = self.open(name, Kind::Call, op);
        let out = f();
        self.close(id);
        out
    }

    /// Runs a per-layer replay of the last operation, outside any op span,
    /// and returns its result with its duration in nanoseconds.
    pub fn replay<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        let op = self.next_op;
        let id = if self.on { Some(self.open(name, Kind::Replay, op)) } else { None };
        let t = Instant::now();
        let out = f();
        let ns = t.elapsed().as_nanos() as u64;
        if let Some(id) = id {
            self.close(id);
        }
        (out, ns)
    }

    /// Self time of every span: its duration minus the time its child
    /// spans cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end - s.start);
            }
        }
        own
    }

    /// Total duration of the operation spans, in nanoseconds.
    pub fn op_wall_ns(&self) -> u64 {
        self.spans.iter().filter(|s| s.kind == Kind::Op).map(|s| s.end - s.start).sum()
    }

    /// The share of operation time that is the operation spans' own self
    /// time, i.e. inside no call span: benchmark loop overhead plus any
    /// library work outside a traced call.
    pub fn unattributed_share(&self) -> f64 {
        let own = self.self_ns();
        let op_self: u64 = self
            .spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.kind == Kind::Op)
            .map(|(_, &ns)| ns)
            .sum();
        match self.op_wall_ns() {
            0 => 0.0,
            wall => op_self as f64 / wall as f64,
        }
    }

    /// Writes every span as one tab-separated line:
    /// `id  parent  op  name  start_ns  end_ns  self_ns` (parent `-` for
    /// roots).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\top\tname\tstart_ns\tend_ns\tself_ns")?;
        for ((i, s), own) in self.spans.iter().enumerate().zip(self.self_ns()) {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(out, "{i}\t{parent}\t{}\t{}\t{}\t{}\t{own}", s.op, s.name, s.start, s.end)?;
        }
        out.flush()
    }
}
