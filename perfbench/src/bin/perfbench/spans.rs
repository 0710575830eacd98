//! The benchmark's own spans around every call it makes into a layer, merged with the
//! engine's event trace into one Chrome trace file and a per-span self-time table.
//!
//! Spans stay in memory while the workload runs. Each records its name, start, end,
//! parent and (for per-request work) the request id, so a request's spans share an id.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use mx_llm::{EventKind, Trace};

/// The Chrome trace thread id of the benchmark's own spans.
const BENCH_TID: u32 = 100;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: Option<u64>,
}

/// Records spans when enabled; every call is a no-op branch otherwise.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (`usize::MAX` when tracing is off).
#[derive(Clone, Copy)]
pub struct SpanId(usize);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Restarts the time origin, so the spans line up with an engine trace whose clock
    /// starts now.
    pub fn reset_origin(&mut self) {
        self.origin = Instant::now();
    }

    pub fn begin(&mut self, name: &'static str, req: Option<u64>) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent: self.open.last().copied(), req });
        self.open.push(self.spans.len() - 1);
        SpanId(self.spans.len() - 1)
    }

    pub fn end(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        self.spans[id.0].end_ns = self.origin.elapsed().as_nanos() as u64;
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id.0), "spans must close innermost first");
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, None);
        let out = f();
        self.end(id);
        out
    }

    /// Chrome trace-event JSON: the engine's events plus the benchmark's spans as complete
    /// (`X`) events on their own thread, with parent and request id in `args`.
    pub fn chrome_json(&self, engine: Option<&Trace>) -> String {
        let base =
            engine.map_or_else(|| "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}".to_string(), Trace::to_chrome_json);
        let body_end = base.rfind("],\"displayTimeUnit\"").expect("chrome trace JSON ends with its event list");
        let mut out = String::with_capacity(base.len() + self.spans.len() * 128);
        out.push_str(&base[..body_end]);
        let mut first = base[..body_end].ends_with('[');
        let mut sep = |out: &mut String| {
            if !first {
                out.push(',');
            }
            first = false;
        };
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{BENCH_TID},\"args\":{{\"name\":\"bench\"}}}}"
        );
        for (i, s) in self.spans.iter().enumerate() {
            sep(&mut out);
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let req = s.req.map_or_else(|| "null".to_string(), |r| r.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"bench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{BENCH_TID},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"req\":{req}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            );
        }
        out.push_str(&base[body_end..]);
        out
    }

    /// Calls, total and self time per span name over the benchmark's spans and the engine's
    /// duration events. Self time is a span's duration minus that of the spans nested
    /// directly inside it on the same thread.
    pub fn self_times(&self, engine: Option<&Trace>) -> BTreeMap<String, SelfTime> {
        let mut table: BTreeMap<String, SelfTime> = BTreeMap::new();
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        for (s, child) in self.spans.iter().zip(&child_ns) {
            table.entry(s.name.to_string()).or_default().add(s.end_ns - s.start_ns, *child);
        }
        if let Some(trace) = engine {
            // Per lane, Begin/End pairs nest like a call stack.
            let mut stacks: BTreeMap<u32, Vec<(&'static str, u64, u64)>> = BTreeMap::new();
            for e in trace.events() {
                let stack = stacks.entry(e.lane).or_default();
                match e.kind {
                    EventKind::Begin => stack.push((e.name, e.ts_nanos, 0)),
                    EventKind::End => {
                        if let Some((name, start, child)) = stack.pop() {
                            let dur = e.ts_nanos.saturating_sub(start);
                            if let Some(parent) = stack.last_mut() {
                                parent.2 += dur;
                            }
                            table.entry(engine_span_name(name).to_string()).or_default().add(dur, child);
                        }
                    }
                    EventKind::Instant | EventKind::Counter => {}
                }
            }
        }
        table
    }

    /// Durations in milliseconds of the engine's spans named `name`.
    pub fn engine_span_ms(trace: &Trace, name: &str) -> Vec<f64> {
        let mut open: BTreeMap<(u32, u64), u64> = BTreeMap::new();
        let mut out = Vec::new();
        for e in trace.events().iter().filter(|e| e.name == name) {
            match e.kind {
                EventKind::Begin => {
                    open.insert((e.lane, e.arg), e.ts_nanos);
                }
                EventKind::End => {
                    if let Some(start) = open.remove(&(e.lane, e.arg)) {
                        out.push(e.ts_nanos.saturating_sub(start) as f64 / 1e6);
                    }
                }
                _ => {}
            }
        }
        out
    }
}

/// The layer-qualified name of an engine span.
fn engine_span_name(name: &str) -> String {
    match name {
        "pass" => "serving.pass".into(),
        "prefill" => "model.prefill".into(),
        "decode_step" => "model.decode_step".into(),
        other => format!("engine.{other}"),
    }
}

#[derive(Default)]
pub struct SelfTime {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl SelfTime {
    fn add(&mut self, dur: u64, child: u64) {
        self.calls += 1;
        self.total_ns += dur;
        self.self_ns += dur.saturating_sub(child);
    }
}

/// Writes the Chrome trace of a traced run to `.bench_out/<name>.trace.json` under the
/// working directory.
pub fn write_trace(tracer: &Tracer, engine: Option<&Trace>, name: &str) {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("{name}.trace.json"));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.chrome_json(engine))) {
        Ok(()) => println!("chrome trace: {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Prints the self-time table; `per` names the unit the last column divides by.
pub fn print_self_times(table: &BTreeMap<String, SelfTime>, per: (&str, f64)) {
    println!("{:<34} {:>9} {:>12} {:>12} {:>14}", "span", "calls", "total_ms", "self_ms", format!("self_us/{}", per.0));
    for (name, t) in table {
        println!(
            "{:<34} {:>9} {:>12.3} {:>12.3} {:>14.3}",
            name,
            t.calls,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            t.self_ns as f64 / 1e3 / per.1.max(1.0),
        );
    }
}
