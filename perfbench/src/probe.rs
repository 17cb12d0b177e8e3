//! Bench-side tracing for the traced run: in-memory spans around the
//! benchmark's own calls into the program (build, `run_until` slices,
//! layer replays) and timing wrappers at the hosted-service trait boundary
//! (`Service`, `TxnService`, `PassiveService`).
//!
//! Nothing here reaches inside the program: the wrappers forward every
//! call unchanged and only read the thread's CPU clock around it, so the
//! simulated schedule of a wrapped run is identical to an unwrapped one
//! (the benchmark checks this on every run).

use crate::clock::cpu_ns;
use perpetual_ws::{PassiveService, PassiveUtils, Poll, Service, ServiceCtx, TxnService, WsEvent};
use pws_soap::MessageContext;
use std::cell::RefCell;
use std::io::Write as _;
use std::rc::Rc;

/// How many request and reply envelopes a probe keeps for the SOAP replay.
const CAPTURE_CAP: usize = 64;
/// Keep every `CAPTURE_STRIDE`-th envelope seen, so the sample spans the
/// run instead of its first few milliseconds.
const CAPTURE_STRIDE: u64 = 16;

/// One bench-side span. Times are on the thread CPU clock, in ns.
#[derive(Debug, Clone, Copy)]
struct SpanRec {
    name: &'static str,
    parent: Option<u32>,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<SpanRec>,
    open: Vec<u32>,
    clock_overhead_ns: f64,
    handler_ns: f64,
    handler_calls: u64,
    seen_requests: u64,
    seen_replies: u64,
    requests: Vec<MessageContext>,
    replies: Vec<MessageContext>,
}

/// Shared handle to one traced run's spans and captures.
#[derive(Debug, Clone, Default)]
pub struct Probe(Rc<RefCell<State>>);

impl Probe {
    /// A probe that subtracts `clock_overhead_ns` (the cost of one clock
    /// read) from every handler call it times.
    pub fn new(clock_overhead_ns: f64) -> Self {
        let p = Probe::default();
        p.0.borrow_mut().clock_overhead_ns = clock_overhead_ns;
        p
    }

    /// Runs `f` inside a span named `name`, nested under the open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = {
            let mut s = self.0.borrow_mut();
            let idx = s.spans.len() as u32;
            let parent = s.open.last().copied();
            s.spans.push(SpanRec {
                name,
                parent,
                start_ns: 0,
                end_ns: 0,
            });
            s.open.push(idx);
            idx
        };
        let t0 = cpu_ns();
        let out = f();
        let t1 = cpu_ns();
        let mut s = self.0.borrow_mut();
        s.open.pop();
        let rec = &mut s.spans[idx as usize];
        rec.start_ns = t0;
        rec.end_ns = t1;
        out
    }

    fn handler(&self, name: &'static str, t0: u64, t1: u64) {
        let mut s = self.0.borrow_mut();
        let parent = s.open.last().copied();
        s.spans.push(SpanRec {
            name,
            parent,
            start_ns: t0,
            end_ns: t1,
        });
        s.handler_ns += ((t1 - t0) as f64 - s.clock_overhead_ns).max(0.0);
        s.handler_calls += 1;
    }

    fn capture_request(&self, mc: &MessageContext) {
        let mut s = self.0.borrow_mut();
        s.seen_requests += 1;
        if s.seen_requests % CAPTURE_STRIDE == 1 && s.requests.len() < CAPTURE_CAP {
            s.requests.push(mc.clone());
        }
    }

    /// Keeps a reply envelope for the SOAP replay (sampled).
    pub fn capture_reply(&self, mc: &MessageContext) {
        let mut s = self.0.borrow_mut();
        s.seen_replies += 1;
        if s.seen_replies % CAPTURE_STRIDE == 1 && s.replies.len() < CAPTURE_CAP {
            s.replies.push(mc.clone());
        }
    }

    /// On-CPU ns spent inside hosted handlers, net of clock reads.
    pub fn handler_ns(&self) -> f64 {
        self.0.borrow().handler_ns
    }

    /// Hosted handler calls timed.
    pub fn handler_calls(&self) -> u64 {
        self.0.borrow().handler_calls
    }

    /// The captured `(requests, replies)` envelopes.
    pub fn envelopes(&self) -> (Vec<MessageContext>, Vec<MessageContext>) {
        let s = self.0.borrow();
        (s.requests.clone(), s.replies.clone())
    }

    /// Span count and summed CPU ns per span name, name-ordered.
    pub fn totals(&self) -> Vec<(&'static str, u64, u64)> {
        let mut by: std::collections::BTreeMap<&'static str, (u64, u64)> = Default::default();
        for r in &self.0.borrow().spans {
            let e = by.entry(r.name).or_default();
            e.0 += 1;
            e.1 += r.end_ns - r.start_ns;
        }
        by.into_iter().map(|(k, (n, ns))| (k, n, ns)).collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        let s = self.0.borrow();
        let base = s.spans.iter().map(|r| r.start_ns).min().unwrap_or(0);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, r) in s.spans.iter().enumerate() {
            let parent = r.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
                r.name,
                r.start_ns - base,
                r.end_ns - r.start_ns
            )?;
        }
        out.flush()
    }
}

/// Runs one hosted-handler call `f` as a span named after the service.
fn timed<S, T>(probe: &Probe, f: impl FnOnce() -> T) -> T {
    let t0 = cpu_ns();
    let out = f();
    probe.handler(std::any::type_name::<S>(), t0, cpu_ns());
    out
}

/// Times a hosted `Service` (and, when it is one, `TxnService`).
pub struct Timed<S> {
    /// The wrapped service.
    pub inner: S,
    probe: Probe,
}

impl<S> Timed<S> {
    /// Wraps `inner`, reporting to `probe`.
    pub fn new(inner: S, probe: &Probe) -> Self {
        Timed {
            inner,
            probe: probe.clone(),
        }
    }
}

impl<S: Service> Service for Timed<S> {
    fn on_event(&mut self, ev: WsEvent, ctx: &mut ServiceCtx<'_>) -> Poll {
        match &ev {
            WsEvent::Request { request } => self.probe.capture_request(request),
            WsEvent::Reply { reply, .. } => self.probe.capture_reply(reply),
            WsEvent::Init { .. } | WsEvent::Time { .. } => {}
        }
        timed::<S, _>(&self.probe, || self.inner.on_event(ev, ctx))
    }

    fn snapshot(&self) -> Vec<u8> {
        timed::<S, _>(&self.probe, || self.inner.snapshot())
    }

    fn restore(&mut self, snapshot: &[u8]) {
        timed::<S, _>(&self.probe, || self.inner.restore(snapshot));
    }
}

impl<S: TxnService> TxnService for Timed<S> {
    fn txn_validate(&mut self, op: &str, keys: &[String]) -> bool {
        timed::<S, _>(&self.probe, || self.inner.txn_validate(op, keys))
    }

    fn txn_execute(&mut self, op: &str, keys: &[String]) -> String {
        timed::<S, _>(&self.probe, || self.inner.txn_execute(op, keys))
    }

    fn export_keys(&mut self, moved: &dyn Fn(&str) -> bool) -> Vec<(String, Vec<u8>)> {
        timed::<S, _>(&self.probe, || self.inner.export_keys(moved))
    }

    fn import_keys(&mut self, entries: &[(String, Vec<u8>)]) {
        timed::<S, _>(&self.probe, || self.inner.import_keys(entries));
    }
}

/// Times a hosted `PassiveService`.
pub struct TimedPassive<S> {
    inner: S,
    probe: Probe,
}

impl<S> TimedPassive<S> {
    /// Wraps `inner`, reporting to `probe`.
    pub fn new(inner: S, probe: &Probe) -> Self {
        TimedPassive {
            inner,
            probe: probe.clone(),
        }
    }
}

impl<S: PassiveService> PassiveService for TimedPassive<S> {
    fn handle(&mut self, request: MessageContext, utils: &mut PassiveUtils) -> MessageContext {
        self.probe.capture_request(&request);
        let reply = timed::<S, _>(&self.probe, || self.inner.handle(request, utils));
        self.probe.capture_reply(&reply);
        reply
    }

    fn snapshot(&self) -> Vec<u8> {
        timed::<S, _>(&self.probe, || self.inner.snapshot())
    }

    fn restore(&mut self, snapshot: &[u8]) {
        timed::<S, _>(&self.probe, || self.inner.restore(snapshot));
    }
}
