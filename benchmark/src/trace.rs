//! Spans recorded by the benchmark around calls into each layer's
//! public functions — the view from outside. Tracing inside the program
//! is a later change (ROADMAP item 2).

use logan_align::SeedExtendResult;
use logan_core::{AlignBackend, BackendReport};
use logan_seq::readsim::ReadPair;
use logan_seq::ScoreProfile;
use serde::Value;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

struct Span {
    name: &'static str,
    start_s: f64,
    /// NaN while the span is open.
    end_s: f64,
    parent: Option<SpanId>,
    /// Spans of one operation (one repetition, one pass) share this.
    op: u32,
}

/// In-memory span store; written out once, when the benchmark ends.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_op: AtomicU32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_op: AtomicU32::new(1),
        }
    }

    /// A fresh operation id: the spans of one pass of one workload share it.
    pub fn new_op(&self) -> u32 {
        self.next_op.fetch_add(1, Relaxed)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("a traced call panicked")
    }

    pub fn enter(&self, name: &'static str, parent: Option<SpanId>, op: u32) -> SpanId {
        let mut spans = self.lock();
        spans.push(Span {
            name,
            start_s: self.epoch.elapsed().as_secs_f64(),
            end_s: f64::NAN,
            parent,
            op,
        });
        spans.len() - 1
    }

    pub fn exit(&self, id: SpanId) {
        let now = self.epoch.elapsed().as_secs_f64();
        self.lock()[id].end_s = now;
    }

    /// Duration of one span.
    pub fn duration(&self, id: SpanId) -> f64 {
        let spans = self.lock();
        spans[id].end_s - spans[id].start_s
    }

    /// Summed duration of the spans called `name` in operation `op`.
    pub fn busy(&self, name: &str, op: u32) -> f64 {
        self.lock()
            .iter()
            .filter(|s| s.name == name && s.op == op)
            .map(|s| s.end_s - s.start_s)
            .sum()
    }

    /// A span's duration minus what its direct children cover.
    pub fn self_time(&self, id: SpanId) -> f64 {
        let spans = self.lock();
        let children: f64 = spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end_s - s.start_s)
            .sum();
        spans[id].end_s - spans[id].start_s - children
    }

    pub fn to_json(&self) -> Value {
        let spans = self.lock();
        Value::Seq(
            spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Value::Map(vec![
                        ("id".into(), Value::U64(id as u64)),
                        ("name".into(), Value::Str(s.name.into())),
                        ("start_s".into(), Value::F64(s.start_s)),
                        ("end_s".into(), Value::F64(s.end_s)),
                        (
                            "parent".into(),
                            s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                        ),
                        ("op".into(), Value::U64(s.op as u64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Where new spans hang: a tracer, the parent span and the operation id.
#[derive(Clone)]
pub struct Scope {
    pub tracer: Arc<Tracer>,
    pub parent: Option<SpanId>,
    pub op: u32,
}

impl Scope {
    /// Run `f` inside a child span called `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.tracer.enter(name, self.parent, self.op);
        let out = f();
        self.tracer.exit(id);
        out
    }
}

/// Span name of one backend block; its summed duration is the `align`
/// layer's busy time.
pub const ALIGN_SPAN: &str = "align.extend";

/// Decorator over the public [`AlignBackend`] trait: one span per block
/// and a merged report, for the places (`run_streaming`, `Server`) where
/// the call into `align` is not reachable from outside.
pub struct TracedBackend {
    inner: Arc<dyn AlignBackend>,
    scope: Scope,
    report: Mutex<BackendReport>,
}

impl TracedBackend {
    pub fn new(inner: Arc<dyn AlignBackend>, scope: Scope) -> TracedBackend {
        TracedBackend {
            inner,
            scope,
            report: Mutex::new(BackendReport::empty()),
        }
    }

    /// Everything the wrapped backend reported so far, merged.
    pub fn report(&self) -> BackendReport {
        self.report.lock().expect("a traced call panicked").clone()
    }
}

impl AlignBackend for TracedBackend {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn throughput_hint(&self) -> f64 {
        self.inner.throughput_hint()
    }

    fn max_block(&self) -> usize {
        self.inner.max_block()
    }

    fn lanes(&self) -> usize {
        self.inner.lanes()
    }

    fn profile_params(&self) -> Option<(ScoreProfile, i32)> {
        self.inner.profile_params()
    }

    fn align_block(&self, block: &[ReadPair]) -> (Vec<SeedExtendResult>, BackendReport) {
        self.align_block_on(0, block)
    }

    fn align_block_on(
        &self,
        lane: usize,
        block: &[ReadPair],
    ) -> (Vec<SeedExtendResult>, BackendReport) {
        let (results, report) = self
            .scope
            .span(ALIGN_SPAN, || self.inner.align_block_on(lane, block));
        self.report
            .lock()
            .expect("a traced call panicked")
            .merge(report.clone());
        (results, report)
    }
}
