//! What a pass records: its timed seconds and operation outcomes, and —
//! in a traced pass — the time spent in each library layer.

use deepburning_trace::{EventKind, Tracer};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

/// The outcome of one pass over a job list.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host seconds spent inside the timed regions (checks excluded).
    pub seconds: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Failures of operations that are not known fault probes.
    pub unexpected: Vec<String>,
    /// Failures of the known fault probes.
    pub known: Vec<String>,
}

impl Pass {
    /// Runs `f` inside the timed region.
    pub fn timed<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.seconds += t.elapsed().as_secs_f64();
        out
    }

    /// Records one operation. `known_fault` marks an operation that
    /// probes a fault the program has today: its failure is counted but
    /// does not make the run incorrect.
    pub fn record(&mut self, job: &str, outcome: Result<(), String>, known_fault: bool) {
        self.attempted += 1;
        if let Err(why) = outcome {
            let failures = if known_fault {
                &mut self.known
            } else {
                &mut self.unexpected
            };
            failures.push(format!("{job}: {why}"));
        }
    }

    /// Operations that failed, fault probes included.
    pub fn failed(&self) -> u64 {
        (self.known.len() + self.unexpected.len()) as u64
    }
}

/// Per-layer accumulators of a traced pass; a no-op when off.
pub struct Layers {
    on: bool,
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Records nothing (the timed passes).
    pub fn off() -> Layers {
        Layers {
            on: false,
            values: BTreeMap::new(),
        }
    }

    /// Records every call (the traced pass).
    pub fn on() -> Layers {
        Layers {
            on: true,
            values: BTreeMap::new(),
        }
    }

    /// Whether this pass is traced.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Runs `f`, adding its wall time to `key` when traced.
    pub fn time<T>(&mut self, key: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let out = f();
        self.add(key, t.elapsed().as_secs_f64());
        out
    }

    /// Adds `value` to `key` when traced.
    pub fn add(&mut self, key: &'static str, value: f64) {
        if self.on {
            *self.values.entry(key).or_default() += value;
        }
    }

    /// The accumulated value of `key` (0 for a layer the pass never
    /// called).
    pub fn get(&self, key: &str) -> f64 {
        self.values.get(key).copied().unwrap_or(0.0)
    }

    /// Folds in what the program's own tracer recorded during the traced
    /// pass: the constraint-loop iteration counter, and the block
    /// elaborations the differential harness performs internally.
    pub fn read_tracer(&mut self, tracer: &Tracer) {
        let mut open: Vec<f64> = Vec::new();
        for event in tracer.events() {
            match (&event.kind, event.name.as_str()) {
                (EventKind::Counter { delta }, "core.constraint_iterations") => {
                    self.add("core.constraint_iterations", *delta);
                }
                (EventKind::SpanBegin, "sim.rtl_elaborate") => open.push(event.ts_us),
                (EventKind::SpanEnd, "sim.rtl_elaborate") => {
                    if let Some(begin) = open.pop() {
                        self.add("verilog.elaborate_s", (event.ts_us - begin) / 1e6);
                    }
                }
                _ => {}
            }
        }
        if tracer.events_dropped() > 0 {
            eprintln!(
                "tracer dropped {} events; tracer-read metrics are partial",
                tracer.events_dropped()
            );
        }
    }
}

thread_local! {
    static GUARDED: Cell<bool> = const { Cell::new(false) };
    static PANIC_AT: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Keeps the default panic report for panics outside [`guarded`]; inside
/// it, the location is kept for the operation's failure message instead.
pub fn install_panic_hook() {
    let default = panic::take_hook();
    panic::set_hook(Box::new(move |info| {
        if GUARDED.get() {
            let at = info
                .location()
                .map(|l| format!("{}:{}", l.file(), l.line()))
                .unwrap_or_default();
            PANIC_AT.set(at);
        } else {
            default(info);
        }
    }));
}

/// Runs `f`, turning a panic into an error that names where it happened.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    GUARDED.set(true);
    let out = panic::catch_unwind(AssertUnwindSafe(f));
    GUARDED.set(false);
    out.map_err(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        format!("panicked at {}: {msg}", PANIC_AT.take())
    })
}
