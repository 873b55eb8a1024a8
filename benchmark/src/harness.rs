//! The measuring loop shared by every workload: set-up, closed-loop passes,
//! span recording, operation and check counting.

use crate::stats::{self, Span};
use std::collections::BTreeMap;
use std::fmt::Display;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Set-up (input generation plus one warm-up pass) is repeated this many
/// times and `setup_s` is the median, so one slow page-fault storm does not
/// decide it.
const SETUP_REPEATS: usize = 3;
/// Passes recorded before the measured ones and discarded.
const WARMUP_PASSES: usize = 1;
/// Fewer measured passes than this give no usable median.
const MIN_PASSES: usize = 5;
/// Probe rounds get pass ids from here up, so they never mix with passes.
const PROBE_PASS_BASE: u32 = 1 << 30;
/// How many failure messages are kept for the report.
const MAX_FAILURE_NOTES: usize = 8;

/// Marker for "an operation failed and was counted"; lets a pass use `?`.
#[derive(Debug)]
pub struct Failed;

/// One workload: a pipeline run from generated inputs through the public
/// functions of the layers.
pub trait Workload {
    /// Everything a pass reads that is an input, not work.
    type Inputs;
    /// Name as in `BENCHMARK.json`.
    const NAME: &'static str;
    /// What `units` counts.
    const UNIT: &'static str;

    /// Generates the inputs from the seed. `pins` receives the registry pin
    /// of every platform descriptor the workload uses.
    fn setup(seed: u64, pins: &mut Vec<String>) -> Self::Inputs;
    /// Units of work one pass completes.
    fn units(inputs: &Self::Inputs) -> usize;
    /// One full run of the pipeline.
    fn pass(inputs: &Self::Inputs, ctx: &mut Ctx) -> Result<(), Failed>;
    /// Measurements that are not part of a pass, made once under `--trace`.
    fn probes(_inputs: &Self::Inputs, _ctx: &mut Ctx) -> Result<(), Failed> {
        Ok(())
    }
}

/// What a pass records into.
pub struct Ctx {
    epoch: Instant,
    tracing: bool,
    pass: u32,
    stack: Vec<u32>,
    pub spans: Vec<Span>,
    /// Counter values of the current pass.
    counters: BTreeMap<&'static str, f64>,
    /// Counter values of every finished traced pass.
    pub counter_history: Vec<BTreeMap<&'static str, f64>>,
    /// Counter values set by the probes, outside any pass.
    pub probe_counters: BTreeMap<&'static str, f64>,
    /// Sum of the virtual-time makespans simulated in the current pass.
    sim_makespan_s: f64,
    /// Order-sensitive digest of every simulation result of the pass.
    sim_digest: u64,
    pub attempted: u64,
    pub failed: u64,
    pub failure_notes: Vec<String>,
}

impl Ctx {
    pub fn new() -> Self {
        Ctx {
            epoch: Instant::now(),
            tracing: false,
            pass: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            counters: BTreeMap::new(),
            counter_history: Vec::new(),
            probe_counters: BTreeMap::new(),
            sim_makespan_s: 0.0,
            sim_digest: 0,
            attempted: 0,
            failed: 0,
            failure_notes: Vec::new(),
        }
    }

    /// Whether spans and counters are being recorded in this pass.
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str) {
        let index = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            pass: self.pass,
        });
        self.stack.push(index);
    }

    fn end(&mut self) {
        let index = self.stack.pop().expect("end without begin");
        self.spans[index as usize].end_ns = self.now_ns();
    }

    /// Records a span that was timed elsewhere: a phase a layer reports about
    /// itself. It has no parent, so it takes nothing from its caller's time.
    pub fn reported_span(&mut self, name: &'static str, duration_ns: u64) {
        if self.tracing {
            let now = self.now_ns();
            self.spans.push(Span {
                name,
                start_ns: now,
                end_ns: now + duration_ns,
                parent: None,
                pass: self.pass,
            });
        }
    }

    /// One call into a layer that cannot fail: counted as an attempted
    /// operation and, under `--trace`, wrapped in a span.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.attempted += 1;
        if !self.tracing {
            return f();
        }
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Frees what a layer built inside a span of that layer: tearing down a
    /// 200 000-task graph or report is part of what the call costs its user.
    pub fn release<T>(&mut self, name: &'static str, value: T) {
        if self.tracing {
            self.begin(name);
            drop(value);
            self.end();
        }
    }

    /// One call into a layer that returns a `Result`; an `Err` is a failed
    /// operation.
    pub fn try_call<T, E: Display>(
        &mut self,
        name: &'static str,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, Failed> {
        match self.call(name, f) {
            Ok(v) => Ok(v),
            Err(e) => {
                self.fail(format!("{name}: {e}"));
                Err(Failed)
            }
        }
    }

    /// One correctness check; a false one is a failed operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(format!("check failed: {}", what()));
        }
    }

    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.failure_notes.len() < MAX_FAILURE_NOTES {
            self.failure_notes.push(note);
        }
    }

    /// Adds to a per-pass counter. The value is computed only under
    /// `--trace`, so a counter that needs a scan costs the untraced run
    /// nothing.
    pub fn count(&mut self, name: &'static str, value: impl FnOnce() -> f64) {
        if self.tracing {
            *self.counters.entry(name).or_insert(0.0) += value();
        }
    }

    /// Raises a per-pass counter to at least the value.
    pub fn count_max(&mut self, name: &'static str, value: impl FnOnce() -> f64) {
        if self.tracing {
            let slot = self.counters.entry(name).or_insert(0.0);
            *slot = slot.max(value());
        }
    }

    /// Adds one simulation's outcome to the pass's virtual-time total and to
    /// the digest that must repeat bit for bit on every pass.
    pub fn sim_result(&mut self, makespan_s: f64, assignments: impl Iterator<Item = usize>) {
        self.sim_makespan_s += makespan_s;
        let mut h = self.sim_digest ^ makespan_s.to_bits();
        for a in assignments {
            // FNV-1a step per assignment.
            h = (h ^ a as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.sim_digest = h;
    }

    fn start_pass(&mut self, pass: u32, tracing: bool) {
        self.pass = pass;
        self.tracing = tracing;
        self.counters.clear();
        self.sim_makespan_s = 0.0;
        self.sim_digest = 0xcbf2_9ce4_8422_2325;
        if tracing {
            self.begin("pass");
        }
    }

    fn finish_pass(&mut self) {
        if self.tracing {
            // A pass that failed midway leaves spans open; close them all.
            while !self.stack.is_empty() {
                self.end();
            }
            self.counter_history
                .push(std::mem::take(&mut self.counters));
        }
        self.tracing = false;
    }

    /// Runs `rounds` probe rounds; each gets a pass id of its own so that its
    /// spans aggregate like those of a pass without entering pass times.
    pub fn probe_rounds(
        &mut self,
        rounds: u32,
        mut f: impl FnMut(&mut Ctx) -> Result<(), Failed>,
    ) -> Result<(), Failed> {
        for round in 0..rounds {
            self.pass = PROBE_PASS_BASE + round;
            f(self)?;
        }
        Ok(())
    }
}

/// Whether a span belongs to a measured pass (not a probe round).
pub fn in_pass(span: &Span) -> bool {
    span.pass < PROBE_PASS_BASE
}

/// What one run of one workload measured.
pub struct RunOutcome {
    pub setup_s: f64,
    /// Untraced pass times in ms, warm-up discarded.
    pub pass_ms: Vec<f64>,
    /// Traced pass times in ms (empty without `--trace`).
    pub traced_pass_ms: Vec<f64>,
    pub peak_rss_mb: f64,
    pub sim_makespan_s: f64,
    pub units: usize,
    pub pins: Vec<String>,
    pub ctx: Ctx,
}

/// Runs the workload: `SETUP_REPEATS` set-ups, then passes for `seconds`
/// (at least `MIN_PASSES`). Under `trace`, traced and untraced passes
/// alternate so that both kinds see the same machine state.
pub fn run<W: Workload>(seed: u64, seconds: f64, trace: bool) -> RunOutcome {
    let mut ctx = Ctx::new();
    let mut pins = Vec::new();
    let mut setup_times = Vec::new();
    let mut inputs = None;
    let mut pass_ms = Vec::new();
    for _ in 0..SETUP_REPEATS {
        // Free the previous inputs first: peak memory is that of one set.
        drop(inputs.take());
        pins.clear();
        let t0 = Instant::now();
        let fresh = W::setup(seed, &mut pins);
        let (warm_ms, _) = timed_pass::<W>(&fresh, &mut ctx, 0, false);
        setup_times.push(t0.elapsed().as_secs_f64());
        // The warm-up of the set-up whose inputs are kept is sample 0.
        pass_ms = vec![warm_ms];
        inputs = Some(fresh);
    }
    let inputs = inputs.expect("SETUP_REPEATS is at least one");

    let mut traced_pass_ms = Vec::new();
    let mut first_digest = None;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut pass = 0u32;
    while ctx.failed == 0 {
        let enough = pass_ms.len() >= WARMUP_PASSES + MIN_PASSES
            && (!trace || traced_pass_ms.len() >= MIN_PASSES);
        if enough && Instant::now() >= deadline {
            break;
        }
        pass += 1;
        let traced = trace && pass.is_multiple_of(2);
        let (ms, digest) = timed_pass::<W>(&inputs, &mut ctx, pass, traced);
        if traced {
            traced_pass_ms.push(ms);
        } else {
            pass_ms.push(ms);
        }
        let first = *first_digest.get_or_insert(digest);
        ctx.check(first == digest, || {
            format!("pass {pass} simulated a different result than the first pass")
        });
    }
    if trace && ctx.failed == 0 {
        ctx.tracing = true;
        ctx.counters.clear();
        let _ = W::probes(&inputs, &mut ctx);
        ctx.probe_counters = std::mem::take(&mut ctx.counters);
        ctx.tracing = false;
    }
    check_counters_repeat(&mut ctx);

    RunOutcome {
        setup_s: stats::median(&setup_times),
        pass_ms: stats::after_warmup(&pass_ms, WARMUP_PASSES).to_vec(),
        traced_pass_ms,
        peak_rss_mb: peak_rss_mb(),
        sim_makespan_s: ctx.sim_makespan_s,
        units: W::units(&inputs),
        pins,
        ctx,
    }
}

/// One pass with its timer pair; a panic inside it is a failed operation.
fn timed_pass<W: Workload>(
    inputs: &W::Inputs,
    ctx: &mut Ctx,
    pass: u32,
    traced: bool,
) -> (f64, u64) {
    ctx.start_pass(pass, traced);
    let t0 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| W::pass(inputs, ctx)));
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    ctx.finish_pass();
    if result.is_err() {
        ctx.attempted += 1;
        ctx.fail(format!("pass {pass} panicked"));
    }
    (ms, ctx.sim_digest)
}

/// Counters not listed as approximate must read the same on every pass.
fn check_counters_repeat(ctx: &mut Ctx) {
    let Some(first) = ctx.counter_history.first().cloned() else {
        return;
    };
    for (name, value) in first {
        if crate::layers::APPROXIMATE_COUNTERS.contains(&name) {
            continue;
        }
        let repeats = ctx
            .counter_history
            .iter()
            .all(|pass| pass.get(name).map(|v| v.to_bits()) == Some(value.to_bits()));
        ctx.check(repeats, || format!("counter {name} differs between passes"));
    }
}

/// `VmHWM` of this process in MB (0 where `/proc` does not offer it).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
