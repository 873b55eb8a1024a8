//! `execute_*`: real execution on the thread engine with bodies so small that
//! the engine has nothing to hide behind, first with tracing off on both
//! submission paths, then with tracing on.

use super::workers;
use crate::harness::{Ctx, Failed, Workload};
use hetero_rt::prelude::*;
use kernels::graphs::fork_join_graph;
use std::hint::black_box;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

const WIDTH: usize = 64;
const STAGES: usize = 3077;
const COMPILED_BATCHES: usize = 4;
/// Ring slots per worker for every task of the graph: a task leaves about
/// five events, and with two workers one may record nearly all of them.
const RING_EVENTS_PER_TASK: usize = 8;
const PROBE_ROUNDS: u32 = 6;

/// What the task bodies leave behind for the checks: forks seen per stage,
/// and joins that ran before all their forks.
struct Tally {
    width: u32,
    forks_seen: Vec<AtomicU32>,
    early_joins: AtomicUsize,
}

impl Tally {
    /// Leaked on purpose: task bodies must be `'static`, and a reference
    /// costs the engine nothing per task where a shared pointer would add
    /// two contended atomic updates. One small tally per set-up.
    fn leaked(width: usize, stages: usize) -> &'static Tally {
        Box::leak(Box::new(Tally {
            width: width as u32,
            forks_seen: (0..stages).map(|_| AtomicU32::new(0)).collect(),
            early_joins: AtomicUsize::new(0),
        }))
    }

    fn reset(&self) {
        for stage in &self.forks_seen {
            stage.store(0, Ordering::Relaxed);
        }
        self.early_joins.store(0, Ordering::Relaxed);
    }

    /// The body of task `index`: one multiply, and the stage's fork counter,
    /// which the join reads.
    fn body(&'static self, index: usize) -> Box<dyn FnOnce() + Send> {
        Box::new(move || {
            black_box((index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let per_stage = self.width as usize + 1;
            let seen = &self.forks_seen[index / per_stage];
            if index % per_stage < self.width as usize {
                seen.fetch_add(1, Ordering::Relaxed);
            } else if seen.load(Ordering::Relaxed) != self.width {
                self.early_joins.fetch_add(1, Ordering::Relaxed);
            }
        })
    }

    /// Every fork ran exactly once and before its join; the engine's own
    /// count covers every task.
    fn verify(&self, report: &ExecReport, tasks: usize, ctx: &mut Ctx) {
        let executed: usize = report.worker_stats.iter().map(|w| w.executed).sum();
        let complete = self
            .forks_seen
            .iter()
            .all(|s| s.load(Ordering::Relaxed) == self.width);
        let early = self.early_joins.load(Ordering::Relaxed);
        ctx.check(executed == tasks && complete && early == 0, || {
            format!(
                "executed {executed} of {tasks} tasks, stages complete: {complete}, early joins: {early}"
            )
        });
        ctx.count("hetero-rt.thread_runs", || 1.0);
        ctx.count("hetero-rt.steals", || report.total_steals() as f64);
        ctx.count("hetero-rt.failed_steals", || {
            report.total_failed_steals() as f64
        });
        ctx.count("hetero-rt.busy_share_sum", || report.busy_fraction());
    }
}

// ---------------------------------------------------------------------------

pub struct ForkjoinInputs {
    tally: &'static Tally,
}

/// Graph build, compile, four compiled batches, then the same graph once
/// through the legacy `run` path: both submission paths in one number, so
/// collapsing them or adding per-task work is visible.
pub struct ExecuteForkjoin;

impl Workload for ExecuteForkjoin {
    type Inputs = ForkjoinInputs;
    const NAME: &'static str = "execute_forkjoin";
    const UNIT: &'static str = "executed task";

    fn setup(_seed: u64, _pins: &mut Vec<String>) -> ForkjoinInputs {
        ForkjoinInputs {
            tally: Tally::leaked(WIDTH, STAGES),
        }
    }

    fn units(_inputs: &ForkjoinInputs) -> usize {
        (COMPILED_BATCHES + 1) * STAGES * (WIDTH + 1)
    }

    fn pass(inputs: &ForkjoinInputs, ctx: &mut Ctx) -> Result<(), Failed> {
        let tally = inputs.tally;
        let graph = ctx.call("kernels.fork_join_graph", || {
            fork_join_graph(WIDTH, STAGES, None)
        });
        let tasks = graph.len();
        ctx.count("kernels.graph_tasks", || tasks as f64);

        let batched = ThreadedExecutor::new(workers()).with_task_stats(false);
        let compiled = ctx.try_call("hetero-rt.compile_graph", || batched.compile_graph(&graph))?;
        for _ in 0..COMPILED_BATCHES {
            tally.reset();
            let report = ctx.try_call("hetero-rt.run_compiled", || {
                batched.run_compiled(&compiled, |index| tally.body(index))
            })?;
            tally.verify(&report, tasks, ctx);
            ctx.count("hetero-rt.batch_tasks", || tasks as f64);
            ctx.release("hetero-rt.run_compiled", report);
        }
        ctx.release("hetero-rt.compile_graph", compiled);

        let thread_tasks = ctx.call("hetero-rt.from_graph", || {
            from_graph(&graph, |task| tally.body(task.id.0))
        });
        tally.reset();
        let report = ctx.try_call("hetero-rt.run_tasks", || {
            ThreadedExecutor::new(workers()).run(thread_tasks)
        })?;
        tally.verify(&report, tasks, ctx);
        ctx.release("hetero-rt.run_tasks", report);
        ctx.release("kernels.fork_join_graph", graph);
        Ok(())
    }
}

// ---------------------------------------------------------------------------

pub struct TracedInputs {
    graph: TaskGraph,
    tally: &'static Tally,
    ring_capacity: usize,
}

impl TracedInputs {
    fn new(width: usize, stages: usize, ring_capacity: usize) -> Self {
        TracedInputs {
            graph: fork_join_graph(width, stages, None),
            tally: Tally::leaked(width, stages),
            ring_capacity,
        }
    }

    fn run(
        &self,
        span: &'static str,
        sink: TraceSink,
        ctx: &mut Ctx,
    ) -> Result<ExecReport, Failed> {
        let tally = self.tally;
        let tasks = ctx.call("hetero-rt.from_graph", || {
            from_graph(&self.graph, |task| tally.body(task.id.0))
        });
        tally.reset();
        let report = ctx.try_call(span, || {
            ThreadedExecutor::new(workers()).with_trace(sink).run(tasks)
        })?;
        tally.verify(&report, self.graph.len(), ctx);
        Ok(report)
    }

    /// One run with the ring sink on. A ring that overwrote events is a
    /// failed operation: every later analysis would read a lossy trace.
    fn run_traced(&self, ctx: &mut Ctx) -> Result<(), Failed> {
        let sink = TraceSink::Ring {
            capacity: self.ring_capacity,
        };
        const SPAN: &str = "hetero-rt.run_traced";
        let report = self.run(SPAN, sink, ctx)?;
        let trace = report.trace.as_ref();
        let overwritten = trace.map(hetero_trace::RunTrace::overwritten);
        ctx.check(overwritten == Some(0), || {
            format!("ring sink overwrote events: {overwritten:?}")
        });
        ctx.count("hetero-trace.overwritten", || {
            overwritten.unwrap_or(0) as f64
        });
        ctx.count("hetero-trace.events", || {
            trace.map_or(0, hetero_trace::RunTrace::total_events) as f64
        });
        ctx.release(SPAN, report);
        Ok(())
    }
}

/// The thread engine used with tracing on; against `execute_forkjoin`'s
/// legacy path it is the cost of watching.
pub struct ExecuteTraced;

impl Workload for ExecuteTraced {
    type Inputs = TracedInputs;
    const NAME: &'static str = "execute_traced";
    const UNIT: &'static str = "executed task";

    fn setup(_seed: u64, _pins: &mut Vec<String>) -> TracedInputs {
        let tasks = STAGES * (WIDTH + 1);
        TracedInputs::new(WIDTH, STAGES, RING_EVENTS_PER_TASK * tasks)
    }

    fn units(inputs: &TracedInputs) -> usize {
        inputs.graph.len()
    }

    fn pass(inputs: &TracedInputs, ctx: &mut Ctx) -> Result<(), Failed> {
        inputs.run_traced(ctx)
    }

    /// The same tasks with the sink off, alternating with traced runs: the
    /// base of `hetero-trace.ring_overhead_pct`.
    fn probes(inputs: &TracedInputs, ctx: &mut Ctx) -> Result<(), Failed> {
        ctx.probe_rounds(PROBE_ROUNDS, |ctx| {
            const SPAN: &str = "hetero-rt.run_tasks";
            let report = inputs.run(SPAN, TraceSink::Null, ctx)?;
            ctx.release(SPAN, report);
            inputs.run_traced(ctx)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossy_ring_is_a_failed_operation() {
        let lossy = TracedInputs::new(8, 40, 16);
        let mut ctx = Ctx::new();
        ExecuteTraced::pass(&lossy, &mut ctx).expect("the run itself succeeds");
        assert_eq!(ctx.failed, 1, "{:?}", ctx.failure_notes);
        assert!(ctx.failure_notes[0].contains("overwrote"));
    }

    #[test]
    fn ample_ring_passes_every_check() {
        let ample = TracedInputs::new(8, 40, RING_EVENTS_PER_TASK * 8 * 41);
        let mut ctx = Ctx::new();
        ExecuteTraced::pass(&ample, &mut ctx).expect("the run succeeds");
        assert_eq!(ctx.failed, 0, "{:?}", ctx.failure_notes);
        assert!(ctx.attempted >= 3);
    }
}
