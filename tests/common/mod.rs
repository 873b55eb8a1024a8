//! Trace generators shared by the trace test binaries (`trace_invariants`,
//! `trace_codec_oracle`).
#![allow(dead_code)]

use hetero_trace::{
    EventKind, LaneLabel, Provenance, RunTrace, TaskTable, TimeUnit, TraceEvent, TraceMeta,
    WorkerTrace,
};

/// Dependency edges in codec orientation.
pub(crate) type Deps = Vec<(u32, u32)>;

/// What `proptest` draws for [`span_trace`]: per worker an `overwritten`
/// tally and its `(gap, duration)` spans.
pub(crate) type WorkerSpans = Vec<(u64, Vec<(u64, u64)>)>;

/// A labelled trace of back-to-back task spans, possibly lossy, with
/// dependency edges folded into the task range.
pub(crate) fn span_trace(worker_spans: &WorkerSpans, dep_seeds: &[(u32, u32)]) -> (RunTrace, Deps) {
    let mut tasks = TaskTable::default();
    let mut workers = Vec::new();
    let mut lanes = Vec::new();
    for (w, (overwritten, spans)) in worker_spans.iter().enumerate() {
        lanes.push(LaneLabel {
            name: format!("cpu{w}"),
            group: (w % 2 == 0).then(|| "cpus".to_string()),
        });
        let mut events = Vec::new();
        let mut ts = 0u64;
        for &(gap, dur) in spans {
            let task = tasks.len() as u32;
            tasks.push(&format!("t{task}"), "task", None);
            ts += gap;
            let end = ts + dur;
            events.push(TraceEvent {
                ts,
                kind: EventKind::TaskRun {
                    task,
                    end,
                    provenance: None,
                },
            });
            ts = end;
        }
        workers.push(WorkerTrace {
            worker: w,
            events: events.into(),
            overwritten: *overwritten,
        });
    }
    let n = tasks.len() as u32;
    let deps: Deps = dep_seeds
        .iter()
        .filter(|_| n > 0)
        .map(|&(a, b)| (a % n, b % n))
        .collect();
    let trace = RunTrace {
        meta: TraceMeta {
            platform: Some("prop-machine".to_string()),
            lanes,
            tasks,
            ..Default::default()
        },
        prelude: Default::default(),
        workers,
    };
    (trace, deps)
}

/// A small deterministic generator (splitmix64) for decisions derived from
/// one drawn seed.
pub(crate) struct Rng(pub u64);

impl Rng {
    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub(crate) fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub(crate) fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }

    pub(crate) fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    pub(crate) fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Strings a writer has to escape and a reader has to give back: quotes,
/// backslashes, every short escape, other control characters, non-ASCII of
/// two to four bytes, and the empty string.
pub(crate) const AWKWARD: [&str; 12] = [
    "",
    "plain",
    "quo\"te",
    "back\\slash \\n",
    "line\nbreak\r\n",
    "tab\there",
    "ctl\u{1}\u{8}\u{c}\u{1f}",
    "del\u{7f}/slash",
    "naïve — ünï",
    "日本語のラベル",
    "emoji 🎉 #2",
    "gpu0 [gpus]",
];

/// Decorates a [`span_trace`] with everything else the format carries:
/// awkward labels, categories and groups, an absent platform, virtual
/// time, lanes without events or without a label, ready events, runs
/// claimed with every provenance, park markers and phases (nested, on lanes
/// and in the prelude, now and then unbalanced).
pub(crate) fn enrich(trace: &mut RunTrace, seed: u64) {
    let rng = &mut Rng(seed);
    let name = |rng: &mut Rng| (*rng.pick(&AWKWARD)).to_string();

    if rng.one_in(3) {
        trace.meta.platform = rng.one_in(2).then(|| name(rng));
    }
    if rng.one_in(2) {
        trace.meta.time_unit = TimeUnit::VirtualNanos;
    }
    let tasks = std::mem::take(&mut trace.meta.tasks);
    for task in tasks.iter() {
        let label = if rng.one_in(3) {
            name(rng)
        } else {
            task.label.to_string()
        };
        let category = if rng.one_in(4) {
            *rng.pick(&["transfer", "", "ta\"sk"])
        } else {
            task.category
        };
        let group = if rng.one_in(4) {
            Some(name(rng))
        } else {
            task.group.map(str::to_string)
        };
        trace.meta.tasks.push(&label, category, group.as_deref());
    }
    for lane in &mut trace.meta.lanes {
        if rng.one_in(4) {
            lane.name = name(rng);
        }
        if rng.one_in(5) {
            lane.group = Some((*rng.pick(&["links", "gpus", "g\\1"])).to_string());
        }
    }

    let lane_count = trace.workers.len() as u32;
    for w in &mut trace.workers {
        let mut events = Vec::with_capacity(w.events.len() * 2);
        let mut phases: Vec<String> = Vec::new();
        for e in w.events.iter() {
            let ts = e.ts;
            let mut push = |kind| events.push(TraceEvent { ts, kind });
            let mut kind = e.kind;
            if let EventKind::TaskRun {
                task,
                ref mut provenance,
                ..
            } = kind
            {
                if rng.one_in(3) {
                    push(EventKind::TaskReady { task });
                }
                if rng.one_in(2) {
                    let victim = rng.next() as u32 % lane_count;
                    *provenance = Some(*rng.pick(&[
                        Provenance::Local,
                        Provenance::Queue,
                        Provenance::Inject { cross_group: false },
                        Provenance::Inject { cross_group: true },
                        Provenance::Steal {
                            victim,
                            cross_group: false,
                        },
                        Provenance::Steal {
                            victim,
                            cross_group: true,
                        },
                    ]));
                }
                if rng.one_in(6) {
                    phases.push(name(rng));
                    push(EventKind::PhaseStart {
                        name: phases.last().expect("just pushed").clone(),
                    });
                }
            }
            let ran = matches!(kind, EventKind::TaskRun { .. });
            let end = match kind {
                EventKind::TaskRun { end, .. } => end,
                _ => ts,
            };
            push(kind);
            let mut push = |kind| events.push(TraceEvent { ts: end, kind });
            if ran {
                if rng.one_in(4) {
                    if let Some(name) = phases.pop() {
                        push(EventKind::PhaseEnd { name });
                    }
                }
                if rng.one_in(4) {
                    push(EventKind::Park);
                    if !rng.one_in(4) {
                        push(EventKind::Unpark);
                    }
                }
            }
        }
        // Most phases close (in LIFO order); now and then one stays open.
        let ts = events.last().map_or(0, |e| match e.kind {
            EventKind::TaskRun { end, .. } => end,
            _ => e.ts,
        });
        while let Some(name) = phases.pop() {
            if !rng.one_in(5) {
                events.push(TraceEvent {
                    ts,
                    kind: EventKind::PhaseEnd { name },
                });
            }
        }
        w.events = events.into();
    }

    let tasks = trace.meta.tasks.len() as u32;
    if rng.one_in(2) {
        trace.prelude.push(TraceEvent {
            ts: 0,
            kind: EventKind::PhaseStart {
                name: "execute".to_string(),
            },
        });
    }
    for task in 0..tasks {
        if rng.one_in(3) {
            trace.prelude.push(TraceEvent {
                ts: u64::from(task),
                kind: EventKind::TaskReady { task },
            });
        }
    }
    if matches!(
        trace.prelude.iter().next().map(|e| e.kind),
        Some(EventKind::PhaseStart { .. })
    ) {
        trace.prelude.push(TraceEvent {
            ts: u64::from(tasks) + 1,
            kind: EventKind::PhaseEnd {
                name: (*rng.pick(&["execute", "other"])).to_string(),
            },
        });
    }

    // A lane that recorded nothing, and a lane the lane table does not name.
    if rng.one_in(3) {
        let at = rng.below(trace.workers.len() + 1);
        trace.workers.insert(
            at,
            WorkerTrace {
                worker: trace.workers.len() + rng.below(3),
                events: Default::default(),
                overwritten: 0,
            },
        );
    }
    if rng.one_in(4) {
        trace.meta.lanes.pop();
    }
}
