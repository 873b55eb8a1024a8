//! Guards `hetero_trace::codec::{export, parse}`, `hetero_trace::chrome::export` and `hetero_trace::json::Json::to_pretty`; goes when they do.
//!
//! The tree-building codec, Chrome exporter and tree printer these paths
//! replaced, kept as they were (every integer through `Json::Num(x as f64)`)
//! as the reference the streaming paths are held to.
//!
//! One deliberate difference, so that everything else can be compared: the
//! tree decoder let `as_u64` saturate numbers of 2^64 and above and cut
//! indices to 32 bits with `as`; the streaming decoder rejects both, and
//! [`as_u64`] / [`index`] here read them as absent, which rejects them too.

use hetero_trace::json::Json;
use hetero_trace::{
    EventKind, EventLog, LaneLabel, Provenance, RunTrace, TaskTable, TimeUnit, TraceEvent,
    TraceMeta, WorkerTrace,
};
use std::fmt;

/// `Json::to_pretty` as the tree printed it before the writer existed.
pub(crate) fn to_pretty(value: &Json) -> String {
    let mut out = String::new();
    write_pretty(value, &mut out, 0);
    out.push('\n');
    out
}

/// `Json`'s `Display` as the tree printed it before the writer existed.
pub(crate) fn to_compact(value: &Json) -> String {
    let mut out = String::new();
    write(value, &mut out);
    out
}

fn write(value: &Json, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => write_num(*n, out),
        Json::Str(s) => write_str(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write(item, out);
            }
            out.push(']');
        }
        Json::Obj(members) => {
            out.push('{');
            for (i, (k, v)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_str(k, out);
                out.push(':');
                write(v, out);
            }
            out.push('}');
        }
    }
}

fn write_pretty(value: &Json, out: &mut String, indent: usize) {
    match value {
        Json::Arr(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(out, indent + 1);
                write_pretty(item, out, indent + 1);
            }
            out.push('\n');
            push_indent(out, indent);
            out.push(']');
        }
        Json::Obj(members) if !members.is_empty() => {
            out.push_str("{\n");
            for (i, (k, v)) in members.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(out, indent + 1);
                write_str(k, out);
                out.push_str(": ");
                write_pretty(v, out, indent + 1);
            }
            out.push('\n');
            push_indent(out, indent);
            out.push('}');
        }
        other => write(other, out),
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_num(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null"); // JSON has no NaN/Inf
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        let _ = fmt::Write::write_fmt(out, format_args!("{}", n as i64));
    } else {
        let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Encodes a trace (plus optional dependency edges) as a JSON value.
pub(crate) fn codec_to_json(trace: &RunTrace, deps: &[(u32, u32)]) -> Json {
    let lanes = trace
        .meta
        .lanes
        .iter()
        .map(|l| {
            Json::obj([
                ("name", Json::str(l.name.clone())),
                (
                    "group",
                    l.group.clone().map(Json::Str).unwrap_or(Json::Null),
                ),
            ])
        })
        .collect();
    let tasks = trace
        .meta
        .tasks
        .iter()
        .map(|t| {
            Json::obj([
                ("label", Json::str(t.label)),
                ("category", Json::str(t.category)),
                ("group", t.group.map(Json::str).unwrap_or(Json::Null)),
            ])
        })
        .collect();
    let workers = trace
        .workers
        .iter()
        .map(|w| {
            Json::obj([
                ("worker", Json::Num(w.worker as f64)),
                ("overwritten", Json::Num(w.overwritten as f64)),
                (
                    "events",
                    Json::Arr(w.events.iter().flat_map(|e| events_to_json(&e)).collect()),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("kind", Json::str("hetero-trace-run")),
        (
            "meta",
            Json::obj([
                (
                    "platform",
                    trace
                        .meta
                        .platform
                        .clone()
                        .map(Json::Str)
                        .unwrap_or(Json::Null),
                ),
                ("time_unit", Json::str(trace.meta.time_unit.label())),
                ("lanes", Json::Arr(lanes)),
                ("tasks", Json::Arr(tasks)),
            ]),
        ),
        (
            "deps",
            Json::Arr(
                deps.iter()
                    .map(|(from, to)| {
                        Json::Arr(vec![Json::Num(*from as f64), Json::Num(*to as f64)])
                    })
                    .collect(),
            ),
        ),
        (
            "prelude",
            Json::Arr(
                trace
                    .prelude
                    .iter()
                    .flat_map(|e| events_to_json(&e))
                    .collect(),
            ),
        ),
        ("workers", Json::Arr(workers)),
    ])
}

/// The events a record is written as: a run is its claim (when known),
/// start and end.
fn events_to_json(e: &TraceEvent) -> Vec<Json> {
    let event = |ts: u64, ev: &str, task: Option<u32>| {
        let mut members = vec![
            ("ts".to_string(), Json::Num(ts as f64)),
            ("ev".to_string(), Json::str(ev)),
        ];
        members.extend(task.map(|task| ("task".to_string(), Json::Num(task as f64))));
        members
    };
    let with = |mut members: Vec<(String, Json)>, more: Vec<(&str, Json)>| {
        members.extend(more.into_iter().map(|(k, v)| (k.to_string(), v)));
        Json::Obj(members)
    };
    match &e.kind {
        EventKind::TaskReady { task } => vec![Json::Obj(event(e.ts, "ready", Some(*task)))],
        EventKind::TaskRun {
            task,
            end,
            provenance,
        } => {
            let claim = provenance.map(|p| {
                let prov = match p {
                    Provenance::Local => vec![("prov", Json::str("local"))],
                    Provenance::Queue => vec![("prov", Json::str("queue"))],
                    Provenance::Inject { cross_group } => vec![
                        ("prov", Json::str("inject")),
                        ("cross_group", Json::Bool(cross_group)),
                    ],
                    Provenance::Steal {
                        victim,
                        cross_group,
                    } => vec![
                        ("prov", Json::str("steal")),
                        ("victim", Json::Num(victim as f64)),
                        ("cross_group", Json::Bool(cross_group)),
                    ],
                };
                with(event(e.ts, "dequeue", Some(*task)), prov)
            });
            let span = [
                Json::Obj(event(e.ts, "start", Some(*task))),
                Json::Obj(event(*end, "end", Some(*task))),
            ];
            claim.into_iter().chain(span).collect()
        }
        EventKind::Park => vec![Json::Obj(event(e.ts, "park", None))],
        EventKind::Unpark => vec![Json::Obj(event(e.ts, "unpark", None))],
        EventKind::PhaseStart { name } => vec![with(
            event(e.ts, "phase_start", None),
            vec![("name", Json::str(name.clone()))],
        )],
        EventKind::PhaseEnd { name } => vec![with(
            event(e.ts, "phase_end", None),
            vec![("name", Json::str(name.clone()))],
        )],
    }
}

/// No `f64` is `u64::MAX` itself, so that value marks a saturated number.
fn as_u64(v: &Json) -> Option<u64> {
    v.as_u64().filter(|&n| n != u64::MAX)
}

fn index(n: u64) -> Result<u32, String> {
    u32::try_from(n).map_err(|_| "missing numeric index".to_string())
}

fn field_u64(v: &Json, key: &str, what: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(as_u64)
        .ok_or_else(|| format!("{what}: missing numeric \"{key}\""))
}

fn field_str<'a>(v: &'a Json, key: &str, what: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{what}: missing string \"{key}\""))
}

fn opt_str(v: &Json, key: &str) -> Option<String> {
    v.get(key).and_then(Json::as_str).map(str::to_string)
}

/// One event of a lane as the document spells it.
enum Raw {
    Record(TraceEvent),
    Claim(u32, Provenance),
    Start(u64, u32),
    End(u64, u32),
}

fn event_from_json(v: &Json) -> Result<Raw, String> {
    let ts = field_u64(v, "ts", "event")?;
    let ev = field_str(v, "ev", "event")?;
    let task = || field_u64(v, "task", "event").and_then(index);
    let kind = match ev {
        "ready" => EventKind::TaskReady { task: task()? },
        "start" => return Ok(Raw::Start(ts, task()?)),
        "end" => return Ok(Raw::End(ts, task()?)),
        "park" => EventKind::Park,
        "unpark" => EventKind::Unpark,
        "phase_start" => EventKind::PhaseStart {
            name: field_str(v, "name", "phase event")?.to_string(),
        },
        "phase_end" => EventKind::PhaseEnd {
            name: field_str(v, "name", "phase event")?.to_string(),
        },
        "dequeue" => {
            let cross_group = || v.get("cross_group").map(|b| b == &Json::Bool(true));
            let provenance = match field_str(v, "prov", "dequeue event")? {
                "local" => Provenance::Local,
                "queue" => Provenance::Queue,
                "inject" => Provenance::Inject {
                    cross_group: cross_group().unwrap_or(false),
                },
                "steal" => Provenance::Steal {
                    victim: index(field_u64(v, "victim", "steal event")?)?,
                    cross_group: cross_group().unwrap_or(false),
                },
                other => return Err(format!("unknown provenance {other:?}")),
            };
            return Ok(Raw::Claim(task()?, provenance));
        }
        other => return Err(format!("unknown event kind {other:?}")),
    };
    Ok(Raw::Record(TraceEvent { ts, kind }))
}

/// A lane's events, decoded whole, then paired into runs: a claim with
/// the next start if that is of its task, a start with the next end if no
/// claim or start comes first; a run is recorded at its end. What does not
/// pair is an error on a `lossless` lane and left out on any other.
fn lane_from_json(events: &[Json], lossless: bool) -> Result<EventLog, String> {
    let raw = events
        .iter()
        .map(event_from_json)
        .collect::<Result<Vec<_>, String>>()?;
    let mut out: Vec<TraceEvent> = Vec::new();
    let mut unpaired = 0;
    // The task event before this one, if it opened a run not yet ended.
    let mut open: Option<&Raw> = None;
    for (at, event) in raw.iter().enumerate() {
        match event {
            Raw::Record(record) => out.push(record.clone()),
            Raw::Claim(..) => unpaired += usize::from(open.replace(event).is_some()),
            Raw::Start(_, task) => match open.replace(event) {
                Some(Raw::Claim(claimed, _)) if claimed == task => {}
                Some(_) => unpaired += 1,
                None => {}
            },
            Raw::End(end, task) => match open {
                Some(Raw::Start(ts, started)) if started == task => {
                    let kind = EventKind::TaskRun {
                        task: *task,
                        end: *end,
                        provenance: claim_of(&raw, at),
                    };
                    out.push(TraceEvent { ts: *ts, kind });
                    open = None;
                }
                _ => unpaired += 1,
            },
        }
    }
    unpaired += usize::from(open.is_some());
    if lossless && unpaired > 0 {
        return Err(format!("{unpaired} task events do not pair"));
    }
    Ok(out.into())
}

/// The claim of the run that the end at `at` closes: the last task event
/// before that run's start, if it claims the same task.
fn claim_of(raw: &[Raw], at: usize) -> Option<Provenance> {
    let mut task_events = raw[..at]
        .iter()
        .rev()
        .filter(|e| !matches!(e, Raw::Record(_)));
    let Some(Raw::Start(_, task)) = task_events.next() else {
        return None;
    };
    match task_events.next() {
        Some(Raw::Claim(claimed, p)) if claimed == task => Some(*p),
        _ => None,
    }
}

/// The decoder: a whole-document `Json::parse`, then lookups by key.
pub(crate) fn codec_parse(text: &str) -> Result<(RunTrace, Vec<(u32, u32)>), String> {
    let mut rest = text;
    loop {
        let trimmed = rest.trim_start();
        if let Some(line) = trimmed.strip_prefix("//") {
            rest = line.split_once('\n').map(|(_, r)| r).unwrap_or("");
        } else {
            rest = trimmed;
            break;
        }
    }
    let doc = Json::parse(rest).map_err(|e| format!("trace json: {e}"))?;
    if doc.get("kind").and_then(Json::as_str) != Some("hetero-trace-run") {
        return Err("not a hetero-trace-run document".to_string());
    }
    let meta_v = doc.get("meta").ok_or("missing \"meta\"")?;
    let time_unit = match meta_v.get("time_unit").and_then(Json::as_str) {
        Some(label) => {
            TimeUnit::from_label(label).ok_or_else(|| format!("unknown time unit {label:?}"))?
        }
        None => TimeUnit::default(),
    };
    let lanes = meta_v
        .get("lanes")
        .map(Json::items)
        .unwrap_or_default()
        .iter()
        .map(|l| {
            Ok(LaneLabel {
                name: field_str(l, "name", "lane")?.to_string(),
                group: opt_str(l, "group"),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut tasks = TaskTable::default();
    for t in meta_v.get("tasks").map(Json::items).unwrap_or_default() {
        let category = opt_str(t, "category");
        let group = opt_str(t, "group");
        tasks.push(
            field_str(t, "label", "task")?,
            category.as_deref().unwrap_or("task"),
            group.as_deref(),
        );
    }
    let prelude = lane_from_json(
        doc.get("prelude").map(Json::items).unwrap_or_default(),
        true,
    )?;
    let workers = doc
        .get("workers")
        .map(Json::items)
        .unwrap_or_default()
        .iter()
        .map(|w| {
            let overwritten = field_u64(w, "overwritten", "worker lane").unwrap_or(0);
            let events = w.get("events").map(Json::items).unwrap_or_default();
            Ok(WorkerTrace {
                worker: field_u64(w, "worker", "worker lane")? as usize,
                overwritten,
                events: lane_from_json(events, overwritten == 0)?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let deps = doc
        .get("deps")
        .map(Json::items)
        .unwrap_or_default()
        .iter()
        .map(|pair| {
            let items = pair.items();
            match (
                items.first().and_then(as_u64).map(index),
                items.get(1).and_then(as_u64).map(index),
            ) {
                (Some(Ok(from)), Some(Ok(to))) => Ok((from, to)),
                _ => Err("deps entries must be [from, to] index pairs".to_string()),
            }
        })
        .collect::<Result<Vec<_>, String>>()?;
    let trace = RunTrace {
        meta: TraceMeta {
            platform: meta_v
                .get("platform")
                .and_then(Json::as_str)
                .map(str::to_string),
            lanes,
            tasks,
            time_unit,
        },
        prelude,
        workers,
    };
    // No task runs twice on the lanes that lost nothing.
    let mut ran = std::collections::HashSet::new();
    let lossless = trace.workers.iter().filter(|w| w.overwritten == 0);
    for e in lossless
        .flat_map(|w| w.events.iter())
        .chain(trace.prelude.iter())
    {
        if let EventKind::TaskRun { task, .. } = e.kind {
            if !ran.insert(task) {
                return Err(format!("task {task} started twice"));
            }
        }
    }
    Ok((trace, deps))
}

// Chrome-reserved color names, assigned per logic group in first-seen
// order. (`cname` values must come from Chrome's fixed palette.)
const GROUP_COLORS: [&str; 8] = [
    "thread_state_running",
    "rail_response",
    "cq_build_running",
    "thread_state_runnable",
    "rail_animation",
    "thread_state_iowait",
    "rail_idle",
    "generic_work",
];

fn us(ns: u64) -> Json {
    Json::Num(ns as f64 / 1000.0)
}

/// The Chrome-trace document as a [`Json`] value.
pub(crate) fn chrome_to_json(trace: &RunTrace) -> Json {
    let mut events: Vec<Json> = Vec::new();
    let pid = Json::Num(0.0);

    // Process metadata: name the process after the platform descriptor.
    let process_name = match (&trace.meta.platform, trace.meta.time_unit) {
        (Some(p), TimeUnit::RealNanos) => p.clone(),
        (Some(p), TimeUnit::VirtualNanos) => format!("{p} (virtual time)"),
        (None, _) => "hetero-rt".to_string(),
    };
    events.push(Json::obj([
        ("name", Json::str("process_name")),
        ("ph", Json::str("M")),
        ("pid", pid.clone()),
        ("args", Json::obj([("name", Json::str(process_name))])),
    ]));

    // Color assignment: one palette entry per distinct logic group, in
    // lane order.
    let mut colors: std::collections::BTreeMap<&str, &'static str> = Default::default();
    for lane in &trace.meta.lanes {
        if let Some(g) = lane.group.as_deref() {
            let next = GROUP_COLORS[colors.len() % GROUP_COLORS.len()];
            colors.entry(g).or_insert(next);
        }
    }
    let group_color = |group: Option<&str>| -> Option<&'static str> {
        group.and_then(|g| colors.get(g).copied())
    };

    // One lane per worker, named with its PDL identity; ordered by index.
    let run_lane = trace.meta.lanes.len().max(trace.workers.len());
    let lane_name = |worker: usize| -> String {
        match trace.meta.lanes.get(worker) {
            Some(l) => match &l.group {
                Some(g) => format!("{} [{g}]", l.name),
                None => l.name.clone(),
            },
            None if worker == run_lane => "run".to_string(),
            None => format!("w{worker}"),
        }
    };
    for worker in (0..run_lane).chain(std::iter::once(run_lane)) {
        events.push(Json::obj([
            ("name", Json::str("thread_name")),
            ("ph", Json::str("M")),
            ("pid", pid.clone()),
            ("tid", Json::Num(worker as f64)),
            ("args", Json::obj([("name", Json::str(lane_name(worker)))])),
        ]));
    }

    // Task spans ("X" complete events), colored by the lane's logic group.
    for span in trace.task_spans() {
        let info = trace.meta.tasks.get(span.task as usize);
        let lane_group = trace
            .meta
            .lanes
            .get(span.worker)
            .and_then(|l| l.group.as_deref());
        let mut args = vec![("task".to_string(), Json::Num(span.task as f64))];
        if let Some(g) = lane_group {
            args.push(("group".to_string(), Json::str(g)));
        }
        if let Some(p) = span.provenance {
            args.push(("provenance".to_string(), Json::str(p.label())));
            if let Provenance::Steal { victim, .. } = p {
                args.push(("victim".to_string(), Json::Num(victim as f64)));
            }
        }
        let mut members = vec![
            (
                "name".to_string(),
                Json::str(info.map(|i| i.label).unwrap_or("task")),
            ),
            (
                "cat".to_string(),
                Json::str(info.map(|i| i.category).unwrap_or("task")),
            ),
            ("ph".to_string(), Json::str("X")),
            ("ts".to_string(), us(span.start)),
            ("dur".to_string(), us(span.end - span.start)),
            ("pid".to_string(), pid.clone()),
            ("tid".to_string(), Json::Num(span.worker as f64)),
            ("args".to_string(), Json::Obj(args)),
        ];
        if let Some(color) = group_color(lane_group) {
            members.push(("cname".to_string(), Json::str(color)));
        }
        events.push(Json::Obj(members));
    }

    // Phase spans and instant markers, per lane (prelude = the run lane).
    let lanes = trace
        .workers
        .iter()
        .map(|w| (w.worker, &w.events))
        .chain(std::iter::once((run_lane, &trace.prelude)));
    for (worker, lane_events) in lanes {
        let tid = Json::Num(worker as f64);
        let lane_events: Vec<TraceEvent> = lane_events.iter().collect();
        let mut open_phases: Vec<(&str, u64)> = Vec::new();
        for e in &lane_events {
            match &e.kind {
                EventKind::PhaseStart { name } => open_phases.push((name, e.ts)),
                EventKind::PhaseEnd { name } => {
                    if let Some(pos) = open_phases.iter().rposition(|(n, _)| n == name) {
                        let (name, start) = open_phases.remove(pos);
                        events.push(Json::obj([
                            ("name", Json::str(name)),
                            ("cat", Json::str("phase")),
                            ("ph", Json::str("X")),
                            ("ts", us(start)),
                            ("dur", us(e.ts - start)),
                            ("pid", pid.clone()),
                            ("tid", tid.clone()),
                        ]));
                    }
                }
                EventKind::Park | EventKind::Unpark => {
                    events.push(Json::obj([
                        (
                            "name",
                            Json::str(if e.kind == EventKind::Park {
                                "park"
                            } else {
                                "unpark"
                            }),
                        ),
                        ("cat", Json::str("scheduler")),
                        ("ph", Json::str("i")),
                        ("s", Json::str("t")),
                        ("ts", us(e.ts)),
                        ("pid", pid.clone()),
                        ("tid", tid.clone()),
                    ]));
                }
                _ => {}
            }
        }
    }

    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
        (
            "otherData",
            Json::obj([
                (
                    "platform",
                    match &trace.meta.platform {
                        Some(p) => Json::str(p.clone()),
                        None => Json::Null,
                    },
                ),
                ("timeUnit", Json::str(trace.meta.time_unit.label())),
                ("generator", Json::str("hetero-trace")),
            ]),
        ),
    ])
}
