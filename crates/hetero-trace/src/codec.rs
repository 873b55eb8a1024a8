//! Full-fidelity JSON round-trip for a [`RunTrace`] — the on-disk format
//! consumed by `pdl profile` and the `T00x` trace analyzers.
//!
//! Unlike the Chrome export (lossy, viewer-oriented) and the run summary
//! (aggregated), this codec preserves every event, so a trace written by
//! one tool can be re-analyzed by another. The document may carry an
//! optional top-level `"deps"` array of `[from, to]` task-index pairs
//! (task `to` depends on task `from`); the critical-path profiler uses
//! those edges when the task graph is not available in-process.
//!
//! [`parse`] skips leading `//` comment lines, so fixture files can carry
//! `// expect[...]:` annotation headers for the analyzer corpus.

use crate::event::{EventKind, Provenance, TraceEvent};
use crate::json::{JsonError, Kind, Reader, Writer};
use crate::labels::TaskTable;
use crate::log::EventLog;
use crate::trace::{LaneLabel, RunTrace, TimeUnit, TraceMeta, WorkerTrace};
use std::borrow::Cow;

/// Encodes a trace (plus optional dependency edges) as a pretty-printed
/// JSON string. Timestamps and counts are written digit for digit.
pub fn export(trace: &RunTrace, deps: &[(u32, u32)]) -> String {
    // About 100 bytes an event, 100 a task and 40 an edge in this layout.
    let mut w = Writer::pretty(
        104 * trace.total_events() + 100 * trace.meta.tasks.len() + 40 * deps.len() + 1024,
    );
    w.begin_obj();
    w.key("kind").str("hetero-trace-run");
    w.key("meta").begin_obj();
    w.key("platform").opt_str(trace.meta.platform.as_deref());
    w.key("time_unit").str(trace.meta.time_unit.label());
    w.key("lanes").begin_arr();
    for l in &trace.meta.lanes {
        w.begin_obj();
        w.key("name").str(&l.name);
        w.key("group").opt_str(l.group.as_deref());
        w.end_obj();
    }
    w.end_arr();
    w.key("tasks").begin_arr();
    for t in trace.meta.tasks.iter() {
        w.begin_obj();
        w.key("label").str(t.label);
        w.key("category").str(t.category);
        w.key("group").opt_str(t.group);
        w.end_obj();
    }
    w.end_arr();
    w.end_obj();
    w.key("deps").begin_arr();
    for &(from, to) in deps {
        w.begin_arr();
        w.u64(u64::from(from));
        w.u64(u64::from(to));
        w.end_arr();
    }
    w.end_arr();
    w.key("prelude");
    write_events(&mut w, &trace.prelude);
    w.key("workers").begin_arr();
    for lane in &trace.workers {
        w.begin_obj();
        w.key("worker").u64(lane.worker as u64);
        w.key("overwritten").u64(lane.overwritten);
        w.key("events");
        write_events(&mut w, &lane.events);
        w.end_obj();
    }
    w.end_arr();
    w.end_obj();
    w.finish()
}

fn write_events(w: &mut Writer, events: &EventLog) {
    w.begin_arr();
    for e in events.iter() {
        w.begin_obj();
        w.key("ts").u64(e.ts);
        let (ev, task) = match &e.kind {
            EventKind::TaskReady { task } => ("ready", Some(*task)),
            EventKind::TaskDequeued { task, .. } => ("dequeue", Some(*task)),
            EventKind::TaskStart { task } => ("start", Some(*task)),
            EventKind::TaskEnd { task } => ("end", Some(*task)),
            EventKind::Park => ("park", None),
            EventKind::Unpark => ("unpark", None),
            EventKind::PhaseStart { .. } => ("phase_start", None),
            EventKind::PhaseEnd { .. } => ("phase_end", None),
        };
        w.key("ev").str(ev);
        if let Some(task) = task {
            w.key("task").u64(u64::from(task));
        }
        match &e.kind {
            EventKind::TaskDequeued { provenance, .. } => match *provenance {
                Provenance::Local => w.key("prov").str("local"),
                Provenance::Queue => w.key("prov").str("queue"),
                Provenance::Inject { cross_group } => {
                    w.key("prov").str("inject");
                    w.key("cross_group").bool(cross_group);
                }
                Provenance::Steal {
                    victim,
                    cross_group,
                } => {
                    w.key("prov").str("steal");
                    w.key("victim").u64(u64::from(victim));
                    w.key("cross_group").bool(cross_group);
                }
            },
            EventKind::PhaseStart { name } | EventKind::PhaseEnd { name } => {
                w.key("name").str(name);
            }
            _ => {}
        }
        w.end_obj();
    }
    w.end_arr();
}

/// Why a document was turned down: its JSON, or what the JSON says.
struct Error(String);

impl From<JsonError> for Error {
    fn from(e: JsonError) -> Self {
        Error(format!("trace json: {e}"))
    }
}

impl From<String> for Error {
    fn from(message: String) -> Self {
        Error(message)
    }
}

fn missing(what: &str, of_type: &str, key: &str) -> Error {
    Error(format!("{what}: missing {of_type} \"{key}\""))
}

/// Reads the members of the next value as a lookup by key would: `member`
/// is called with the reader at the value of the first member named
/// `keys[i]`, for each of `keys` the object has, in document order. Members
/// may come in any order; repeated and unknown ones are passed over, and so
/// is a value that is not an object at all.
fn object<'a>(
    r: &mut Reader<'a>,
    keys: &[&str],
    mut member: impl FnMut(&mut Reader<'a>, usize) -> Result<(), Error>,
) -> Result<(), Error> {
    if r.peek()? != Kind::Obj {
        return Ok(r.skip()?);
    }
    let mut seen = 0u32;
    r.begin_obj()?;
    while let Some(key) = r.next_key()? {
        match keys.iter().position(|k| *k == key) {
            Some(i) if seen & (1 << i) == 0 => {
                seen |= 1 << i;
                member(r, i)?;
            }
            _ => r.skip()?,
        }
    }
    Ok(())
}

/// Reads each element of the next value if it is an array; any other value
/// is passed over and counts as an empty one.
fn each_of<'a>(
    r: &mut Reader<'a>,
    mut element: impl FnMut(&mut Reader<'a>) -> Result<(), Error>,
) -> Result<(), Error> {
    if r.peek()? != Kind::Arr {
        return Ok(r.skip()?);
    }
    r.begin_arr()?;
    while r.next_elem()? {
        element(r)?;
    }
    Ok(())
}

/// The elements [`each_of`] reads, collected.
fn array_of<'a, T>(
    r: &mut Reader<'a>,
    mut element: impl FnMut(&mut Reader<'a>) -> Result<T, Error>,
) -> Result<Vec<T>, Error> {
    let mut out = Vec::new();
    each_of(r, |r| {
        out.push(element(r)?);
        Ok(())
    })?;
    Ok(out)
}

fn read_events(r: &mut Reader<'_>) -> Result<EventLog, Error> {
    let mut out = EventLog::new();
    each_of(r, |r| {
        out.push(read_event(r)?);
        Ok(())
    })?;
    Ok(out)
}

/// The next value if it is a string; any other value is passed over and
/// counts as absent.
fn opt_str<'a>(r: &mut Reader<'a>) -> Result<Option<Cow<'a, str>>, JsonError> {
    if r.peek()? == Kind::Str {
        r.str().map(Some)
    } else {
        r.skip().map(|()| None)
    }
}

/// The next value if it is an integer a `u64` holds exactly; anything else
/// (a fraction, a negative, a string) is passed over and counts as absent.
fn opt_u64(r: &mut Reader<'_>) -> Result<Option<u64>, JsonError> {
    if r.peek()? == Kind::Num {
        r.u64()
    } else {
        r.skip().map(|()| None)
    }
}

fn owned(s: Option<Cow<'_, str>>) -> Option<String> {
    s.map(Cow::into_owned)
}

fn read_event(r: &mut Reader<'_>) -> Result<TraceEvent, Error> {
    let (mut ts, mut task, mut victim) = (None, None, None);
    let (mut ev, mut prov, mut name) = (None, None, None);
    let mut cross_group = false;
    let keys = ["ts", "ev", "task", "prov", "victim", "name", "cross_group"];
    object(r, &keys, |r, key| {
        match key {
            0 => ts = opt_u64(r)?,
            1 => ev = opt_str(r)?,
            2 => task = opt_u64(r)?,
            3 => prov = opt_str(r)?,
            4 => victim = opt_u64(r)?,
            5 => name = opt_str(r)?,
            _ if r.peek()? == Kind::Bool => cross_group = r.bool()?,
            _ => r.skip()?,
        }
        Ok(())
    })?;
    let ts = ts.ok_or_else(|| missing("event", "numeric", "ts"))?;
    let ev = ev.ok_or_else(|| missing("event", "string", "ev"))?;
    let task = || {
        task.and_then(|t| u32::try_from(t).ok())
            .ok_or_else(|| missing("event", "numeric", "task"))
    };
    let phase_name = || owned(name).ok_or_else(|| missing("phase event", "string", "name"));
    let kind = match &*ev {
        "ready" => EventKind::TaskReady { task: task()? },
        "start" => EventKind::TaskStart { task: task()? },
        "end" => EventKind::TaskEnd { task: task()? },
        "park" => EventKind::Park,
        "unpark" => EventKind::Unpark,
        "phase_start" => EventKind::PhaseStart {
            name: phase_name()?,
        },
        "phase_end" => EventKind::PhaseEnd {
            name: phase_name()?,
        },
        "dequeue" => {
            let prov = prov.ok_or_else(|| missing("dequeue event", "string", "prov"))?;
            let provenance = match &*prov {
                "local" => Provenance::Local,
                "queue" => Provenance::Queue,
                "inject" => Provenance::Inject { cross_group },
                "steal" => Provenance::Steal {
                    victim: victim
                        .and_then(|v| u32::try_from(v).ok())
                        .ok_or_else(|| missing("steal event", "numeric", "victim"))?,
                    cross_group,
                },
                other => return Err(format!("unknown provenance {other:?}").into()),
            };
            EventKind::TaskDequeued {
                task: task()?,
                provenance,
            }
        }
        other => return Err(format!("unknown event kind {other:?}").into()),
    };
    Ok(TraceEvent { ts, kind })
}

fn read_lane(r: &mut Reader<'_>) -> Result<LaneLabel, Error> {
    let (mut name, mut group) = (None, None);
    object(r, &["name", "group"], |r, key| {
        *(if key == 0 { &mut name } else { &mut group }) = owned(opt_str(r)?);
        Ok(())
    })?;
    Ok(LaneLabel {
        name: name.ok_or_else(|| missing("lane", "string", "name"))?,
        group,
    })
}

/// Appends the next task to `tasks`.
fn read_task(r: &mut Reader<'_>, tasks: &mut TaskTable) -> Result<(), Error> {
    let mut fields = [None, None, None];
    object(r, &["label", "category", "group"], |r, key| {
        fields[key] = opt_str(r)?;
        Ok(())
    })?;
    let [label, category, group] = fields;
    let label = label.ok_or_else(|| missing("task", "string", "label"))?;
    tasks
        .try_push(
            &label,
            category.as_deref().unwrap_or("task"),
            group.as_deref(),
        )
        .map_err(|_| Error("task: table text passes 4 GiB".to_string()))
}

fn read_worker(r: &mut Reader<'_>) -> Result<WorkerTrace, Error> {
    let (mut worker, mut overwritten, mut events) = (None, None, EventLog::new());
    object(r, &["worker", "overwritten", "events"], |r, key| {
        match key {
            0 => worker = opt_u64(r)?,
            1 => overwritten = opt_u64(r)?,
            _ => events = read_events(r)?,
        }
        Ok(())
    })?;
    Ok(WorkerTrace {
        worker: worker
            .and_then(|w| usize::try_from(w).ok())
            .ok_or_else(|| missing("worker lane", "numeric", "worker"))?,
        overwritten: overwritten.unwrap_or(0),
        events,
    })
}

fn read_dep(r: &mut Reader<'_>) -> Result<(u32, u32), Error> {
    let mut ends = [None; 2];
    if r.peek()? == Kind::Arr {
        let mut at = 0;
        r.begin_arr()?;
        while r.next_elem()? {
            match ends.get_mut(at) {
                Some(end) => *end = opt_u64(r)?.and_then(|n| u32::try_from(n).ok()),
                None => r.skip()?,
            }
            at += 1;
        }
    }
    match ends {
        [Some(from), Some(to)] => Ok((from, to)),
        _ => Err("deps entries must be [from, to] index pairs"
            .to_string()
            .into()),
    }
}

/// A `"meta"` that is not an object reads as an empty one.
fn read_meta(r: &mut Reader<'_>) -> Result<TraceMeta, Error> {
    let mut meta = TraceMeta::default();
    object(r, &["platform", "time_unit", "lanes", "tasks"], |r, key| {
        match key {
            0 => meta.platform = owned(opt_str(r)?),
            1 => {
                if let Some(label) = opt_str(r)? {
                    meta.time_unit = TimeUnit::from_label(&label)
                        .ok_or_else(|| format!("unknown time unit {label:?}"))?;
                }
            }
            2 => meta.lanes = array_of(r, read_lane)?,
            _ => each_of(r, |r| read_task(r, &mut meta.tasks))?,
        }
        Ok(())
    })?;
    Ok(meta)
}

fn read_document(r: &mut Reader<'_>) -> Result<(RunTrace, Vec<(u32, u32)>), Error> {
    let mut is_run = false;
    let mut meta = None;
    let (mut prelude, mut workers, mut deps) = (EventLog::new(), Vec::new(), Vec::new());
    let keys = ["kind", "meta", "prelude", "workers", "deps"];
    object(r, &keys, |r, key| {
        match key {
            0 => is_run = opt_str(r)?.as_deref() == Some("hetero-trace-run"),
            1 => meta = Some(read_meta(r)?),
            2 => prelude = read_events(r)?,
            3 => workers = array_of(r, read_worker)?,
            _ => deps = array_of(r, read_dep)?,
        }
        Ok(())
    })?;
    r.end()?;
    if !is_run {
        return Err("not a hetero-trace-run document".to_string().into());
    }
    let meta = meta.ok_or_else(|| "missing \"meta\"".to_string())?;
    let trace = RunTrace {
        meta,
        prelude,
        workers,
    };
    Ok((trace, deps))
}

/// Decodes a trace document produced by [`export`]. Leading `//` comment
/// lines are skipped. Returns the trace plus the (possibly empty) list of
/// dependency edges.
///
/// The format's guarantees: members may come in any order, unknown members
/// are ignored, the first of a repeated key wins, `overwritten`,
/// `category` and `time_unit` default to `0`, `"task"` and real
/// nanoseconds, integers are exact over the whole `u64` range (an index
/// that does not fit its field is an error, not a truncation), and nesting
/// stops at [`crate::json::MAX_DEPTH`].
pub fn parse(text: &str) -> Result<(RunTrace, Vec<(u32, u32)>), String> {
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
    read_document(&mut Reader::new(rest)).map_err(|Error(message)| message)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::TaskInfo;

    fn sample_trace() -> RunTrace {
        RunTrace {
            meta: TraceMeta {
                platform: Some("testbed".to_string()),
                lanes: vec![
                    LaneLabel {
                        name: "cpu0".to_string(),
                        group: Some("cpus".to_string()),
                    },
                    LaneLabel {
                        name: "gpu0".to_string(),
                        group: None,
                    },
                ],
                tasks: [TaskInfo {
                    label: "k",
                    category: "task",
                    group: Some("cpus"),
                }]
                .into_iter()
                .collect(),
                time_unit: TimeUnit::VirtualNanos,
            },
            prelude: vec![TraceEvent {
                ts: 0,
                kind: EventKind::TaskReady { task: 0 },
            }]
            .into(),
            workers: vec![WorkerTrace {
                worker: 0,
                events: vec![
                    TraceEvent {
                        ts: 1,
                        kind: EventKind::TaskDequeued {
                            task: 0,
                            provenance: Provenance::Steal {
                                victim: 1,
                                cross_group: true,
                            },
                        },
                    },
                    TraceEvent {
                        ts: 2,
                        kind: EventKind::TaskStart { task: 0 },
                    },
                    TraceEvent {
                        ts: 9,
                        kind: EventKind::TaskEnd { task: 0 },
                    },
                    TraceEvent {
                        ts: 10,
                        kind: EventKind::Park,
                    },
                    TraceEvent {
                        ts: 12,
                        kind: EventKind::Unpark,
                    },
                    TraceEvent {
                        ts: 13,
                        kind: EventKind::PhaseStart {
                            name: "drain".to_string(),
                        },
                    },
                    TraceEvent {
                        ts: 14,
                        kind: EventKind::PhaseEnd {
                            name: "drain".to_string(),
                        },
                    },
                ]
                .into(),
                overwritten: 3,
            }],
        }
    }

    #[test]
    fn round_trip_preserves_everything() {
        let trace = sample_trace();
        let deps = vec![(0u32, 1u32), (1, 2)];
        let text = export(&trace, &deps);
        let (back, back_deps) = parse(&text).expect("parses");
        assert_eq!(back, trace);
        assert_eq!(back_deps, deps);
        // Round-tripping the round-trip is byte-identical.
        assert_eq!(export(&back, &back_deps), text);
    }

    #[test]
    fn leading_comment_lines_are_skipped() {
        let text = format!(
            "// expect: T007\n// a second comment\n{}",
            export(&sample_trace(), &[])
        );
        let (back, deps) = parse(&text).expect("parses with comment header");
        assert_eq!(back, sample_trace());
        assert!(deps.is_empty());
    }

    #[test]
    fn bad_documents_are_rejected() {
        assert!(parse("{}").is_err());
        assert!(parse("not json").is_err());
        let missing_ev = r#"{"kind":"hetero-trace-run","meta":{"lanes":[],"tasks":[]},"prelude":[{"ts":1}],"workers":[]}"#;
        assert!(parse(missing_ev).is_err());
    }
}
