//! Full-fidelity JSON round-trip for a [`RunTrace`] — the on-disk format
//! consumed by `pdl profile` and the `T00x` trace analyzers.
//!
//! Unlike the Chrome export (lossy, viewer-oriented) and the run summary
//! (aggregated), this codec preserves every record, so a trace written by
//! one tool can be re-analyzed by another. A task run is written as up to
//! three events — its claim (`"dequeue"`, when the provenance is known),
//! `"start"` and `"end"` — which [`parse`], the one place task events
//! pair, reads back into one run. The document may carry an optional
//! top-level `"deps"` array of `[from, to]` task-index pairs
//! (task `to` depends on task `from`); the critical-path profiler uses
//! those edges when the task graph is not available in-process.
//!
//! [`parse`] skips leading `//` comment lines, so fixture files can carry
//! `// expect[...]:` annotation headers for the analyzer corpus.

use crate::event::{EventKind, Provenance, TraceEvent};
use crate::json::{JsonError, Kind, Reader, Writer};
use crate::labels::TaskTable;
use crate::log::EventLog;
use crate::trace::{LaneLabel, RunTrace, TimeUnit, TraceError, TraceMeta, WorkerTrace};
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

/// Opens an event object with its timestamp, its name and its task.
fn begin_event(w: &mut Writer, ts: u64, ev: &str, task: Option<u32>) {
    w.begin_obj();
    w.key("ts").u64(ts);
    w.key("ev").str(ev);
    if let Some(task) = task {
        w.key("task").u64(u64::from(task));
    }
}

fn write_events(w: &mut Writer, events: &EventLog) {
    w.begin_arr();
    for e in events.iter() {
        match e.kind {
            EventKind::TaskRun {
                task,
                end,
                provenance,
            } => {
                if let Some(provenance) = provenance {
                    begin_event(w, e.ts, "dequeue", Some(task));
                    match provenance {
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
                    }
                    w.end_obj();
                }
                begin_event(w, e.ts, "start", Some(task));
                w.end_obj();
                begin_event(w, end, "end", Some(task));
            }
            EventKind::TaskReady { task } => begin_event(w, e.ts, "ready", Some(task)),
            EventKind::Park => begin_event(w, e.ts, "park", None),
            EventKind::Unpark => begin_event(w, e.ts, "unpark", None),
            EventKind::PhaseStart { ref name } => {
                begin_event(w, e.ts, "phase_start", None);
                w.key("name").str(name);
            }
            EventKind::PhaseEnd { ref name } => {
                begin_event(w, e.ts, "phase_end", None);
                w.key("name").str(name);
            }
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

/// A lane's records as they are read: a task's claim, start and end pair
/// into one run, recorded at its end. An event that does not pair is left
/// out, and the first such is kept as the error it is where no record was
/// lost, with its index (for a run without its end, its task).
#[derive(Default)]
struct Lane {
    log: EventLog,
    /// The run without its end: task, start, provenance, and whether its
    /// start (not only its claim) was read.
    open: Option<(u32, u64, Option<Provenance>, bool)>,
    /// Events read.
    read: usize,
    fault: Option<(Fault, usize)>,
}

/// A [`TraceError`], given the number of its lane and an index.
type Fault = fn(usize, usize) -> TraceError;

fn overlap(worker: usize, index: usize) -> TraceError {
    TraceError::Overlap { worker, index }
}

fn bad_nesting(worker: usize, index: usize) -> TraceError {
    TraceError::BadNesting { worker, index }
}

/// What reading an event into a lane gives.
type Read = Result<(), Error>;

impl Lane {
    /// Opens a run at its claim or start; an open one did not end first.
    fn open(&mut self, task: u32, ts: u64, provenance: Option<Provenance>, started: bool) -> Read {
        self.open = match self.open.take() {
            Some((claimed, _, claim, false)) if started && claimed == task => {
                Some((task, ts, claim, true))
            }
            open => {
                if open.is_some() {
                    self.fault(overlap, self.read);
                }
                Some((task, ts, provenance, started))
            }
        };
        Ok(())
    }

    fn end(&mut self, end: u64, task: u32) -> Read {
        match self
            .open
            .take_if(|&mut (open, .., started)| started && open == task)
        {
            Some((task, ts, provenance, _)) => {
                let kind = EventKind::TaskRun {
                    task,
                    end,
                    provenance,
                };
                self.log.push(TraceEvent { ts, kind });
            }
            None => self.fault(bad_nesting, self.read),
        }
        Ok(())
    }

    fn fault(&mut self, error: Fault, index: usize) {
        self.fault.get_or_insert((error, index));
    }
}

fn read_events(r: &mut Reader<'_>) -> Result<Lane, Error> {
    let mut lane = Lane::default();
    each_of(r, |r| {
        read_event(r, &mut lane)?;
        lane.read += 1;
        Ok(())
    })?;
    if let Some((task, ..)) = lane.open {
        let missing_end = |_, task| TraceError::MissingEnd { task: task as u32 };
        lane.fault(missing_end, task as usize);
    }
    Ok(lane)
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

/// Reads the next event into `lane`.
fn read_event(r: &mut Reader<'_>, lane: &mut Lane) -> Read {
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
        "start" => return lane.open(task()?, ts, None, true),
        "end" => return lane.end(ts, task()?),
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
            return lane.open(task()?, ts, Some(provenance), false);
        }
        other => return Err(format!("unknown event kind {other:?}").into()),
    };
    lane.log.push(TraceEvent { ts, kind });
    Ok(())
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

/// A lane that lost records keeps the events that pair; on any other an
/// event that does not pair is the error.
fn read_worker(r: &mut Reader<'_>) -> Result<WorkerTrace, Error> {
    let (mut worker, mut overwritten, mut events) = (None, None, Lane::default());
    object(r, &["worker", "overwritten", "events"], |r, key| {
        match key {
            0 => worker = opt_u64(r)?,
            1 => overwritten = opt_u64(r)?,
            _ => events = read_events(r)?,
        }
        Ok(())
    })?;
    let worker = worker
        .and_then(|w| usize::try_from(w).ok())
        .ok_or_else(|| missing("worker lane", "numeric", "worker"))?;
    let overwritten = overwritten.unwrap_or(0);
    match events.fault {
        Some((error, at)) if overwritten == 0 => Err(error(worker, at).to_string().into()),
        _ => Ok(WorkerTrace {
            worker,
            overwritten,
            events: events.log,
        }),
    }
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
    let (mut prelude, mut workers, mut deps) = (Lane::default(), Vec::new(), Vec::new());
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
    if let Some((error, at)) = prelude.fault {
        return Err(error(workers.len(), at).to_string().into());
    }
    let trace = RunTrace {
        meta,
        prelude: prelude.log,
        workers,
    };
    match trace.repeated_run() {
        Some(task) => Err(TraceError::DuplicateStart { task }.to_string().into()),
        None => Ok((trace, deps)),
    }
}

/// Decodes a trace document produced by [`export`]. Leading `//` comment
/// lines are skipped. Returns the trace plus the (possibly empty) list of
/// dependency edges.
///
/// Task events pair into runs as they are read: a `"dequeue"` with the
/// lane's next `"start"`, of its task, and a `"start"` with the `"end"` of
/// its task, before any other claim or start; a run is recorded at its
/// end. On a lane that lost no record (`overwritten` 0) and in the
/// prelude every task event must pair and no task may run twice, or the
/// document is refused with the [`TraceError`] it breaks. A lane that lost
/// records keeps the runs that pair and leaves the other task events out.
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
                        ts: 2,
                        kind: EventKind::TaskRun {
                            task: 0,
                            end: 9,
                            provenance: Some(Provenance::Steal {
                                victim: 1,
                                cross_group: true,
                            }),
                        },
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

    /// A document with one lane of `events`, which lost `overwritten`.
    fn lane_document(events: &[&str], overwritten: u64) -> String {
        format!(
            r#"{{"kind":"hetero-trace-run","meta":{{}},"prelude":[],"workers":[{{"events":[{}],"worker":3,"overwritten":{overwritten}}}]}}"#,
            events.join(",")
        )
    }

    #[test]
    fn task_events_pair_into_runs() {
        let claim = r#"{"ts":1,"ev":"dequeue","task":0,"prov":"local"}"#;
        let start = |ts: u64, task: u32| format!(r#"{{"ts":{ts},"ev":"start","task":{task}}}"#);
        let end = |ts: u64, task: u32| format!(r#"{{"ts":{ts},"ev":"end","task":{task}}}"#);
        let ready = r#"{"ts":3,"ev":"ready","task":1}"#;
        let (s0, e0, s1, e1) = (start(1, 0), end(5, 0), start(2, 1), end(4, 1));
        let refused: [(&[&str], &str); 7] = [
            (&[&s0], "task 0 started but never ended"),
            (
                &[&e0],
                "worker 3 event 0 ends a span that is not the innermost open one",
            ),
            (&[&s0, &e0, &s0, &e0], "task 0 started twice"),
            (
                &[&s0, &s1, &e1, &e0],
                "worker 3 event 1 falls inside the task span before it",
            ),
            (&[claim], "task 0 started but never ended"),
            (
                &[claim, &s1, &e1],
                "worker 3 event 1 falls inside the task span before it",
            ),
            (
                &[&s0, claim, &e0],
                "worker 3 event 1 falls inside the task span before it",
            ),
        ];
        for (events, error) in refused {
            assert_eq!(parse(&lane_document(events, 0)).unwrap_err(), error);
            // A lane that lost records keeps what pairs.
            let (trace, _) = parse(&lane_document(events, 1)).expect("lossy lanes parse");
            trace.validate().unwrap_err();
        }
        let (trace, _) = parse(&lane_document(&[&s0, &s1, &e1, &e0], 1)).unwrap();
        let spans = trace.task_spans();
        assert_eq!((spans.len(), spans[0].task, spans[0].start), (1, 1, 2));

        // A run is recorded at its end, stamped with its start, so a record
        // between its start and its end comes first.
        let (trace, _) = parse(&lane_document(&[claim, &s0, ready, &e0], 0)).unwrap();
        let records: Vec<TraceEvent> = trace.workers[0].events.iter().collect();
        let run = EventKind::TaskRun {
            task: 0,
            end: 5,
            provenance: Some(Provenance::Local),
        };
        assert_eq!(records[0].kind, EventKind::TaskReady { task: 1 });
        assert_eq!(records[1], TraceEvent { ts: 1, kind: run });
        assert_eq!(trace.total_events(), 4);
        let again = parse(&export(&trace, &[])).unwrap().0;
        assert_eq!(again, trace);
        // The prelude is a lane that lost nothing, numbered after the workers.
        let prelude = r#"{"kind":"hetero-trace-run","meta":{},"prelude":[{"ts":4,"ev":"end","task":2}],"workers":[]}"#;
        assert_eq!(
            parse(prelude).unwrap_err(),
            "worker 0 event 0 ends a span that is not the innermost open one"
        );
    }
}
