//! Guards `hetero_rt::graph::TaskGraph::submit` (and `kernels::graphs::*` built on it); goes when it does.
//!
//! The row-of-structs task graph as the oracle for the columnar one.
//!
//! `hetero_rt::graph::TaskGraph` used to hold one owned `Task` (a `String`
//! label, a `Vec` of accesses, an `Option<String>` group) and one
//! `Vec<TaskId>` of dependencies per task, and one reader `Vec` per handle.
//! It now holds flat columns and hands out borrowed views. The replaced
//! form lives on here, `submit` body and all, as the reference: random
//! programs are applied to both and must agree field for field and edge
//! for edge, and the six kernel graphs must equal what the old `submit`
//! derives from their tasks — and, by digest, what the old builders built.

use hetero_rt::data::{AccessMode, HandleId};
use hetero_rt::graph::{CompiledGraph, TaskGraph};
use hetero_rt::task::{Codelet, DataAccess, TaskId, Variant};
use kernels::graphs::{
    dgemm_graph, fork_join_graph, reduce_graph, spmv_graph, stencil_graph, vecadd_graph,
};
use proptest::prelude::*;

/// The owned task row `hetero_rt::task::Task` was.
#[derive(Debug, Clone, PartialEq)]
struct OwnedTask {
    id: TaskId,
    codelet: usize,
    label: String,
    flops: f64,
    accesses: Vec<DataAccess>,
    execution_group: Option<String>,
    priority: i32,
}

/// The graph as it was stored before the columns.
#[derive(Debug, Default)]
struct RowGraph {
    /// Label and size per handle.
    data: Vec<(String, f64)>,
    tasks: Vec<OwnedTask>,
    dependencies: Vec<Vec<TaskId>>,
    last_writer: Vec<Option<TaskId>>,
    readers_since_write: Vec<Vec<TaskId>>,
}

impl RowGraph {
    fn register_data(&mut self, label: impl Into<String>, size_bytes: f64) -> HandleId {
        self.data.push((label.into(), size_bytes));
        HandleId(self.data.len() - 1)
    }

    /// `TaskGraph::submit_prioritized` as it was, minus the two panics.
    fn submit_prioritized(
        &mut self,
        codelet: usize,
        label: impl Into<String>,
        flops: f64,
        accesses: Vec<DataAccess>,
        execution_group: Option<String>,
        priority: i32,
    ) -> TaskId {
        let id = TaskId(self.tasks.len());
        let mut deps: Vec<TaskId> = Vec::new();
        self.last_writer.resize(self.data.len(), None);
        self.readers_since_write.resize(self.data.len(), Vec::new());

        for a in &accesses {
            deps.extend(self.last_writer[a.handle.0]);
            if a.mode.writes() {
                deps.extend_from_slice(&self.readers_since_write[a.handle.0]);
            }
        }
        deps.sort_unstable();
        deps.dedup();
        deps.retain(|&d| d != id);

        for a in &accesses {
            if a.mode.writes() {
                self.last_writer[a.handle.0] = Some(id);
                self.readers_since_write[a.handle.0].clear();
            } else if a.mode.reads() {
                self.readers_since_write[a.handle.0].push(id);
            }
        }

        self.dependencies.push(deps);
        self.tasks.push(OwnedTask {
            id,
            codelet,
            label: label.into(),
            flops,
            accesses,
            execution_group,
            priority,
        });
        id
    }

    /// The old form of a graph the shipped builders made: its handles and
    /// tasks, re-submitted.
    fn replay(graph: &TaskGraph) -> Self {
        let mut rows = RowGraph::default();
        for h in (0..graph.data.len()).map(HandleId) {
            let meta = graph.data.meta(h);
            rows.register_data(meta.label, meta.size_bytes);
        }
        for t in graph.tasks() {
            rows.submit_prioritized(
                t.codelet,
                t.label,
                t.flops,
                t.accesses.to_vec(),
                t.execution_group.map(str::to_owned),
                t.priority,
            );
        }
        rows
    }

    fn compile(&self) -> CompiledGraph {
        CompiledGraph::from_dependencies(self.tasks.len(), |t| {
            self.dependencies[t].iter().map(|d| d.0)
        })
        .expect("edges point backwards")
    }
}

/// Every field of every task, every edge, the compiled form and the handle
/// table of `graph` equal the reference's.
fn assert_equals_rows(graph: &TaskGraph, rows: &RowGraph) {
    assert_eq!(graph.len(), rows.tasks.len());
    assert_eq!(graph.tasks().len(), rows.tasks.len());
    for (got, want) in graph.tasks().zip(&rows.tasks) {
        assert_eq!(got, graph.task(want.id));
        let got = OwnedTask {
            id: got.id,
            codelet: got.codelet,
            label: got.label.to_owned(),
            flops: got.flops,
            accesses: got.accesses.to_vec(),
            execution_group: got.execution_group.map(str::to_owned),
            priority: got.priority,
        };
        assert_eq!(&got, want);
        assert_eq!(
            graph.dependencies(want.id),
            rows.dependencies[want.id.0],
            "dependencies of {}",
            want.id
        );
    }
    assert_eq!(graph.compile(), rows.compile());
    let sources: Vec<TaskId> = (0..rows.tasks.len())
        .map(TaskId)
        .filter(|t| rows.dependencies[t.0].is_empty())
        .collect();
    assert_eq!(graph.sources(), sources);
    let flops: f64 = rows.tasks.iter().map(|t| t.flops).sum();
    assert_eq!(graph.total_flops().to_bits(), flops.to_bits());

    assert_eq!(graph.data.len(), rows.data.len());
    for (h, (label, size)) in rows.data.iter().enumerate() {
        let meta = graph.data.meta(HandleId(h));
        assert_eq!(
            (meta.id, meta.label, meta.size_bytes),
            (HandleId(h), &**label, *size)
        );
    }
}

/// A clone holds the same tasks, edges and handles, and its own copy of the
/// submission-time tracking: a task touching every handle gets the edges
/// the reference derives, and the original does not grow.
fn assert_clone_is_equal(graph: &TaskGraph) {
    let mut rows = RowGraph::replay(graph);
    let mut clone = graph.clone();
    assert_equals_rows(&clone, &rows);
    if graph.codelets.is_empty() {
        return;
    }
    let all: Vec<DataAccess> = (0..graph.data.len())
        .map(|h| DataAccess {
            handle: HandleId(h),
            mode: AccessMode::ReadWrite,
        })
        .collect();
    clone.submit(0, "after", 1.0, all.iter().copied(), None);
    rows.submit_prioritized(0, "after", 1.0, all, None, 0);
    assert_equals_rows(&clone, &rows);
    assert_eq!(clone.len(), graph.len() + 1, "the original is untouched");
}

const MODES: [AccessMode; 3] = [AccessMode::Read, AccessMode::Write, AccessMode::ReadWrite];
/// Empty, ASCII, multi-byte and bracketed labels; the arena must cut at the
/// right byte for each.
const LABELS: [&str; 6] = ["", "t", "fork[3][14]", "größe", "任务 7", "a\nb"];
const GROUPS: [Option<&str>; 4] = [None, Some("gpus"), Some("cpus"), Some("größe")];

/// One submission of a random program: handles to register first, then the
/// task's codelet, label, accesses (handle pick, mode), group and priority.
type Step = (
    Vec<(usize, u32)>,
    usize,
    usize,
    Vec<(usize, usize)>,
    usize,
    i32,
);

fn steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        (
            proptest::collection::vec((0usize..LABELS.len(), 0u32..4096), 0..3),
            0usize..2,
            0usize..LABELS.len(),
            proptest::collection::vec((0usize..64, 0usize..3), 0..5),
            0usize..GROUPS.len(),
            -2i32..3,
        ),
        0..48,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random programs — handles registered between submissions, handles
    /// named twice in one task in either order, zero-access tasks,
    /// priorities, up to three group names — give the same graph in both
    /// representations.
    #[test]
    fn columns_equal_rows_on_random_programs(program in steps()) {
        let mut graph = TaskGraph::new();
        let mut rows = RowGraph::default();
        for name in ["k0", "k1"] {
            graph.add_codelet(Codelet::new(name).with_variant(Variant::new("x86")));
        }
        for (i, (handles, codelet, label, picks, group, priority)) in program.iter().enumerate() {
            for &(label, size) in handles {
                let size = f64::from(size);
                let h = graph.register_data(format_args!("{}#{i}", LABELS[label]), size);
                prop_assert_eq!(h, rows.register_data(format!("{}#{i}", LABELS[label]), size));
            }
            // With no handle registered yet the task accesses nothing.
            let accesses: Vec<DataAccess> = picks
                .iter()
                .filter(|_| !rows.data.is_empty())
                .map(|&(pick, mode)| DataAccess {
                    handle: HandleId(pick % rows.data.len()),
                    mode: MODES[mode],
                })
                .collect();
            let flops = i as f64 * 0.5;
            let id = graph.submit_prioritized(
                *codelet,
                LABELS[*label],
                flops,
                accesses.iter().copied(),
                GROUPS[*group],
                *priority,
            );
            let want = rows.submit_prioritized(
                *codelet,
                LABELS[*label],
                flops,
                accesses,
                GROUPS[*group].map(str::to_owned),
                *priority,
            );
            prop_assert_eq!(id, want);
        }
        assert_equals_rows(&graph, &rows);
        assert_clone_is_equal(&graph);
    }
}

#[test]
fn a_handle_named_twice_in_one_task_in_either_order() {
    let access = |handle, mode| DataAccess { handle, mode };
    for first_writes in [true, false] {
        let mut graph = TaskGraph::new();
        let mut rows = RowGraph::default();
        let c = graph.add_codelet(Codelet::new("k"));
        let h = graph.register_data("h", 8.0);
        rows.register_data("h", 8.0);
        let (w, r) = (access(h, AccessMode::Write), access(h, AccessMode::Read));
        let twice = if first_writes { [w, r] } else { [r, w] };
        for accesses in [&[r][..], &twice, &twice, &[r], &[w]] {
            graph.submit(c, "t", 1.0, accesses.iter().copied(), None);
            rows.submit_prioritized(c, "t", 1.0, accesses.to_vec(), None, 0);
        }
        assert_equals_rows(&graph, &rows);
    }
}

/// FNV-1a over everything a graph says, for comparing with what the
/// replaced builders produced.
fn digest(graph: &TaskGraph) -> u64 {
    fn word(h: &mut u64, w: u64) {
        for b in w.to_le_bytes() {
            *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn text(h: &mut u64, s: &str) {
        word(h, s.len() as u64);
        s.bytes().for_each(|b| word(h, u64::from(b)));
    }
    let mut h = 0xcbf2_9ce4_8422_2325;
    word(&mut h, graph.codelets.len() as u64);
    for c in &graph.codelets {
        text(&mut h, &c.name);
    }
    word(&mut h, graph.data.len() as u64);
    for i in 0..graph.data.len() {
        let meta = graph.data.meta(HandleId(i));
        text(&mut h, meta.label);
        word(&mut h, meta.size_bytes.to_bits());
    }
    word(&mut h, graph.len() as u64);
    for t in graph.tasks() {
        word(&mut h, t.id.0 as u64);
        word(&mut h, t.codelet as u64);
        text(&mut h, t.label);
        word(&mut h, t.flops.to_bits());
        word(&mut h, t.accesses.len() as u64);
        for a in t.accesses {
            word(&mut h, a.handle.0 as u64);
            word(
                &mut h,
                MODES.iter().position(|m| *m == a.mode).unwrap() as u64,
            );
        }
        text(&mut h, t.execution_group.unwrap_or("\0"));
        word(&mut h, t.priority as u64);
        let deps = graph.dependencies(t.id);
        word(&mut h, deps.len() as u64);
        deps.iter().for_each(|d| word(&mut h, d.0 as u64));
    }
    h
}

/// The six kernel graphs against the old `submit` fed with their tasks, and
/// against digests recorded at commit `26c7521` — the last one whose
/// builders `format!`ed a `String` per label and collected a `Vec` per
/// task — by running [`digest`] there over `graph.tasks`.
#[test]
fn kernel_graphs_equal_what_the_row_builders_built() {
    let graphs = [
        (
            "dgemm",
            dgemm_graph(2048, 256, None),
            0x8c1c_2cec_367b_8c09u64,
        ),
        (
            "vecadd",
            vecadd_graph(1 << 20, 16, Some("gpus".into())),
            0x5515_0892_8a1f_9d93,
        ),
        ("stencil", stencil_graph(1024, 8, 6), 0x7c7e_7916_12f7_e3d5),
        ("reduce", reduce_graph(1 << 20, 32), 0x62a4_85bc_3e6e_5bbd),
        ("spmv", spmv_graph(4096, 12), 0x3b0b_3516_afea_5724),
        (
            "fork_join",
            fork_join_graph(8, 50, Some("cpus".into())),
            0x0678_bf0d_b7d7_326d,
        ),
    ];
    let mut recorded = String::new();
    for (name, graph, want) in &graphs {
        assert!(!graph.is_empty(), "{name}");
        assert_equals_rows(graph, &RowGraph::replay(graph));
        assert_clone_is_equal(graph);
        let got = digest(graph);
        if got != *want {
            recorded.push_str(&format!("{name}: {got:#018x}\n"));
        }
    }
    assert!(recorded.is_empty(), "digests differ:\n{recorded}");
}
