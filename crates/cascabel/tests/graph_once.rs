//! Codegen derives a translated program's task graph exactly once.
//!
//! `codegen` has the `kernels::graphs` builders emit straight into the
//! program's graph. It used to build each call site's graph separately and
//! then `absorb` it — clone every codelet, label and handle, re-`submit`
//! every task — deriving the same edges a second time. That
//! clone-and-resubmit lives on here as the reference: for multi-call
//! programs both must give the same graph, field for field and edge for
//! edge. The same programs check the generated host source, whose call
//! sites share one C scope.

use cascabel::codegen::GeneratedOutput;
use cascabel::{Cascabel, ProblemSpec};
use hetero_rt::data::HandleId;
use hetero_rt::graph::TaskGraph;
use hetero_rt::task::{DataAccess, TaskId};
use kernels::graphs::{dgemm_graph, vecadd_graph};
use pdl_discover::synthetic;

const N: usize = 2048;
const TILE: usize = 512;

const VECADD_CALL: &str =
    "#pragma cascabel execute I_vecadd : gpus (A:BLOCK:N, B:BLOCK:N)\nvector_add(A, B);\n";
const DGEMM_CALL: &str =
    "#pragma cascabel execute I_dgemm : (A:BLOCK:N, B:BLOCK:N, C:BLOCK:N)\ndgemm(A, B, C);\n";

/// The replaced `codegen::absorb`: appends all codelets/data/tasks of `sub`
/// into `graph`, remapping indices.
fn absorb(graph: &mut TaskGraph, sub: TaskGraph) {
    let codelet_base: Vec<usize> = sub
        .codelets
        .iter()
        .map(|c| graph.add_codelet(c.clone()))
        .collect();
    let mut handle_map = Vec::with_capacity(sub.data.len());
    for i in 0..sub.data.len() {
        let meta = sub.data.meta(HandleId(i));
        handle_map.push(graph.register_data(meta.label, meta.size_bytes));
    }
    for t in sub.tasks() {
        let accesses = t.accesses.iter().map(|a| DataAccess {
            handle: handle_map[a.handle.0],
            mode: a.mode,
        });
        graph.submit(
            codelet_base[t.codelet],
            t.label,
            t.flops,
            accesses,
            t.execution_group,
        );
    }
}

fn compile(calls: &[&str]) -> GeneratedOutput {
    let mut spec = ProblemSpec::with_size("N", N);
    spec.tile = Some(TILE);
    Cascabel::new(synthetic::xeon_2gpu_testbed())
        .compile(&calls.concat(), &spec)
        .expect("program translates")
        .output
}

fn assert_same_graph(got: &TaskGraph, want: &TaskGraph) {
    assert_eq!(got.codelets, want.codelets);
    assert_eq!(got.len(), want.len());
    for (got, want) in got.tasks().zip(want.tasks()) {
        assert_eq!(got, want);
    }
    assert_eq!(got.data.len(), want.data.len());
    for h in (0..want.data.len()).map(HandleId) {
        assert_eq!(got.data.meta(h), want.data.meta(h));
    }
    for t in (0..want.len()).map(TaskId) {
        assert_eq!(got.dependencies(t), want.dependencies(t), "{t:?}");
    }
    assert_eq!(got.compile(), want.compile());
}

#[test]
fn multi_call_graph_equals_clone_and_resubmit() {
    // Two GPUs in group `gpus`: the BLOCK-distributed vecadd is two chunks.
    let vecadd = || vecadd_graph(N, 2, Some("gpus".into()));
    let dgemm = || dgemm_graph(N, TILE, None);

    let two = compile(&[VECADD_CALL, DGEMM_CALL]);
    assert_eq!(two.mappings[0].target_pus.len(), 2);
    let mut want = TaskGraph::new();
    absorb(&mut want, vecadd());
    absorb(&mut want, dgemm());
    assert_eq!(want.len(), 2 + 64);
    assert_same_graph(&two.graph, &want);

    // Tile handles of the second DGEMM reuse the first one's labels; only
    // the handle ids keep the two k-chains apart.
    let three = compile(&[DGEMM_CALL, VECADD_CALL, DGEMM_CALL]);
    let mut want = TaskGraph::new();
    absorb(&mut want, dgemm());
    absorb(&mut want, vecadd());
    absorb(&mut want, dgemm());
    assert_same_graph(&three.graph, &want);
}

#[test]
fn call_sites_declare_distinct_handles_before_use() {
    let source = compile(&[VECADD_CALL, DGEMM_CALL]).main_source;
    let mut declared: Vec<&str> = Vec::new();
    let mut submits = 0;
    for line in source.lines().map(str::trim) {
        if let Some(rest) = line.strip_prefix("starpu_data_handle_t ") {
            let name = rest.split(' ').next().expect("declarator");
            assert!(!declared.contains(&name), "{name} redeclared in:\n{source}");
            declared.push(name);
        } else if let Some(rest) = line.strip_prefix("cascabel_submit_") {
            let args = rest
                .split_once('(')
                .and_then(|(_, args)| args.strip_suffix(");"))
                .expect("submit call");
            for arg in args.split(", ") {
                assert!(
                    declared.contains(&arg),
                    "{arg} used before its declaration in:\n{source}"
                );
            }
            submits += 1;
        }
    }
    assert_eq!(submits, 2);
    assert_eq!(declared, ["h0", "h1", "h2", "h3", "h4"]);
}
