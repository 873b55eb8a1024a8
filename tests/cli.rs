//! End-to-end tests of the `pdl` command-line tool, driving the real
//! binary (Cargo provides its path via `CARGO_BIN_EXE_pdl`).

use std::process::Command;

fn pdl(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pdl"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_lists_commands() {
    let (ok, stdout, _) = pdl(&["help"]);
    assert!(ok);
    for cmd in [
        "validate",
        "discover",
        "query",
        "route",
        "diff",
        "simulate",
        "perf-diff",
    ] {
        assert!(stdout.contains(cmd), "missing {cmd}");
    }
}

#[test]
fn unknown_command_fails() {
    let (ok, _, stderr) = pdl(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
}

#[test]
fn validate_builtin_platform() {
    let (ok, stdout, _) = pdl(&["validate", "cell-be"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("valid"));
    assert!(stdout.contains("9 PUs"));
}

#[test]
fn validate_file_round_trip() {
    let dir = std::env::temp_dir().join(format!("pdl-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("box.pdl.xml");

    // Write a descriptor, validate it, then corrupt it and watch it fail.
    let platform = pdl_discover::synthetic::xeon_2gpu_testbed();
    std::fs::write(&file, pdl_xml::to_xml(&platform)).unwrap();
    let (ok, stdout, _) = pdl(&["validate", file.to_str().unwrap()]);
    assert!(ok, "{stdout}");

    std::fs::write(&file, "<Master id=\"0\"><Worker id=\"0\"/></Master>").unwrap();
    let (ok, _, stderr) = pdl(&["validate", file.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("duplicate"), "{stderr}");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn query_selector_over_builtin() {
    let (ok, stdout, _) = pdl(&["query", "cell-be", "//Worker[@ARCHITECTURE='spe']"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("(8 match(es))"), "{stdout}");
}

#[test]
fn groups_expression() {
    let (ok, stdout, _) = pdl(&["groups", "xeon-x5550-gtx480-gtx285", "gpus+cpus"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("(8 member(s))"), "{stdout}");
}

#[test]
fn route_between_pus() {
    let (ok, stdout, _) = pdl(&["route", "xeon-x5550-gtx480-gtx285", "host", "gpu0", "512"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("PCIe"));
    assert!(stdout.contains("bottleneck 6.00 GB/s"));
}

#[test]
fn diff_two_builtins() {
    let (ok, stdout, _) = pdl(&["diff", "xeon-x5550-8core", "xeon-x5550-gtx480-gtx285"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("+ PU gpu0"));
}

#[test]
fn simulate_dgemm_on_builtin() {
    let (ok, stdout, _) = pdl(&["simulate", "xeon-x5550-gtx480-gtx285", "2048", "512"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("makespan"));
    assert!(stdout.contains("GFLOP/s effective"));
}

#[test]
fn discover_emits_valid_xml() {
    if !std::path::Path::new("/proc/cpuinfo").exists() {
        return;
    }
    let (ok, stdout, _) = pdl(&["discover"]);
    assert!(ok);
    let platform = pdl_xml::from_xml(&stdout).expect("CLI output is valid PDL");
    assert!(platform.workers().count() >= 1);
}

#[test]
fn catalog_lists_builtins() {
    let (ok, stdout, _) = pdl(&["catalog"]);
    assert!(ok);
    assert!(stdout.contains("cell-be"));
    assert!(stdout.contains("gpgpu-cluster-4x2"));
}

#[test]
fn missing_arguments_reported() {
    let (ok, _, stderr) = pdl(&["route", "cell-be"]);
    assert!(!ok);
    assert!(stderr.contains("missing argument"));
}

#[test]
fn model_check_clean_run_succeeds() {
    let (ok, stdout, stderr) = pdl(&["model-check", "--pending", "1"]);
    assert!(ok, "{stdout}\n{stderr}");
    assert!(stdout.contains("all invariants hold"), "{stdout}");
    assert!(stdout.contains("xeon-2gpu-pcie"), "{stdout}");
    assert!(stdout.contains("xeon-2gpu-nvlink"), "{stdout}");
}

#[test]
fn model_check_catches_injected_single_writer_bug() {
    let (ok, stdout, stderr) = pdl(&["model-check", "--pending", "1", "--mutate", "m001"]);
    assert!(!ok, "an injected bug must fail the run");
    assert!(stdout.contains("error[M001]"), "{stdout}");
    assert!(
        stdout.contains("minimized counterexample (2 actions)"),
        "{stdout}"
    );
    assert!(stderr.contains("invariant violation"), "{stderr}");
}

#[test]
fn model_check_writes_schema_versioned_json() {
    let dir = std::env::temp_dir().join(format!("pdl-mc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("model-check.json");
    let (ok, stdout, stderr) = pdl(&[
        "model-check",
        "--pending",
        "1",
        "--json",
        file.to_str().unwrap(),
    ]);
    assert!(ok, "{stdout}\n{stderr}");
    let text = std::fs::read_to_string(&file).unwrap();
    assert!(text.contains("\"schema\": \"pdl-model-check/1\""), "{text}");
    assert!(text.contains("\"invariants\""), "{text}");
    assert!(text.contains("\"elapsed_seconds\""), "{text}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn model_check_rejects_unknown_mutation() {
    let (ok, _, stderr) = pdl(&["model-check", "--mutate", "m999"]);
    assert!(!ok);
    assert!(stderr.contains("unknown mutation"), "{stderr}");
}

#[test]
fn perf_diff_attributes_fixture_regression() {
    let dir = std::env::temp_dir().join(format!("pdl-pd-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let json = dir.join("diff.json");
    let (ok, stdout, stderr) = pdl(&[
        "perf-diff",
        "examples/traces/perf_diff_base.trace.json",
        "examples/traces/perf_diff_regressed.trace.json",
        "--json",
        json.to_str().unwrap(),
    ]);
    assert!(ok, "{stdout}\n{stderr}");
    assert!(
        stdout.contains("top regression: transfer/PCIe:host-gpu0"),
        "{stdout}"
    );
    assert!(stdout.contains("A004 [PCIe:host-gpu0]"), "{stdout}");
    let text = std::fs::read_to_string(&json).unwrap();
    assert!(text.contains("\"schema\": \"pdl-perf-diff/1\""), "{text}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn perf_diff_requires_two_traces() {
    let (ok, _, stderr) = pdl(&["perf-diff", "examples/traces/perf_diff_base.trace.json"]);
    assert!(!ok);
    assert!(stderr.contains("two traces"), "{stderr}");
}

/// A megabyte of `[` used to recurse once per bracket and overflow the
/// stack (`fatal runtime error`, no diagnostic). Every command that reads a
/// trace now reports the nesting as an ordinary parse error.
#[test]
fn hostile_nesting_is_a_diagnostic_not_a_crash() {
    let dir = std::env::temp_dir().join(format!("pdl-cli-nesting-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("deep.trace.json");
    std::fs::write(&file, "[".repeat(1 << 20)).unwrap();
    let path = file.to_str().unwrap();

    let (ok, _, stderr) = pdl(&["profile", path]);
    assert!(!ok);
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.starts_with("pdl: trace json: "), "{stderr}");
    assert!(stderr.contains("nesting deeper than 128"), "{stderr}");

    let base = "examples/traces/perf_diff_base.trace.json";
    let (ok, _, stderr) = pdl(&["perf-diff", base, path]);
    assert!(!ok);
    assert!(stderr.contains("nesting deeper than 128"), "{stderr}");

    let (ok, stdout, stderr) = pdl(&["check", path]);
    assert!(!ok);
    assert!(
        format!("{stdout}{stderr}").contains("nesting deeper than 128"),
        "{stdout}{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// 50 000 nested elements and 30 000 nested parentheses each used to recurse
/// once per level and end in `fatal runtime error: stack overflow` (exit
/// 134, no `pdl:` line). Both parsers now cap their nesting and say so.
#[test]
fn hostile_xml_and_group_nesting_are_diagnostics_not_aborts() {
    let dir = std::env::temp_dir().join(format!("pdl-cli-deep-xml-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("deep.xml");
    std::fs::write(
        &file,
        format!("{}{}", "<a>".repeat(50_000), "</a>".repeat(50_000)),
    )
    .unwrap();
    let parens = format!("{}pu{}", "(".repeat(30_000), ")".repeat(30_000));

    for (args, limit) in [
        (vec!["validate", file.to_str().unwrap()], "256"),
        (vec!["groups", "xeon-x5550-8core", parens.as_str()], "64"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_pdl"))
            .args(&args)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{}: {stderr}", args[0]);
        assert_eq!(stderr.lines().count(), 1, "{stderr}");
        assert!(stderr.starts_with("pdl: "), "{stderr}");
        assert!(
            stderr.contains("nest") && stderr.contains(limit),
            "{stderr}"
        );
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// One finding per element, 40 000 times: giving each its `line:col` used
/// to scan the document from the top per finding (15 s in a release build
/// for this 0.9 MB file, four times that at twice the size). The ids are
/// looked up in one map now, so the wall cap scales with the input.
#[test]
fn check_cost_is_linear_in_findings() {
    const WORKERS: usize = 40_000;
    let dir = std::env::temp_dir().join(format!("pdl-cli-wide-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("wide.xml");
    let mut xml = String::from("<Master id=\"m\" quantity=\"0\">\n");
    for i in 0..WORKERS {
        xml.push_str(&format!("  <Worker id=\"w{i}\"/>\n"));
    }
    xml.push_str("</Master>\n");
    std::fs::write(&file, xml).unwrap();
    let path = file.to_str().unwrap();

    let started = std::time::Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_pdl"))
        .args(["check", path])
        .output()
        .expect("binary runs");
    let took = started.elapsed();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let unreachable: Vec<&str> = stdout.lines().filter(|l| l.contains("[P102]")).collect();
    assert_eq!(unreachable.len(), WORKERS);
    // Each points at its own element: Worker `i` stands on line `i + 2`.
    for (i, line) in unreachable.iter().enumerate() {
        let at = format!("{path}:{}:3: error[P102]: processing unit \"w{i}\"", i + 2);
        assert!(line.starts_with(&at), "{line}");
    }
    assert!(took < std::time::Duration::from_secs(5), "{took:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A descriptor whose PUs peak at 0 GFLOPS validates and checks clean, and
/// `simulate` used to divide by the rate and abort in `Duration::new`
/// (`panicked at crates/simhw/src/time.rs`, exit 101, no `pdl:` line). The
/// engines refuse the machine by PU id now.
#[test]
fn zero_compute_rate_is_a_diagnostic_not_a_panic() {
    let dir = std::env::temp_dir().join(format!("pdl-cli-zero-rate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("zero.xml");
    let xml = std::fs::read_to_string("examples/platforms/xeon_x5550_host.xml").unwrap();
    let zeroed = xml.replace(
        "<value unit=\"GFLOPS\">10.64</value>",
        "<value unit=\"GFLOPS\">0</value>",
    );
    assert_ne!(zeroed, xml);
    std::fs::write(&file, zeroed).unwrap();
    let path = file.to_str().unwrap();

    let (ok, stdout, _) = pdl(&["validate", path]);
    assert!(ok && stdout.contains("valid (9 PUs"), "{stdout}");

    let out = Command::new(env!("CARGO_BIN_EXE_pdl"))
        .args(["simulate", path, "512", "256"])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.starts_with("pdl: PU \"cpu0\""), "{stderr}");
    assert!(stderr.contains("0 FLOP/s"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A span that ends before it starts used to become 2^64 − 50 ns of blame
/// in a release build and an overflow panic in a debug build, both with
/// exit code 0 or a backtrace. Every command that profiles a trace now
/// names the span and exits 1.
#[test]
fn reversed_span_is_a_diagnostic_not_a_wrapped_duration() {
    let dir = std::env::temp_dir().join(format!("pdl-cli-reversed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("reversed.trace.json");
    std::fs::write(
        &file,
        r#"{"kind": "hetero-trace-run",
            "meta": {"lanes": [{"name": "gpu0", "group": "gpus"}],
                     "tasks": [{"label": "k", "category": "task", "group": null}]},
            "prelude": [],
            "workers": [{"worker": 0, "overwritten": 0, "events": [
                {"ts": 100, "ev": "start", "task": 0},
                {"ts": 50, "ev": "end", "task": 0}]}]}"#,
    )
    .unwrap();
    let path = file.to_str().unwrap();
    let base = "examples/traces/perf_diff_base.trace.json";

    for (args, prefix) in [
        (vec!["profile", path], "pdl: task 0 on lane gpu0"),
        (
            vec!["perf-diff", base, path],
            "pdl: head: task 0 on lane gpu0",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_pdl"))
            .args(&args)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{stderr}");
        assert!(stderr.starts_with(prefix), "{stderr}");
        assert!(
            stderr.contains("ends at 50 before it starts at 100"),
            "{stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Arguments `simulate` and `route` cannot use used to panic (`tile must be
/// in 1..=n`, `capacity overflow`, exit 101) or be priced: a negative size
/// printed a negative time, NaN and infinity claimed there was no path.
/// Each is refused at the command line now, naming the argument.
#[test]
fn unusable_sizes_are_diagnostics_not_panics() {
    let gpus = "xeon-x5550-gtx480-gtx285";
    for (args, message) in [
        (vec!["simulate", gpus, "8192", "0"], "TILE must be in 1..=N"),
        (vec!["simulate", gpus, "1", "4096"], "TILE must be in 1..=N"),
        (vec!["simulate", gpus, "0"], "TILE must be in 1..=N"),
        (
            vec!["simulate", gpus, "4000000", "1"],
            "over the limit of 2097152",
        ),
        (
            vec!["simulate", gpus, "8192", "63"],
            "over the limit of 2097152",
        ),
        (vec!["route", gpus, "cpu0", "gpu0", "-5"], "<MB> must be"),
        (vec!["route", gpus, "cpu0", "gpu0", "NaN"], "<MB> must be"),
        (vec!["route", gpus, "cpu0", "gpu0", "inf"], "<MB> must be"),
        (
            vec!["route", gpus, "cpu0", "gpu0", "1e303"],
            "<MB> must be below 1.797693134862316e302",
        ),
        (
            vec!["model-check", "--pending", "0"],
            "--pending must be 1 or more",
        ),
        (
            vec!["model-check", "--pending", "3"],
            "--pending must be at most 2",
        ),
        (
            vec!["model-check", "--pending", "99999999"],
            "--pending must be at most 2",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_pdl"))
            .args(&args)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{stderr}");
        assert!(stderr.starts_with("pdl: "), "{stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
    // The largest size under the limit routes, and a size of zero is a size.
    let under = f64::from_bits((f64::MAX / 1e6).to_bits() - 1);
    for mb in ["0".to_string(), format!("{under:e}")] {
        let (ok, stdout, stderr) = pdl(&["route", gpus, "cpu0", "gpu0", &mb]);
        assert!(ok && stdout.contains("total:"), "{stdout}{stderr}");
    }
}
