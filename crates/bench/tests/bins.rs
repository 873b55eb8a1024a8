//! The regeneration binaries on arguments they cannot use: each is refused
//! with exit 1 and one stderr line naming the binary, never a panic.

use std::process::Command;

/// A path whose directory does not exist.
fn unwritable() -> String {
    format!("{}/no-such-dir/x.json", env!("CARGO_TARGET_TMPDIR"))
}

#[test]
fn bad_arguments_are_one_line_diagnostics_not_panics() {
    let fig5 = env!("CARGO_BIN_EXE_fig5");
    let portability = env!("CARGO_BIN_EXE_portability");
    let bad_path = unwritable();
    for (bin, args, message) in [
        (fig5, vec!["0"], "TILE must be in 1..=N (N = 0), got 1"),
        (
            fig5,
            vec!["8192", "0"],
            "TILE must be in 1..=N (N = 8192), got 0",
        ),
        (fig5, vec!["4096", "4097"], "TILE must be in 1..=N"),
        (fig5, vec!["8192", "1"], "over the limit of 2097152"),
        (fig5, vec!["8192", "63"], "over the limit of 2097152"),
        (fig5, vec!["64", "16", "--json", &bad_path], "cannot write"),
        (fig5, vec!["64", "16", "--trace", &bad_path], "cannot write"),
        (fig5, vec!["64", "16", "4"], "unknown argument \"4\""),
        (fig5, vec!["--bogus"], "unknown argument \"--bogus\""),
        (portability, vec!["--json", &bad_path], "cannot write"),
        (portability, vec!["--bogus"], "unknown argument \"--bogus\""),
    ] {
        let out = Command::new(bin).args(&args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let name = if bin == fig5 { "fig5" } else { "portability" };
        assert_eq!(out.status.code(), Some(1), "{name} {args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{name} {args:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("{name}: ")),
            "{name} {args:?}: {stderr}"
        );
        assert!(stderr.contains(message), "{name} {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name} {args:?}: {stderr}");
    }
}

/// Matrices far past the paper's still run. From N = 2³² a tile's byte
/// count does not fit a `usize`, and at N = 2⁶⁴ − 1 a Gantt row also holds
/// a span that starts at the makespan.
#[test]
fn huge_matrices_run_to_the_end() {
    for n in ["4294967296", "18446744073709551615"] {
        let out = Command::new(env!("CARGO_BIN_EXE_fig5"))
            .arg(n)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "fig5 {n}: {stderr}");
        assert!(String::from_utf8_lossy(&out.stdout).contains("starpu+2gpu"));
    }
}
