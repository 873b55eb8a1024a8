//! Static analysis for platform descriptions, annotated task programs and
//! recorded run traces.
//!
//! `pdl-analyze` is the diagnostics engine of this workspace.  It turns the
//! ad-hoc validity checks scattered across the lower crates into a single
//! rustc-style report model ([`Diagnostic`], [`Report`]) with stable codes:
//!
//! * `P0xx`/`P1xx` — platform model and PDL source findings
//!   ([`analyze_platform`], [`analyze_platform_source`]),
//! * `C0xx`/`C1xx` — Cascabel program and mapping findings
//!   ([`analyze_program`], [`analyze_program_source`]),
//! * `T0xx` — trace-replay findings from comparing a recorded
//!   [`hetero_trace::RunTrace`] against the declared task graph
//!   ([`check_trace`]) and its transfer lanes against the declared
//!   platform interconnects ([`check_trace_links`]),
//! * `A0xx` — runtime anomaly findings from a single trace: stragglers,
//!   load imbalance, steal storms, saturated links and lossy trace
//!   windows ([`check_trace_anomalies`]),
//! * `M0xx` — coherence-model findings from exhaustively exploring the
//!   data layer's protocol over bounded platform configurations
//!   ([`check_configs`]), each violation carrying a minimized
//!   counterexample trace.
//!
//! Every code is documented, with a minimal triggering example, in
//! `docs/ANALYSIS.md`.  `pdl check` drives all the passes
//! from the command line; [`render_json`] provides machine-readable
//! output for CI.
//!
//! ```
//! let platform = pdl_discover::synthetic::xeon_2gpu_testbed();
//! let report = pdl_analyze::analyze_platform(&platform);
//! assert!(report.is_empty());
//! ```

pub mod anomaly;
pub mod expect;
pub mod model;
pub mod platform;
pub mod program;
pub mod render;
pub mod trace;

pub use pdl_core::diag::{Diagnostic, Report, Severity, Span};

pub use anomaly::check_trace_anomalies;
pub use model::{bounded_configs, check_configs, model_check_json};
pub use platform::{analyze_pinned, analyze_platform, analyze_platform_source};
pub use program::{analyze_program, analyze_program_source};
pub use render::render_json;
pub use trace::{check_trace, check_trace_links, check_trace_utilization};

use pdl_core::platform::Platform;

/// Analyzes one source file, dispatching on its extension.
///
/// `.xml` and `.pdl` files are treated as platform descriptions; `.c`, `.h`
/// and `.cascabel` files as annotated task programs (which are additionally
/// mapping-checked against each platform in `platforms`); `.json` files as
/// exported run traces (checked structurally, for group starvation, and
/// against each platform's declared links).  Returns `Err` for extensions
/// the analyzer does not understand.
pub fn analyze_source_file(
    path: &str,
    contents: &str,
    platforms: &[Platform],
) -> Result<Report, String> {
    let ext = path.rsplit('.').next().unwrap_or("");
    match ext {
        "xml" | "pdl" => Ok(analyze_platform_source(path, contents).1),
        "c" | "h" | "cascabel" => Ok(analyze_program_source(path, contents, platforms)),
        "json" => Ok(trace::analyze_trace_source(path, contents, platforms)),
        other => Err(format!(
            "{path}: unsupported file extension {other:?} (expected .xml, .pdl, .c, .h, .cascabel or .json)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_recognises_extensions() {
        assert!(analyze_source_file("a.xml", "<platform", &[]).is_ok());
        assert!(analyze_source_file("a.c", "int main() { return 0; }", &[]).is_ok());
        assert!(analyze_source_file("a.txt", "", &[]).is_err());
        // A .json file that is not a trace document still dispatches (and
        // reports T001 rather than erroring out).
        let report = analyze_source_file("a.json", "{}", &[]).unwrap();
        assert_eq!(report.codes(), ["T001"]);
    }
}
