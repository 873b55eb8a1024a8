//! Regenerates Figure 5 of the paper: speedup of the translated DGEMM
//! (`single` → `starpu` → `starpu+2gpu`).
//!
//! Usage: `cargo run -p bench --bin fig5 [N] [TILE] [--json [PATH]] [--trace [PATH]]`
//! Defaults to the paper's 8192 with tile 2048. `--json` writes the
//! machine-readable run summary (default `BENCH_fig5.json`); `--trace`
//! writes a <chrome://tracing> view of the `starpu+2gpu` row (default
//! `fig5_trace.json`). A bad argument or an unwritable path exits 1 with
//! one `fig5:` line on stderr.

fn main() {
    if let Err(e) = run() {
        eprintln!("fig5: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), String> {
    let mut n: usize = 8192;
    let mut tile: Option<usize> = None;
    let mut json_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut positional = 0;

    let mut args = std::env::args().skip(1).peekable();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => {
                json_path = Some(match args.peek() {
                    Some(p) if !p.starts_with("--") && p.parse::<usize>().is_err() => {
                        args.next().unwrap()
                    }
                    _ => "BENCH_fig5.json".to_string(),
                });
            }
            "--trace" => {
                trace_path = Some(match args.peek() {
                    Some(p) if !p.starts_with("--") && p.parse::<usize>().is_err() => {
                        args.next().unwrap()
                    }
                    _ => "fig5_trace.json".to_string(),
                });
            }
            other => match (positional, other.parse::<usize>()) {
                (0, Ok(v)) => {
                    n = v;
                    positional = 1;
                }
                (1, Ok(v)) => {
                    tile = Some(v);
                    positional = 2;
                }
                _ => return Err(format!("unknown argument {other:?}")),
            },
        }
    }
    let tile = tile.unwrap_or_else(|| (n / 4).max(1));
    kernels::graphs::check_dgemm_size(n, tile)?;

    let results = bench::fig5::run(n, tile);
    println!("{}", results.render());

    println!(
        "paper-reported shape: single = 1.0x, starpu (8 cores) ≈ 7-8x, starpu+2gpu ≫ starpu\n"
    );

    for row in &results.rows {
        println!("--- {} ({}s makespan) ---", row.label, row.makespan_s);
        println!("per-PU utilization:");
        for (pu, u) in &row.utilization {
            println!(
                "  {pu:>8}: {:>5.1}%  |{}|",
                u * 100.0,
                "#".repeat((u * 40.0) as usize)
            );
        }
        if row.bytes_to_devices > 0.0 {
            println!(
                "  host->device traffic: {:.1} MB",
                row.bytes_to_devices / 1e6
            );
        }
        println!("{}", row.gantt);
    }

    if let Some(path) = json_path {
        std::fs::write(&path, results.to_json().to_pretty())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote run summary to {path}");
    }
    if let Some(path) = trace_path {
        let row = results
            .row("starpu+2gpu")
            .expect("starpu+2gpu row always present");
        std::fs::write(&path, hetero_trace::chrome::export(&row.trace))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote chrome trace of starpu+2gpu to {path} (open at chrome://tracing)");
    }
    Ok(())
}
