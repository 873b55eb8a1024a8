//! Regenerates the portability sweep (DESIGN.md Abl. E): one annotated
//! input program translated against several PDL descriptors without source
//! changes; then every other ablation table (Abl. A, B, D, F–I).
//!
//! `--json [PATH]` additionally writes the sweep as machine-readable JSON
//! (default `BENCH_portability.json`). A bad argument or an unwritable path
//! exits 1 with one `portability:` line on stderr.

fn main() {
    if let Err(e) = run() {
        eprintln!("portability: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), String> {
    let mut json_path: Option<String> = None;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => {
                json_path = Some(match args.peek() {
                    Some(p) if !p.starts_with("--") => args.next().unwrap(),
                    _ => "BENCH_portability.json".to_string(),
                });
            }
            other => {
                return Err(format!(
                    "unknown argument {other:?}; usage: portability [--json [PATH]]"
                ))
            }
        }
    }

    let cells = bench::portability::run();
    println!("Portability sweep — identical input programs, varying PDL descriptor only\n");
    println!("{}", bench::portability::render(&cells));
    if let Some(path) = &json_path {
        std::fs::write(path, bench::portability::to_json(&cells).to_pretty())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote sweep JSON to {path}\n");
    }
    print!("{}", bench::ablations::render());
    Ok(())
}
