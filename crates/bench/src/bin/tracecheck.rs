//! Validate Chrome trace-event JSON produced by the experiment harness.
//!
//! ```sh
//! TMAN_TRACE_DIR=target/traces cargo run -p tman-bench --bin experiments -- --quick e10
//! cargo run -p tman-bench --bin tracecheck              # checks $TMAN_TRACE_DIR
//! cargo run -p tman-bench --bin tracecheck -- a.json b.json
//! cargo run -p tman-bench --bin tracecheck -- --expect action e10.json
//! ```
//!
//! The validator is the serde-free recursive-descent parser in
//! `tman-telemetry`, so this doubles as an end-to-end check that the
//! export round-trips without any JSON dependency. Exits non-zero when a
//! file fails to parse, when no files are found, or when every file is
//! empty (tracing never engaged).
//!
//! `--expect NAME` (repeatable) additionally requires that a span with
//! that name appears in at least one checked file.

use std::collections::BTreeSet;
use tman_telemetry::trace::validate_chrome_trace_names;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut expect: Vec<String> = Vec::new();
    let mut paths: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--expect" {
            match it.next() {
                Some(name) => expect.push(name),
                None => {
                    eprintln!("tracecheck: --expect requires a span name");
                    std::process::exit(1);
                }
            }
        } else {
            paths.push(a);
        }
    }
    let files: Vec<std::path::PathBuf> = if paths.is_empty() {
        let dir = std::env::var("TMAN_TRACE_DIR").unwrap_or_else(|_| "target/traces".into());
        match std::fs::read_dir(&dir) {
            Ok(rd) => {
                let mut v: Vec<_> = rd
                    .filter_map(|e| e.ok().map(|e| e.path()))
                    .filter(|p| p.extension().is_some_and(|x| x == "json"))
                    .collect();
                v.sort();
                v
            }
            Err(e) => {
                eprintln!("tracecheck: cannot read {dir}: {e}");
                std::process::exit(1);
            }
        }
    } else {
        paths.iter().map(std::path::PathBuf::from).collect()
    };
    if files.is_empty() {
        eprintln!("tracecheck: no trace files to check");
        std::process::exit(1);
    }
    let mut total = 0usize;
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut failed = false;
    for path in &files {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("tracecheck: FAIL {}: {e}", path.display());
                failed = true;
                continue;
            }
        };
        match validate_chrome_trace_names(&text) {
            Ok((n, names)) => {
                println!("tracecheck: ok   {} ({n} events)", path.display());
                total += n;
                seen.extend(names);
            }
            Err(e) => {
                eprintln!("tracecheck: FAIL {}: {e}", path.display());
                failed = true;
            }
        }
    }
    for name in &expect {
        if !seen.contains(name) {
            eprintln!("tracecheck: FAIL expected span \"{name}\" in no file (saw: {seen:?})");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    if total == 0 {
        eprintln!("tracecheck: all files parsed but contain zero events — tracing never engaged");
        std::process::exit(1);
    }
    println!(
        "tracecheck: {} file(s), {total} events, all valid",
        files.len()
    );
}
