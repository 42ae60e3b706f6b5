//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     run [--workload W|all] [--seed S] [--seconds N] [--trace 0|1] [--out DIR] [--smoke]
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- compare PARENT_DIR CHANGE_DIR
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- reference [--workload W|all]
//! ```
//!
//! `run` prints every metric as `workload metric value unit`, checks
//! every runner's output, writes `DIR/<workload>.json` and
//! `DIR/<workload>.trace.json`, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` measures
//! and reports the end-to-end metrics, `--trace 1` adds the traced pass
//! and layer replay and reports the per-layer metrics; without the flag
//! it does both. `--child` is the per-pass process the driver spawns.

mod catalog;
mod check;
mod child;
mod compare;
mod driver;
mod probes;
mod stats;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => driver::run(&args[1..]),
        Some("compare") => compare::compare(&args[1..]),
        Some("reference") => driver::reference(&args[1..]),
        Some("--child") => child::main(&args[1..]),
        _ => {
            eprintln!(
                "usage: msc-benchmark run [--workload W|all] [--seed S] [--seconds N] \
                 [--trace 0|1] [--out DIR] [--smoke]\n       \
                 msc-benchmark compare PARENT_DIR CHANGE_DIR\n       \
                 msc-benchmark reference [--workload W|all]"
            );
            2
        }
    };
    std::process::exit(code);
}
