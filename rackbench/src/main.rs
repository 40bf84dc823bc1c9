//! rackbench: the end-to-end and per-layer benchmark of rackfabric.
//!
//! ```text
//! rackbench --workload <figures_paper|shuffle_8x8|daemon_mixed>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The command runs each workload's measuring processes
//! (`rackbench phase ...`, this same binary), checks their outputs, prints
//! one line per metric and, last, one JSON object with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). See
//! `README.md` beside this crate for the workloads and metrics.

mod cli;
mod daemon;
mod figures;
mod host;
mod layers;
mod phase;
mod shuffle;
mod spans;
mod stats;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = if argv.first().map(String::as_str) == Some("phase") {
        cli::run_phase(&argv[1..])
    } else {
        cli::run(&argv)
    };
    std::process::exit(code);
}
