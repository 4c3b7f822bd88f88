//! `jigsaw-bench <experiment> [flags]`: run one experiment of the
//! evaluation (see [`jigsaw_bench::experiments::EXPERIMENTS`]), or `all`.
//! Exit status 2 for a bad command line, 1 for a failed experiment.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Err(failure) = jigsaw_bench::experiments::run(&argv) {
        eprintln!("error: {failure}");
        std::process::exit(failure.exit_code());
    }
}
