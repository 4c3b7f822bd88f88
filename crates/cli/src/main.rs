//! `jigsaw-sched` — command-line front end for the Jigsaw scheduler
//! toolkit.
//!
//! ```text
//! jigsaw-sched topo  <radix>
//! jigsaw-sched alloc <radix> --sizes 3,17,64 [--scheme jigsaw|laas|ta|lcs|baseline]
//! jigsaw-sched sim   --trace <Synth-16|Thunder|...|file.swf> [--scheme S]
//!                    [--scale F] [--scenario none|5%|10%|20%|v2|random] [--json]
//! jigsaw-sched trace --name <Synth-16|Thunder|...> [--scale F] [--swf|--json]
//! jigsaw-sched serve <radix> [--scheme S] [--journal DIR]
//!                    [--snapshot-every N]       # stdin/stdout session
//!                    [--listen ADDR] [--max-conns N] [--max-batch N]
//!                    [--idle-timeout-ms MS]     # multi-client TCP daemon
//! ```
//!
//! The companion `jigsaw-loadgen` binary (same crate) drives a running
//! daemon with concurrent connections for saturation measurements.

mod args;
mod cmd_alloc;
mod cmd_serve;
mod cmd_sim;
mod cmd_topo;
mod cmd_trace;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        Some("topo") => cmd_topo::run(&argv[1..]),
        Some("alloc") => cmd_alloc::run(&argv[1..]),
        Some("serve") => cmd_serve::run(&argv[1..]),
        Some("sim") => cmd_sim::run(&argv[1..]),
        Some("trace") => cmd_trace::run(&argv[1..]),
        Some("--help") | Some("-h") | None => {
            print!("{}", usage());
            0
        }
        Some(other) => {
            eprintln!("error: unknown command `{other}`\n\n{}", usage());
            2
        }
    };
    std::process::exit(code);
}

/// The usage text, with the built-in trace names from
/// [`jigsaw_traces::builtin`]'s table.
fn usage() -> String {
    let names: Vec<&str> = jigsaw_traces::builtin::names().collect();
    let traces: Vec<String> = names.chunks(6).map(|row| row.join(" ")).collect();
    format!(
        "\
jigsaw-sched — the Jigsaw fat-tree scheduler toolkit

USAGE:
  jigsaw-sched topo  <radix>                     describe a maximal fat-tree
  jigsaw-sched alloc <radix> --sizes 3,17,64     allocate jobs, show partitions
        [--scheme jigsaw|laas|ta|lcs|baseline]
  jigsaw-sched sim   --trace <name|file.swf>     simulate a job queue
        [--scheme S] [--scale F] [--scenario none|5%|10%|20%|v2|random]
        [--radix R] [--json] [--metrics]
  jigsaw-sched trace --name <name> [--scale F]   generate a workload
        [--swf | --json]
  jigsaw-sched serve <radix> [--scheme S]        online allocation service
        [--journal DIR] [--snapshot-every N]
        [--listen ADDR] [--max-conns N] [--max-batch N]
        [--idle-timeout-ms MS]
        (line protocol: send HELP for every verb and its arguments,
         which the service also lists on stderr at start; replies are
         `OK <VERB> ...` or `ERR <code> <msg>`; --journal makes the
         service durable and recovers state from DIR on start; --listen
         turns the stdin session into a multi-client TCP daemon with
         group-commit fsync batching — it prints `LISTENING <addr>` once
         bound and exits on SHUTDOWN)

Built-in traces: {}
",
        traces.join("\n                 ")
    )
}
