//! `edgebol-perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints a meta line (run identity, output digest, sample counts) and,
//! as the last line, the result: `{"correct", "attempted", "failed",
//! "metrics"}`. Exits 1 when a correctness check fails and 2 when the
//! run cannot be measured.

use edgebol_perfbench::report::catalogue;
use edgebol_perfbench::run::{meta, run, Args};
use edgebol_perfbench::wrap::Span;
use std::io::Write;
use std::process::ExitCode;

/// Where traced runs write their spans, relative to the working
/// directory.
const SPAN_DIR: &str = ".bench_spans";

fn write_spans(args: &Args, spans: &[Span]) -> std::io::Result<String> {
    std::fs::create_dir_all(SPAN_DIR)?;
    let path = format!("{SPAN_DIR}/{}-seed{}.csv", args.workload.name(), args.seed);
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(f, "rep,period,span,start_ns,dur_ns")?;
    for s in spans {
        writeln!(f, "{},{},{},{},{}", s.rep, s.period, s.name, s.start_ns, s.dur_ns)?;
    }
    f.flush()?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: --workload <paper-episode|fleet-warm|control-plane> --seed <n> --seconds <n> --trace <0|1>\n{e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        match write_spans(&args, &outcome.spans) {
            Ok(path) => eprintln!("spans written to {path}"),
            Err(e) => {
                eprintln!("writing spans failed: {e}");
                return ExitCode::from(2);
            }
        }
    }
    for p in &outcome.problems {
        eprintln!("check failed: {p}");
    }
    let line = match outcome.result.render(catalogue(args.trace)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", meta(&args, &outcome));
    println!("{line}");
    if outcome.result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
