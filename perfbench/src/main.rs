//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload of the repository benchmark and prints, as the last
//! line of standard output, one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}` —
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Run metadata and a readable summary go to the lines
//! before it. A failed correctness check exits non-zero without a result.

use std::process::ExitCode;
use std::time::Duration;

use perfbench::{measure, Report, Spec, Workload};

// Lights up the allocator counters behind `alloc.*_per_event`.
#[global_allocator]
static ALLOC: simnet::CountingAlloc = simnet::CountingAlloc;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let workload = Workload::parse(workload)
        .ok_or_else(|| format!("unknown workload {workload:?}; one of {names:?}"))?;
    let num = |flag| {
        get(flag)?
            .parse::<u64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds: num("--seconds")?,
        trace,
    })
}

/// Output of a helper command, trimmed; "unknown" if it cannot run.
fn command_output(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        // Only a repository rooted here names the commit; never search the
        // directories above.
        .env("GIT_DIR", ".git")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn meta_line(args: &Args, r: &Report) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"meta\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"passes\": {}, \"traced_passes\": {}, \"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \
         \"commit\": {}}}}}",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        args.trace,
        r.passes.len(),
        r.traced.len(),
        nproc,
        json_str(&cpu),
        json_str(&command_output("rustc", &["--version"])),
        json_str(&command_output("git", &["rev-parse", "HEAD"])),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = Spec::of(args.workload);
    let passes = spec.passes(args.seconds);
    let report = match measure(&spec, args.seed, passes, args.trace, Duration::ZERO) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: correctness check failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", meta_line(&args, &report));
    for (i, p) in report.passes.iter().enumerate() {
        let traced = report.traced.get(i).map_or(String::new(), |t| {
            format!(", traced wall {:.4} s", t.host.wall_s)
        });
        println!(
            "pass {i}: setup {:.6} s, wall {:.4} s{traced}",
            p.host.setup_s, p.host.wall_s
        );
    }
    for (rate, achieved, p99) in &report.sim.rungs {
        println!(
            "rung {:>8.0} RPS: achieved {:>8.0} RPS, p99 {:>9.1} us",
            rate,
            achieved,
            *p99 as f64 / 1e3
        );
    }
    for m in &report.metrics {
        println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted(),
        report.failed(),
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
