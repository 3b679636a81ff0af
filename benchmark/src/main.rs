//! wsrep-benchmark — the repo's one benchmark.
//!
//! ```text
//! wsrep-benchmark --server-bin PATH [--workload NAME] [--seed N]
//!                 [--seconds S] [--trace 0|1] [--out DIR] [--tmp DIR]
//!                 [--quick] [--repeat N]
//! ```
//!
//! With `--workload`, runs that workload once — untraced (`--trace 0`, the
//! end-to-end metrics) or traced (`--trace 1`, the per-layer metrics) —
//! and prints, as the last line of standard output, one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! Without it, runs every workload untraced and then traced. `--repeat N`
//! runs N untraced sets and prints each metric's spread. Whenever more than
//! one run is asked for, each runs in a process of its own (this binary,
//! started again with `--workload`), because a run's memory figures mean
//! something only on a heap that has seen nothing else. See README.md.

mod hist;
mod host;
mod layers;
mod population;
mod rng;
mod schema;
mod trace;
mod wire;
mod workloads;

use schema::Metric;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use workloads::{Config, RunOutput, Workload, NOMINAL_SECONDS};

/// `--quick` shortens every window to this and leaves their number alone:
/// about 2 s of windows. For self-tests only; the figures mean nothing.
const QUICK_WINDOW: Duration = Duration::from_millis(100);

struct Args {
    config: Config,
    seconds: f64,
    workload: Option<Workload>,
    trace: Option<bool>,
    quick: bool,
    repeat: Option<usize>,
    /// Started by another wsrep-benchmark, which has printed the manifest.
    child: bool,
}

fn usage(problem: &str) -> ! {
    eprintln!("wsrep-benchmark: {problem}");
    eprintln!(
        "usage: wsrep-benchmark --server-bin PATH [--workload {}] [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--tmp DIR] [--quick] [--repeat N]",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut server_bin = None;
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = PathBuf::from(".bench_out");
    let mut tmp_root = PathBuf::from(".bench_tmp");
    let mut quick = false;
    let mut repeat = None;
    let mut child = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        if flag == "--child" {
            child = true;
            continue;
        }
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let number = |what: &str| -> f64 {
            value
                .parse()
                .ok()
                .filter(|n: &f64| n.is_finite() && *n > 0.0)
                .unwrap_or_else(|| usage(&format!("{flag} expects {what}, got {value:?}")))
        };
        match flag.as_str() {
            "--server-bin" => server_bin = Some(PathBuf::from(&value)),
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value:?}"))),
                )
            }
            "--seed" => {
                seed = value.parse().unwrap_or_else(|_| {
                    usage(&format!("--seed expects a whole number, got {value:?}"))
                })
            }
            "--seconds" => seconds = Some(number("a number of seconds")),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace expects 0 or 1"),
                })
            }
            "--out" => out_dir = PathBuf::from(&value),
            "--tmp" => tmp_root = PathBuf::from(&value),
            "--repeat" => repeat = Some((number("a count") as usize).max(2)),
            _ => usage(&format!("unknown argument {flag:?}")),
        }
    }
    let server_bin =
        server_bin.unwrap_or_else(|| usage("--server-bin is required (run.sh passes it)"));
    // What `BENCHMARK.json` tells the driver to pass is the default.
    let seconds = seconds.unwrap_or(NOMINAL_SECONDS);
    Args {
        config: Config {
            seed,
            scale: seconds / NOMINAL_SECONDS,
            window: if quick {
                QUICK_WINDOW
            } else {
                Duration::from_secs(1)
            },
            server_bin,
            tmp_root,
            out_dir,
        },
        seconds,
        workload,
        trace,
        quick,
        repeat,
        child,
    }
}

/// Provenance, printed before any figure.
fn print_manifest(args: &Args, journal_fs: &str) {
    let cfg = &args.config;
    println!("# wsrep-benchmark manifest");
    println!(
        "commit          {}",
        host::tool_line("git", &["rev-parse", "HEAD"])
    );
    println!(
        "nproc           {}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!("kernel          {}", host::kernel_release());
    println!(
        "rustc           {}",
        host::tool_line("rustc", &["--version"])
    );
    println!("journal fs      {journal_fs} ({})", cfg.tmp_root.display());
    println!(
        "transport       loopback TCP (127.0.0.1), server --workers=2, generator <= {} threads and connections",
        workloads::CONNECTIONS
    );
    println!("seed            {}", cfg.seed);
    println!(
        "phase lengths   --seconds {}: {} lifecycles (a traced run: 1), windows of {} s, {:.2} x the window counts in README.md",
        args.seconds,
        workloads::CYCLES,
        cfg.window.as_secs_f64(),
        cfg.scale
    );
    if args.quick {
        println!("QUICK RUN       windows of 0.1 s: a self-test of the harness, not a measurement");
    }
    println!();
}

fn run_one(cfg: &Config, workload: Workload, traced: bool) -> std::io::Result<RunOutput> {
    if traced {
        layers::traced_run(cfg, workload)
    } else {
        workloads::run(cfg, workload)
    }
}

/// A run is correct when every check passed, no operation failed, and the
/// result line carries exactly the run kind's schema.
fn is_correct(out: &RunOutput) -> bool {
    !out.incorrect && out.tally.failed == 0
}

/// `{"name": {"value": …, "unit": "…"}, …}`
fn metrics_json(metrics: &[Metric]) -> String {
    let mut json = String::from("{");
    for (i, metric) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            metric.name, metric.value, metric.unit
        );
    }
    json.push('}');
    json
}

/// The result line the driver reads.
fn result_json(out: &RunOutput) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        is_correct(out),
        out.tally.attempted,
        out.tally.failed,
        metrics_json(&out.report.metrics)
    )
}

/// The `(name, value)` pairs of the lines [`print_metric`] wrote.
fn parse_printed(stdout: &str) -> Vec<(String, f64)> {
    stdout
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_ascii_whitespace();
            let name = fields.next().filter(|name| schema::is_metric(name))?;
            Some((name.to_string(), fields.next()?.parse().ok()?))
        })
        .collect()
}

fn print_metric(metric: &Metric) {
    let Metric {
        name,
        value,
        unit,
        detail,
    } = metric;
    println!("{name:<34} {value:>18.6} {unit:<13} {detail}");
}

fn print_metrics(workload: Workload, traced: bool, out: &RunOutput) {
    let workload = workload.name();
    if traced {
        println!("## {workload} (traced: per-layer metrics)");
    } else {
        println!("## {workload} (untraced: end-to-end metrics)");
    }
    out.report.metrics.iter().for_each(print_metric);
    if !out.timings.metrics.is_empty() {
        println!(
            "## {workload} (untraced: the timing figures, per-layer metrics, gated by nothing)"
        );
        out.timings.metrics.iter().for_each(print_metric);
    }
    for note in &out.notes {
        println!("  note: {note}");
    }
}

/// Run and print; `None` when the run could not finish.
fn run_and_print(cfg: &Config, workload: Workload, traced: bool) -> Option<RunOutput> {
    let mut out = match run_one(cfg, workload, traced) {
        Ok(out) => out,
        Err(err) => {
            eprintln!("wsrep-benchmark: {}: {err}", workload.name());
            return None;
        }
    };
    if let Err(problem) = schema::check_emitted(&out.report.metrics, traced) {
        out.incorrect = true;
        out.notes.push(format!("CHECK FAILED: schema: {problem}"));
    }
    print_metrics(workload, traced, &out);
    println!("{}", result_json(&out));
    Some(out)
}

/// What a run in a process of its own printed.
struct ChildRun {
    correct: bool,
    /// Every figure of its table, gated or not.
    values: Vec<(String, f64)>,
}

/// Run one workload in a fresh process and relay what it prints.
fn run_child(args: &Args, workload: Workload, seed: u64, traced: bool) -> Option<ChildRun> {
    let cfg = &args.config;
    let exe = std::env::current_exe().ok()?;
    let mut command = std::process::Command::new(exe);
    command
        .arg("--child")
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--server-bin")
        .arg(&cfg.server_bin)
        .arg("--tmp")
        .arg(&cfg.tmp_root)
        .arg("--out")
        .arg(&cfg.out_dir);
    if args.quick {
        command.arg("--quick");
    }
    let output = command
        .stderr(std::process::Stdio::inherit())
        .output()
        .ok()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let result = stdout
        .lines()
        .next_back()
        .filter(|line| line.starts_with("{\"correct\""))?;
    Some(ChildRun {
        correct: output.status.success() && result.starts_with("{\"correct\": true"),
        values: parse_printed(&stdout),
    })
}

/// `--repeat N`: N untraced sets; per figure the median, quartiles and
/// range. `false` when any two sets differ on an end-to-end metric by more
/// than its bound, as a share of the median.
fn repeat_sets(args: &Args, workloads: &[Workload], sets: usize) -> bool {
    let seed = args.config.seed;
    let mut ok = true;
    let mut table = String::new();
    for &workload in workloads {
        let mut values: Vec<(String, Vec<f64>)> = Vec::new();
        for set in 0..sets {
            let Some(run) = run_child(args, workload, seed + set as u64, false) else {
                return false;
            };
            ok &= run.correct;
            for (name, value) in run.values {
                match values.iter_mut().find(|(known, _)| *known == name) {
                    Some((_, seen)) => seen.push(value),
                    None => values.push((name, vec![value])),
                }
            }
        }
        for (name, seen) in &values {
            let median = hist::median(seen).expect("sets >= 2");
            let (q1, q3) = hist::quartiles(seen).expect("sets >= 2");
            let (min, max) = seen
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            let iqr = (q3 - q1) / median;
            let range = (max - min) / median;
            let verdict = match schema::bound_of(name) {
                None => "not gated".to_string(),
                Some(bound) if range <= bound => format!("within {bound}"),
                Some(bound) => {
                    ok = false;
                    format!("EXCEEDS {bound}")
                }
            };
            let _ = writeln!(
                table,
                "| {} | {name} | {median:.4} | {q1:.4} | {q3:.4} | {iqr:.4} | {range:.4} | {verdict} |",
                workload.name()
            );
        }
    }
    println!();
    println!(
        "# repeatability over {sets} sets (seeds {seed}..={})",
        seed + sets as u64 - 1
    );
    println!(
        "| workload | metric | median | q1 | q3 | (q3-q1)/median | (max-min)/median | bound |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    print!("{table}");
    ok
}

fn main() -> ExitCode {
    let args = parse_args();
    let cfg = &args.config;
    if let Err(err) = std::fs::create_dir_all(&cfg.tmp_root) {
        eprintln!(
            "wsrep-benchmark: cannot create {}: {err}",
            cfg.tmp_root.display()
        );
        return ExitCode::FAILURE;
    }
    let journal_fs = host::filesystem_type(&cfg.tmp_root).unwrap_or_else(|_| "unknown".into());
    if !args.child {
        print_manifest(&args, &journal_fs);
    }
    if journal_fs == "tmpfs" || journal_fs == "ramfs" {
        // Every workload journals; on a RAM filesystem fdatasync is free
        // and the write path would measure nothing.
        eprintln!(
            "wsrep-benchmark: {} is on {journal_fs}; pass --tmp DIR on a disk-backed filesystem",
            cfg.tmp_root.display()
        );
        return ExitCode::FAILURE;
    }
    let selected: Vec<Workload> = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let ok = if let Some(sets) = args.repeat {
        repeat_sets(&args, &selected, sets)
    } else if let Some(workload) = args.workload {
        // One run, in this process: the kind --trace names, untraced by
        // default. This is how the driver calls.
        let traced = args.trace.unwrap_or(false);
        run_and_print(cfg, workload, traced).is_some_and(|out| is_correct(&out))
    } else {
        // Every workload: untraced, then traced, unless --trace picks one.
        let kinds = args.trace.map_or(vec![false, true], |traced| vec![traced]);
        let mut ok = true;
        for traced in kinds {
            for &workload in &selected {
                ok &= run_child(&args, workload, cfg.seed, traced).is_some_and(|run| run.correct);
            }
        }
        ok
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn printed_figures_are_read_back_by_name() {
        let printed = "# wsrep-benchmark manifest\nseed            42\n## wire_select (untraced: end-to-end metrics)\nsetup_s                   1.250000 s   median of 3 set-ups: 1 1.25 2\nquery_qps            438620.000000 req/s  median of 9 windows\n  note: setup_s 9\n{\"correct\": true}\n";
        assert_eq!(
            parse_printed(printed),
            [
                ("setup_s".to_string(), 1.25),
                ("query_qps".to_string(), 438620.0)
            ]
        );
    }

    #[test]
    fn result_line_has_the_contract_s_shape() {
        let mut out = RunOutput::default();
        out.report.put("setup_s", 1.25, "");
        out.timings.put("query_qps", 9.0, "");
        assert_eq!(
            result_json(&out),
            "{\"correct\": true, \"attempted\": 0, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
