//! paired — runs the benchmark on two commits, alternating, and says per
//! end-to-end metric whether the second is better, worse or unresolved.
//!
//! ```text
//! paired --parent REV --change REV --workload NAME [--seed N] [--dir DIR]
//! ```
//!
//! Defaults: seed 42, work directory `.paired`. Run it from inside the
//! repository. Each commit is exported with `git archive` into
//! `DIR/tree-SHA` and built (offline, release: `wsrep-server` and the
//! benchmark package) into its own `DIR/target-SHA`, so the two builds
//! share nothing. Then pair `i` of [`PAIRS`] runs
//! `wsrep-benchmark --workload NAME --seed N --seconds S --trace 0` once
//! on each tree, the parent first in even pairs and the change first in
//! odd ones; `S` is the change's `BENCHMARK.json` `run_seconds`, the
//! length the benchmark sets. Every run's JSON result line is appended raw
//! to `DIR/runs-NAME.txt` as `PAIR parent|change SHA LINE` (`null` for a
//! run that failed: a nonzero exit, or a result that is not correct).
//!
//! The end-to-end metrics, their direction and their bound come from the
//! change's `BENCHMARK.json`. Every pair run counts: a pair whose change
//! run failed is a loss, one whose parent run alone failed is a tie. A
//! metric is **better** when the change wins at least nine pairs in ten,
//! its median beats the parent's by more than the parent's interquartile
//! range, and it failed no more runs than the parent; **worse** when it
//! loses nine in ten and its median trails by more than that range;
//! otherwise **unresolved**. To compare uncommitted work, stage it and
//! pass the commit `git stash create` prints as `--change`.
//!
//! Nothing gates on this: the exit status is 0 whatever the verdicts and
//! however many runs failed. A commit that does not resolve or build
//! stops it with a panic.

use std::fmt;
use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Pairs run per comparison: the fewest the nine-in-ten rule reads on.
const PAIRS: usize = 10;

struct Config {
    parent: String,
    change: String,
    workload: String,
    seed: u64,
    dir: PathBuf,
}

fn usage(message: &str) -> ! {
    eprintln!("paired: {message}; usage: paired --parent REV --change REV --workload NAME [--seed N] [--dir DIR]");
    std::process::exit(2);
}

fn parse_args() -> Config {
    let mut args = std::env::args().skip(1);
    let (mut parent, mut change, mut workload) = (None, None, None);
    let mut seed = 42;
    let mut dir = PathBuf::from(".paired");
    while let Some(flag) = args.next() {
        let (name, inline) = match flag.split_once('=') {
            Some((name, value)) => (name.to_string(), Some(value.to_string())),
            None => (flag.clone(), None),
        };
        let value = inline
            .or_else(|| args.next())
            .unwrap_or_else(|| usage(&format!("{name} needs a value")));
        match name.as_str() {
            "--parent" => parent = Some(value),
            "--change" => change = Some(value),
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = value
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("--seed: not a number: {value}")))
            }
            "--dir" => dir = PathBuf::from(value),
            _ => usage(&format!("unknown flag {name}")),
        }
    }
    Config {
        parent: parent.unwrap_or_else(|| usage("--parent is required")),
        change: change.unwrap_or_else(|| usage("--change is required")),
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed,
        dir,
    }
}

/// Run `command`, failing the whole comparison when it fails.
fn run(command: &mut Command, what: &str) -> String {
    let output = command
        .stderr(Stdio::inherit())
        .output()
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    assert!(output.status.success(), "{what}: {}", output.status);
    String::from_utf8_lossy(&output.stdout).into_owned()
}

/// One commit, exported and built: where its tree and its binaries are.
struct Build {
    sha: String,
    tree: PathBuf,
    target: PathBuf,
}

impl Build {
    fn new(rev: &str, dir: &Path) -> Build {
        let sha = run(
            Command::new("git").args(["rev-parse", "--short=12", &format!("{rev}^{{commit}}")]),
            "git rev-parse",
        )
        .trim()
        .to_string();
        let tree = dir.join(format!("tree-{sha}"));
        let target = dir.join(format!("target-{sha}"));
        if !tree.join("BENCHMARK.json").exists() {
            fs::create_dir_all(&tree).expect("create the tree directory");
            let export = format!(
                "git archive --format=tar {sha} | tar -x -C '{}'",
                tree.display()
            );
            run(Command::new("sh").args(["-c", &export]), "git archive");
        }
        let server = [
            "build",
            "--release",
            "-p",
            "wsrep-server",
            "--bin",
            "wsrep-server",
        ];
        let benchmark = [
            "build",
            "--release",
            "--manifest-path",
            "benchmark/Cargo.toml",
        ];
        for args in [&server[..], &benchmark[..]] {
            eprintln!("paired: {sha}: cargo {}", args.join(" "));
            run(
                Command::new("cargo")
                    .args(args)
                    .current_dir(&tree)
                    .env("CARGO_TARGET_DIR", &target)
                    .env("CARGO_NET_OFFLINE", "true"),
                "cargo build",
            );
        }
        Build { sha, tree, target }
    }

    /// One untraced run of `seconds`; its JSON result line, or `None` if
    /// it failed.
    fn bench(&self, config: &Config, seconds: &str) -> Option<String> {
        let release = self.target.join("release");
        let seed = config.seed.to_string();
        let scratch = config.dir.join("tmp");
        fs::create_dir_all(&scratch).expect("create the run directory");
        let output = Command::new(release.join("wsrep-benchmark"))
            .arg("--server-bin")
            .arg(release.join("wsrep-server"))
            .args(["--workload", &config.workload, "--seed", &seed])
            .args(["--seconds", seconds, "--trace", "0"])
            .arg("--tmp")
            .arg(&scratch)
            .arg("--out")
            .arg(&scratch)
            .current_dir(&self.tree)
            .stderr(Stdio::null())
            .output()
            .expect("start wsrep-benchmark");
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout.lines().rev().find(|line| line.starts_with('{'))?;
        (output.status.success() && line.starts_with("{\"correct\": true"))
            .then(|| line.to_string())
    }
}

/// The number after `"key":` in `text`, up to the next `,` or `}`. Both
/// inputs are flat enough for a scanner: `BENCHMARK.json`'s entries are
/// one-level objects, and a result line prints each metric as
/// `"NAME": {"value": V, "unit": "U"}`.
fn number(text: &str, key: &str) -> Option<f64> {
    let pattern = format!("\"{key}\":");
    let rest = &text[text.find(&pattern)? + pattern.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// The string after `"key":` in `object`.
fn string(object: &str, key: &str) -> Option<String> {
    let pattern = format!("\"{key}\":");
    let rest = &object[object.find(&pattern)? + pattern.len()..];
    let rest = &rest[rest.find('"')? + 1..];
    Some(rest[..rest.find('"')?].to_string())
}

/// Metric `name`'s value in a result line.
fn value(line: &str, name: &str) -> Option<f64> {
    number(&line[line.find(&format!("\"{name}\": {{"))?..], "value")
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
struct Metric {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn end_to_end(benchmark: &str) -> Vec<Metric> {
    let start = benchmark
        .find("\"end_to_end\"")
        .expect("BENCHMARK.json has an end_to_end list");
    let body = &benchmark[start..];
    let body = &body[..body.find(']').expect("the end_to_end list closes")];
    body.split('{')
        .skip(1)
        .map(|object| Metric {
            name: string(object, "name").expect("every metric has a name"),
            lower_is_better: string(object, "better").as_deref() == Some("lower"),
            bound: number(object, "bound").unwrap_or(0.0),
        })
        .collect()
}

/// The `q`-quantile of sorted `values`, interpolating linearly; NaN when
/// there are none.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let at = q * (sorted.len() - 1) as f64;
    let (low, high) = (at.floor() as usize, at.ceil() as usize);
    sorted[low] + (sorted[high] - sorted[low]) * (at - low as f64)
}

#[derive(Debug, PartialEq)]
enum Verdict {
    Better,
    Worse,
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// One pair's value of a metric, parent then change; `None` for a run
/// that failed.
type Pair = (Option<f64>, Option<f64>);

/// What the pairs say of one metric.
struct Judged {
    verdict: Verdict,
    wins: usize,
    losses: usize,
    parent_failed: usize,
    change_failed: usize,
    parent_median: f64,
    change_median: f64,
    parent_iqr: f64,
}

fn judge(pairs: &[Pair], lower_is_better: bool) -> Judged {
    let sorted = |pick: fn(&Pair) -> Option<f64>| {
        let mut values: Vec<f64> = pairs.iter().filter_map(pick).collect();
        values.sort_by(f64::total_cmp);
        values
    };
    let (parent, change) = (sorted(|p| p.0), sorted(|p| p.1));
    // Positive when the change is better.
    let gain = |parent: f64, change: f64| {
        if lower_is_better {
            parent - change
        } else {
            change - parent
        }
    };
    let wins = pairs
        .iter()
        .filter(|pair| matches!(**pair, (Some(p), Some(c)) if gain(p, c) > 0.0))
        .count();
    let losses = pairs
        .iter()
        .filter(|pair| match **pair {
            (_, None) => true,
            (Some(p), Some(c)) => gain(p, c) < 0.0,
            (None, Some(_)) => false,
        })
        .count();
    let parent_failed = pairs.len() - parent.len();
    let change_failed = pairs.len() - change.len();
    let parent_median = quantile(&parent, 0.5);
    let change_median = quantile(&change, 0.5);
    let parent_iqr = quantile(&parent, 0.75) - quantile(&parent, 0.25);
    let moved = gain(parent_median, change_median);
    let nine_in_ten = |count: usize| count * 10 >= pairs.len() * 9;
    let verdict = if change_failed > parent_failed {
        Verdict::Unresolved
    } else if nine_in_ten(wins) && moved > parent_iqr {
        Verdict::Better
    } else if nine_in_ten(losses) && -moved > parent_iqr {
        Verdict::Worse
    } else {
        Verdict::Unresolved
    };
    Judged {
        verdict,
        wins,
        losses,
        parent_failed,
        change_failed,
        parent_median,
        change_median,
        parent_iqr,
    }
}

fn main() {
    let config = parse_args();
    fs::create_dir_all(&config.dir).expect("create the work directory");
    let config = Config {
        dir: fs::canonicalize(&config.dir).expect("resolve the work directory"),
        ..config
    };
    let parent = Build::new(&config.parent, &config.dir);
    let change = Build::new(&config.change, &config.dir);
    let benchmark = fs::read_to_string(change.tree.join("BENCHMARK.json"))
        .expect("read the change's BENCHMARK.json");
    let seconds = number(&benchmark, "run_seconds")
        .expect("BENCHMARK.json sets run_seconds")
        .to_string();
    let raw = config.dir.join(format!("runs-{}.txt", config.workload));
    let mut log = OpenOptions::new()
        .create(true)
        .append(true)
        .open(&raw)
        .expect("open the raw result file");

    // Per pair, the parent's and the change's result line.
    let mut results: Vec<[Option<String>; 2]> = Vec::new();
    for pair in 0..PAIRS {
        let mut order = [("parent", &parent), ("change", &change)];
        if pair % 2 == 1 {
            order.reverse();
        }
        let mut lines = [None, None];
        for (role, build) in order {
            let line = build.bench(&config, &seconds);
            eprintln!(
                "paired: pair {pair}, {role} {}: {}",
                build.sha,
                if line.is_some() { "ok" } else { "FAILED" }
            );
            let text = line.as_deref().unwrap_or("null");
            writeln!(log, "{pair} {role} {} {text}", build.sha).expect("write the raw result file");
            lines[usize::from(role == "change")] = line;
        }
        results.push(lines);
    }

    let complete = results
        .iter()
        .filter(|[p, c]| p.is_some() && c.is_some())
        .count();
    println!(
        "{} ({}) vs {} ({}): {} --seed {} --seconds {} (BENCHMARK.json run_seconds), {} of {} pairs complete; raw lines in {}",
        config.parent,
        parent.sha,
        config.change,
        change.sha,
        config.workload,
        config.seed,
        seconds,
        complete,
        PAIRS,
        raw.display()
    );
    for metric in end_to_end(&benchmark) {
        let of = |line: &Option<String>| value(line.as_deref()?, &metric.name);
        let pairs: Vec<Pair> = results.iter().map(|[p, c]| (of(p), of(c))).collect();
        let judged = judge(&pairs, metric.lower_is_better);
        let relative = (judged.change_median - judged.parent_median) / judged.parent_median;
        let shown = |value: Option<f64>| value.map_or("failed".to_string(), |v| format!("{v:.4}"));
        let listed: Vec<String> = pairs
            .iter()
            .map(|&(p, c)| format!("({},{})", shown(p), shown(c)))
            .collect();
        println!(
            "{:<28} {:<10} median {:.4} -> {:.4} ({:+.1}%, bound {:.1}%), parent IQR {:.4}, change wins {}/{} loses {}, failed runs {}/{}",
            metric.name,
            judged.verdict,
            judged.parent_median,
            judged.change_median,
            relative * 100.0,
            metric.bound * 100.0,
            judged.parent_iqr,
            judged.wins,
            pairs.len(),
            judged.losses,
            judged.parent_failed,
            judged.change_failed,
        );
        println!("{:<28} pairs (parent,change): {}", "", listed.join(" "));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scans_the_benchmark_declaration_and_a_result_line() {
        let declared = end_to_end(include_str!("../../../../BENCHMARK.json"));
        let names: Vec<&str> = declared.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "setup_s",
                "disk_bytes_per_report",
                "resident_bytes_per_report",
                "answered_share"
            ]
        );
        let lower: Vec<bool> = declared.iter().map(|m| m.lower_is_better).collect();
        assert_eq!(lower, [true, true, true, false]);
        assert_eq!(declared[0].bound, 0.25);
        assert_eq!(
            number(include_str!("../../../../BENCHMARK.json"), "run_seconds"),
            Some(20.0)
        );

        let line = r#"{"correct": true, "attempted": 9, "failed": 0, "metrics": {"setup_s": {"value": 0.025, "unit": "s"}, "answered_share": {"value": 1, "unit": "share"}}}"#;
        assert_eq!(value(line, "setup_s"), Some(0.025));
        assert_eq!(value(line, "answered_share"), Some(1.0));
        assert_eq!(value(line, "disk_bytes_per_report"), None);
    }

    #[test]
    fn quantiles_interpolate() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&sorted, 0.5), 2.5);
        assert_eq!(quantile(&sorted, 0.25), 1.75);
        assert_eq!(quantile(&sorted, 0.75), 3.25);
        assert_eq!(quantile(&[7.0], 0.75), 7.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    fn complete(pairs: &[(f64, f64)]) -> Vec<Pair> {
        pairs.iter().map(|&(p, c)| (Some(p), Some(c))).collect()
    }

    #[test]
    fn needs_nine_wins_in_ten_and_a_median_outside_the_parent_iqr() {
        // Nine wins of ten and a clear move: better.
        let mut pairs: Vec<(f64, f64)> = (0..10).map(|i| (40.0 + i as f64, 28.0)).collect();
        pairs[3].1 = 50.0;
        assert_eq!(judge(&complete(&pairs), true).verdict, Verdict::Better);
        // The same numbers where higher is better: worse.
        assert_eq!(judge(&complete(&pairs), false).verdict, Verdict::Worse);
        // Eight wins of ten: unresolved, however far the median moved.
        pairs[4].1 = 50.0;
        assert_eq!(judge(&complete(&pairs), true).verdict, Verdict::Unresolved);
        // Ten wins, but the median moved less than the parent's IQR.
        let close: Vec<(f64, f64)> = (0..10)
            .map(|i| (40.0 + i as f64, 39.0 + i as f64))
            .collect();
        let judged = judge(&complete(&close), true);
        assert_eq!((judged.wins, judged.verdict), (10, Verdict::Unresolved));
        // Level: unresolved.
        assert_eq!(
            judge(&complete(&[(1.0, 1.0); 10]), true).verdict,
            Verdict::Unresolved
        );
    }

    #[test]
    fn every_pair_run_counts_and_failures_hold_back_a_gain() {
        let wins: Vec<Pair> =
            complete(&(0..10).map(|i| (40.0 + i as f64, 28.0)).collect::<Vec<_>>());
        // Seven wins and three failed change runs: three losses, unresolved.
        let mut failing = wins.clone();
        for pair in &mut failing[7..] {
            pair.1 = None;
        }
        let judged = judge(&failing, true);
        assert_eq!(
            (
                judged.wins,
                judged.losses,
                judged.change_failed,
                judged.verdict
            ),
            (7, 3, 3, Verdict::Unresolved)
        );
        // Nine wins and one failed change run: nine in ten, but the change
        // failed more often than the parent, so the gain does not count.
        let mut once = wins.clone();
        once[9].1 = None;
        let judged = judge(&once, true);
        assert_eq!((judged.wins, judged.losses), (9, 1));
        assert_eq!(judged.verdict, Verdict::Unresolved);
        // The same pair failing on both sides as well: failures level, and
        // nine wins of ten stand.
        once[9].0 = None;
        assert_eq!(judge(&once, true).verdict, Verdict::Better);
        // A failed parent run ties its pair: nine wins of ten, better.
        let mut parent_failed = wins.clone();
        parent_failed[0].0 = None;
        let judged = judge(&parent_failed, true);
        assert_eq!(
            (
                judged.wins,
                judged.losses,
                judged.parent_failed,
                judged.verdict
            ),
            (9, 0, 1, Verdict::Better)
        );
        // Two failed parent runs: eight wins of ten, unresolved.
        parent_failed[1].0 = None;
        assert_eq!(judge(&parent_failed, true).verdict, Verdict::Unresolved);
        // Nothing but failed change runs: ten losses, yet no median to
        // compare, so unresolved.
        let none: Vec<Pair> = vec![(Some(1.0), None); 10];
        let judged = judge(&none, true);
        assert_eq!((judged.losses, judged.verdict), (10, Verdict::Unresolved));
    }
}
