//! wsrep-cluster — run one node of a replicated registry.
//!
//! ```text
//! wsrep-cluster primary --journal=DIR [--listen ADDR] [--recover=DIR]
//!                       [--shards N] [--workers N]
//! wsrep-cluster replica --primary ADDR --journal=DIR [--listen ADDR]
//!                       [--id N] [--shards N] [--workers N]
//!                       [--promote-on-disconnect SECS]
//! ```
//!
//! Every flag takes its value as `--flag V` or `--flag=V`. A malformed
//! value is a usage error: one line on stderr, exit status 2.
//!
//! Both roles print their bound address as the first (flushed) stdout
//! line — `wsrep-cluster primary listening on 127.0.0.1:40519` — so
//! callers binding port 0 can parse it.
//!
//! A replica started with `--promote-on-disconnect SECS` watches the
//! replication link; once the primary has been silent that long, the
//! replica promotes itself, verifies its state against a sequential
//! replay of its own journal (`wsrep_serve::check::twin_equal`), prints
//! one JSON line, which names the first difference as `"twin_violation"`
//! when there is one —
//!
//! ```text
//! {"promoted":true,"twin_equal":true,"durable_lsn":64,...}
//! ```
//!
//! — and keeps serving, now accepting writes. The check holds every
//! report of the journal in memory while it runs (about 120 bytes each,
//! against about 13 on disk), so a promotion needs headroom that grows
//! with the journal's length, not with its subjects. Either role exits 0
//! after a `Shutdown` request drains it.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::exit;
use std::sync::Arc;
use std::time::Duration;
use wsrep_cluster::{Primary, PrimaryConfig, Replica, ReplicaConfig};
use wsrep_serve::check::{twin_equal, Twin};
use wsrep_serve::ReputationService;
use wsrep_server::{flag_number, flag_value, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: wsrep-cluster primary --journal=DIR [--listen ADDR] [--recover=DIR] [--shards N] [--workers N]\n\
            \x20      wsrep-cluster replica --primary ADDR --journal=DIR [--listen ADDR] [--id N] [--shards N] [--workers N] [--promote-on-disconnect SECS]"
    );
    exit(2)
}

struct Args {
    listen: String,
    journal: Option<PathBuf>,
    recover: bool,
    shards: usize,
    workers: usize,
    primary: Option<String>,
    replica_id: u64,
    promote_after: Option<Duration>,
}

fn parse_args(mut args: std::env::Args) -> Args {
    let mut parsed = Args {
        listen: "127.0.0.1:0".to_string(),
        journal: None,
        recover: false,
        shards: 8,
        workers: 4,
        primary: None,
        replica_id: 1,
        promote_after: None,
    };
    while let Some(arg) = args.next() {
        let mut value = |name: &str| flag_value(&arg, name, &mut args);
        if let Some(v) = value("--listen") {
            parsed.listen = v;
        } else if let Some(v) = value("--journal") {
            parsed.journal = Some(PathBuf::from(v));
        } else if let Some(v) = value("--recover") {
            parsed.journal = Some(PathBuf::from(v));
            parsed.recover = true;
        } else if let Some(v) = value("--shards") {
            parsed.shards = flag_number("--shards", &v);
        } else if let Some(v) = value("--workers") {
            parsed.workers = flag_number("--workers", &v);
        } else if let Some(v) = value("--primary") {
            parsed.primary = Some(v);
        } else if let Some(v) = value("--id") {
            parsed.replica_id = flag_number("--id", &v);
        } else if let Some(v) = value("--promote-on-disconnect") {
            let secs: f64 = flag_number("--promote-on-disconnect", &v);
            parsed.promote_after = Some(Duration::from_secs_f64(secs));
        } else {
            eprintln!("unknown argument: {arg}");
            usage();
        }
    }
    parsed
}

fn announce(role: &str, addr: std::net::SocketAddr) {
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let _ = writeln!(out, "wsrep-cluster {role} listening on {addr}");
    let _ = out.flush();
}

fn run_primary(args: Args) -> i32 {
    let Some(dir) = &args.journal else {
        eprintln!("wsrep-cluster primary: --journal=DIR (or --recover=DIR) is required");
        return 2;
    };
    let mut builder = ReputationService::builder().shards(args.shards);
    builder = if args.recover {
        builder.recover_from(dir)
    } else {
        builder.journal(dir)
    };
    let service = Arc::new(match builder.try_build() {
        Ok(service) => service,
        Err(err) => {
            eprintln!("wsrep-cluster primary: failed to open journal: {err}");
            return 1;
        }
    });
    let config = PrimaryConfig {
        server: ServerConfig {
            workers: args.workers.max(1),
            ..ServerConfig::default()
        },
        ..PrimaryConfig::default()
    };
    let primary = match Primary::start(Arc::clone(&service), &args.listen[..], config) {
        Ok(primary) => primary,
        Err(err) => {
            eprintln!(
                "wsrep-cluster primary: failed to start on {}: {err}",
                args.listen
            );
            return 1;
        }
    };
    announce("primary", primary.local_addr());

    while !primary.is_shutting_down() {
        std::thread::sleep(Duration::from_millis(50));
    }
    let repl = primary.replication_stats();
    primary.join();
    let stats = service.stats();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let _ = writeln!(
        out,
        "{{\"shutdown\":\"clean\",\"role\":\"primary\",\"durable_lsn\":{},\"replicas\":{},\"min_replica_lsn\":{},\"feedback_applied\":{}}}",
        repl.local_durable_lsn, repl.replicas, repl.remote_durable_lsn, stats.feedback,
    );
    0
}

fn run_replica(args: Args) -> i32 {
    let Some(primary_addr) = args.primary.clone() else {
        eprintln!("wsrep-cluster replica: --primary ADDR is required");
        return 2;
    };
    let Some(dir) = args.journal.clone() else {
        eprintln!("wsrep-cluster replica: --journal=DIR is required");
        return 2;
    };
    let config = ReplicaConfig {
        server: ServerConfig {
            workers: args.workers.max(1),
            ..ServerConfig::default()
        },
        shards: args.shards,
        replica_id: args.replica_id,
        ..ReplicaConfig::default()
    };
    let mut replica = match Replica::start(primary_addr, &args.listen[..], &dir, config) {
        Ok(replica) => replica,
        Err(err) => {
            eprintln!("wsrep-cluster replica: failed to start: {err}");
            return 1;
        }
    };
    announce("replica", replica.local_addr());

    let mut promoted = false;
    while !replica.is_shutting_down() {
        if !promoted {
            if let Some(after) = args.promote_after {
                let stats = replica.replication_stats();
                if !stats.connected && replica.primary_silence() >= after {
                    let durable_lsn = replica.promote();
                    promoted = true;
                    let stdout = std::io::stdout();
                    let mut out = stdout.lock();
                    match Twin::read(&dir) {
                        Ok(twin) => {
                            let verdict = twin_equal(replica.service(), &twin);
                            let violation = verdict.as_ref().err().map_or(String::new(), |v| {
                                format!(",\"twin_violation\":{:?}", v.to_string())
                            });
                            let _ = writeln!(
                                out,
                                "{{\"promoted\":true,\"twin_equal\":{},\"durable_lsn\":{},\"records\":{},\"subjects\":{}{violation}}}",
                                verdict.is_ok(),
                                durable_lsn,
                                twin.records,
                                twin.reports.len(),
                            );
                        }
                        Err(err) => {
                            let _ = writeln!(
                                out,
                                "{{\"promoted\":true,\"twin_equal\":false,\"durable_lsn\":{durable_lsn},\"twin_error\":\"{err}\"}}",
                            );
                        }
                    }
                    let _ = out.flush();
                }
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let repl = replica.replication_stats();
    let feedback = replica.service().stats().feedback;
    replica.join();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let _ = writeln!(
        out,
        "{{\"shutdown\":\"clean\",\"role\":\"{}\",\"durable_lsn\":{},\"lag\":{},\"feedback_applied\":{}}}",
        if promoted { "promoted" } else { "replica" },
        repl.local_durable_lsn,
        repl.lag,
        feedback,
    );
    0
}

fn main() {
    let mut args = std::env::args();
    let _argv0 = args.next();
    let role = args.next().unwrap_or_else(|| usage());
    let parsed = parse_args(args);
    let code = match role.as_str() {
        "primary" => run_primary(parsed),
        "replica" => run_replica(parsed),
        _ => {
            eprintln!("unknown role: {role}");
            usage()
        }
    };
    exit(code);
}
