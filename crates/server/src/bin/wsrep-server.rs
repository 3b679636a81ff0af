//! wsrep-server — serve the reputation registry over TCP.
//!
//! ```text
//! wsrep-server [--listen ADDR] [--shards N]
//!              [--journal DIR] [--recover DIR] [--durability MODE]
//!              [--fault-append-every N] [--fault-fsync-every N]
//!              [--workers N (retired, ignored)]
//! ```
//!
//! Every flag takes its value as `--flag V` or `--flag=V`. An unknown
//! flag or a malformed value is a usage error: one line on stderr, exit
//! status 2.
//!
//! Defaults: listen on `127.0.0.1:7411`, 8 shards, no journal. The
//! server runs one thread per connection, up to 256 connections.
//! `--workers N` is retired: it is still parsed, and a non-number is
//! still refused, but the value sets nothing. `--listen 127.0.0.1:0`
//! binds an ephemeral port; the actual address is printed (and flushed)
//! as the first stdout line:
//!
//! ```text
//! wsrep-server listening on 127.0.0.1:40519
//! ```
//!
//! `--journal=DIR` attaches the write-ahead log and replays whatever it
//! already holds, snapshot + WAL tail, before serving — restart a killed
//! server on the same directory and every report acknowledged by a
//! `Flush` RPC is back. `--recover=DIR` is the same flag by the name a
//! restart uses.
//!
//! `--durability MODE` picks what a journal failure means (requires a
//! journal): `degrade` (default) keeps serving and counts errors,
//! `read-only` fences mutations with `NotDurable`, `fail-stop` fences
//! and exits (status 3). `--fault-append-every N` / `--fault-fsync-every
//! N` inject an ENOSPC-style error into every Nth journal append/fsync —
//! the disk half of the chaos harness, used by the CI chaos smoke job.
//!
//! The process exits (status 0) after a client sends the `Shutdown`
//! request: connections drain, the ingest pipeline flushes (a final
//! group-commit fsync with a journal attached), and a last JSON stats
//! line is printed (including `journal_errors` and the fence state when
//! a journal is attached).

use std::io::Write as _;
use std::path::PathBuf;
use std::process::exit;
use std::sync::Arc;
use std::time::Duration;
use wsrep_journal::{IoOp, IoPolicy, PeriodicFaults};
use wsrep_serve::{DurabilityPolicy, ReputationService};
use wsrep_server::{flag_number, flag_value, usage_error, Server, ServerConfig};

struct Args {
    listen: String,
    shards: usize,
    journal: Option<PathBuf>,
    durability: DurabilityPolicy,
    fault_append_every: Option<u64>,
    fault_fsync_every: Option<u64>,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        listen: "127.0.0.1:7411".to_string(),
        shards: 8,
        journal: None,
        durability: DurabilityPolicy::Degrade,
        fault_append_every: None,
        fault_fsync_every: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| flag_value(&arg, name, &mut args);
        if let Some(v) = value("--listen") {
            parsed.listen = v;
        } else if let Some(v) = value("--shards") {
            parsed.shards = flag_number("--shards", &v);
        } else if let Some(v) = value("--workers") {
            // Retired, kept while `benchmark/src/host.rs` passes it.
            flag_number::<usize>("--workers", &v);
        } else if let Some(v) = value("--journal").or_else(|| value("--recover")) {
            parsed.journal = Some(PathBuf::from(v));
        } else if let Some(v) = value("--durability") {
            parsed.durability = DurabilityPolicy::parse(&v).unwrap_or_else(|| {
                usage_error(&format!(
                    "--durability expects degrade|read-only|fail-stop, got {v:?}"
                ))
            });
        } else if let Some(v) = value("--fault-append-every") {
            parsed.fault_append_every = Some(flag_number("--fault-append-every", &v));
        } else if let Some(v) = value("--fault-fsync-every") {
            parsed.fault_fsync_every = Some(flag_number("--fault-fsync-every", &v));
        } else {
            usage_error(&format!("unknown argument: {arg}"));
        }
    }
    parsed
}

fn main() {
    let args = parse_args();
    let mut builder = ReputationService::builder().shards(args.shards);
    if let Some(dir) = &args.journal {
        builder = builder.journal(dir).durability_policy(args.durability);
    }
    let faults = if args.fault_append_every.is_some() || args.fault_fsync_every.is_some() {
        let mut policy = PeriodicFaults::new();
        if let Some(n) = args.fault_append_every {
            policy = policy.error_every(IoOp::Append, n);
        }
        if let Some(n) = args.fault_fsync_every {
            policy = policy.error_every(IoOp::Fsync, n);
        }
        let policy = Arc::new(policy);
        builder = builder.io_policy(Arc::clone(&policy) as Arc<dyn IoPolicy>);
        Some(policy)
    } else {
        None
    };
    let service = Arc::new(match builder.try_build() {
        Ok(service) => service,
        Err(err) => {
            eprintln!("wsrep-server: failed to open journal: {err}");
            exit(1);
        }
    });

    let server = match Server::start(
        Arc::clone(&service),
        &args.listen[..],
        ServerConfig::default(),
    ) {
        Ok(server) => server,
        Err(err) => {
            eprintln!("wsrep-server: failed to start on {}: {err}", args.listen);
            exit(1);
        }
    };

    // The bound address, flushed immediately: callers binding port 0
    // (tests, CI) parse it from this line.
    {
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        let _ = writeln!(out, "wsrep-server listening on {}", server.local_addr());
        let _ = out.flush();
    }

    // Serve until a Shutdown request flips the flag, then let the drain
    // finish. `join` returns only after every connection thread exited and the
    // ingest pipeline flushed (the final fsync with a journal).
    while !server.is_shutting_down() {
        std::thread::sleep(Duration::from_millis(50));
    }
    let wire = server.server_stats();
    let fenced = server.durability_fenced();
    server.join();
    let stats = service.stats();
    let health = stats.journal.unwrap_or_default();
    let injected = faults.as_ref().map(|f| f.counters().total()).unwrap_or(0);
    // Best-effort: the launcher may have closed our stdout already, and a
    // clean shutdown must not turn into a broken-pipe panic.
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let _ = writeln!(
        out,
        "{{\"shutdown\":\"{}\",\"requests\":{},\"reports_ingested\":{},\"connections_opened\":{},\"malformed_frames\":{},\"bytes_in\":{},\"bytes_out\":{},\"feedback_applied\":{},\"durability\":\"{}\",\"journal_errors\":{},\"degraded\":{},\"fenced\":{},\"injected_disk_faults\":{}}}",
        if fenced { "fenced" } else { "clean" },
        wire.total_requests(),
        wire.reports_ingested,
        wire.connections_opened,
        wire.malformed_frames,
        wire.bytes_in,
        wire.bytes_out,
        stats.feedback,
        health.policy.name(),
        health.journal_errors,
        health.degraded,
        health.fenced,
        injected,
    );
    let _ = out.flush();
    // A fail-stop fence is an abnormal exit: the supervisor must see a
    // nonzero status, not a clean shutdown.
    if fenced && args.durability == DurabilityPolicy::FailStop {
        exit(3);
    }
}
