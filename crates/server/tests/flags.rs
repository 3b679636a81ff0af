//! `wsrep-server` accepts every valued flag in both forms its usage
//! documents, `--flag V` and `--flag=V`: the real binary is started once
//! per flag and form and must get as far as its `listening on` line. A
//! flag it does not know, or a value it cannot parse, is refused with
//! status 2 and one stderr line before it binds anything.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

/// Start the server with `args`, return its first stdout line, stop it.
fn first_line(args: &[String]) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_wsrep-server"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn wsrep-server");
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .expect("read the first line");
    let _ = child.kill();
    child.wait().expect("reap wsrep-server");
    line
}

#[test]
fn every_valued_flag_is_accepted_in_both_forms() {
    let dir = std::env::temp_dir().join(format!("wsrep-server-flags-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let journal = dir.display().to_string();
    let flags = [
        ("--listen", "127.0.0.1:0"),
        ("--shards", "4"),
        ("--workers", "2"),
        ("--journal", &journal),
        ("--recover", &journal),
        ("--durability", "read-only"),
        ("--fault-append-every", "40"),
        ("--fault-fsync-every", "40"),
    ];
    for (flag, value) in flags {
        for form in [
            vec![flag.to_string(), value.to_string()],
            vec![format!("{flag}={value}")],
        ] {
            let mut args = form.clone();
            if flag != "--listen" {
                args.extend(["--listen".to_string(), "127.0.0.1:0".to_string()]);
            }
            let line = first_line(&args);
            assert!(
                line.starts_with("wsrep-server listening on 127.0.0.1:"),
                "{form:?} did not reach `listening on`: first line {line:?}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_usage_error_exits_with_status_2() {
    let cases: [(&[&str], &str); 6] = [
        (&["--batch", "64"], "unknown argument: --batch"),
        (&["--poller", "epoll"], "unknown argument: --poller"),
        (
            &["--pipeline-depth", "32"],
            "unknown argument: --pipeline-depth",
        ),
        (
            &["--workers", "abc"],
            "--workers expects a number, got \"abc\"",
        ),
        (
            &["--durability", "bogus"],
            "--durability expects degrade|read-only|fail-stop, got \"bogus\"",
        ),
        (&["--workers"], "--workers requires a value"),
    ];
    for (args, line) in cases {
        let output = Command::new(env!("CARGO_BIN_EXE_wsrep-server"))
            .args(["--listen", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .output()
            .expect("run wsrep-server");
        assert_eq!(output.status.code(), Some(2), "{args:?}: {output:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(stderr, format!("{line}\n"), "{args:?}");
        assert!(
            output.stdout.is_empty(),
            "{args:?} must not start listening"
        );
    }
}
