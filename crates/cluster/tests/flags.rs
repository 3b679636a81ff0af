//! `wsrep-cluster` accepts every valued flag in both forms its usage
//! documents, `--flag V` and `--flag=V`: a primary is started once per
//! flag and form and must get as far as its `listening on` line. (Replica
//! flags are parsed by either role; a primary ignores them.) A value it
//! cannot parse is refused with status 2 and one stderr line.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

/// Start a primary with `args`, return its first stdout line, stop it.
fn first_line(args: &[String]) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_wsrep-cluster"))
        .arg("primary")
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn wsrep-cluster");
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .expect("read the first line");
    let _ = child.kill();
    child.wait().expect("reap wsrep-cluster");
    line
}

#[test]
fn every_valued_flag_is_accepted_in_both_forms() {
    let dir = std::env::temp_dir().join(format!("wsrep-cluster-flags-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let journal = dir.display().to_string();
    let flags = [
        ("--listen", "127.0.0.1:0"),
        ("--journal", &journal),
        ("--recover", &journal),
        ("--shards", "4"),
        ("--workers", "2"),
        ("--primary", "127.0.0.1:1"),
        ("--id", "3"),
        ("--promote-on-disconnect", "5"),
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
            if flag != "--journal" && flag != "--recover" {
                args.extend(["--journal".to_string(), journal.clone()]);
            }
            let line = first_line(&args);
            assert!(
                line.starts_with("wsrep-cluster primary listening on 127.0.0.1:"),
                "{form:?} did not reach `listening on`: first line {line:?}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_malformed_value_exits_with_status_2() {
    let dir = std::env::temp_dir().join(format!("wsrep-cluster-usage-{}", std::process::id()));
    let output = Command::new(env!("CARGO_BIN_EXE_wsrep-cluster"))
        .args(["primary", "--shards", "abc", "--listen", "127.0.0.1:0"])
        .arg(format!("--journal={}", dir.display()))
        .stdin(Stdio::null())
        .output()
        .expect("run wsrep-cluster");
    assert_eq!(output.status.code(), Some(2), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(stderr, "--shards expects a number, got \"abc\"\n");
    assert!(output.stdout.is_empty(), "it must not start listening");
    assert!(!dir.exists(), "it must not open a journal");
}
