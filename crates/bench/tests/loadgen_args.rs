//! `loadgen` refuses a command line it cannot run the way `wsrep-server`
//! and `wsrep-cluster` do: one stderr line, nothing on stdout, exit
//! status 2, before it connects to anything. A dead address is named, so
//! a refusal that got past parsing would fail to connect instead.

use std::process::Command;

#[test]
fn a_malformed_command_line_is_a_usage_error() {
    let socket = ["--socket", "127.0.0.1:1"];
    let refused: [&[&str]; 5] = [
        &[&socket[..], &["--batch", "many"]].concat(),
        &[&socket[..], &["--batch=-1"]].concat(),
        &[&socket[..], &["4", "four"]].concat(),
        &[&socket[..], &["0"]].concat(),
        &["--chaos", "2"],
    ];
    for args in refused {
        let out = Command::new(env!("CARGO_BIN_EXE_loadgen"))
            .args(args)
            .output()
            .expect("spawn loadgen");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
