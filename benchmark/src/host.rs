//! The benchmark's contact with the operating system: the `wsrep-server`
//! child (spawned, observed through `/proc`, killed and reaped by a drop
//! guard), scratch directories, and the facts the manifest prints.

use std::fs;
use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Linux reports process times in clock ticks of 1/`USER_HZ` seconds, and
/// `USER_HZ` is 100 on every architecture Linux runs on.
const USER_HZ: f64 = 100.0;

/// How the server child is started.
pub enum Boot<'a> {
    /// `--journal=DIR`: a fresh log.
    Journal(&'a Path),
    /// `--recover=DIR`: replay the log before serving.
    Recover(&'a Path),
}

/// A running `wsrep-server`. Dropping it kills and reaps the process, so a
/// panic or an early return never leaves a server behind.
pub struct ServerChild {
    child: Child,
    addr: String,
}

impl ServerChild {
    /// Start the server on an ephemeral loopback port with two workers and
    /// wait for the line announcing its address.
    pub fn spawn(binary: &Path, boot: Boot<'_>) -> io::Result<ServerChild> {
        let journal_flag = match boot {
            Boot::Journal(dir) => format!("--journal={}", dir.display()),
            Boot::Recover(dir) => format!("--recover={}", dir.display()),
        };
        let mut child = Command::new(binary)
            .args(["--listen", "127.0.0.1:0", "--workers=2"])
            .arg(journal_flag)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut guard = ServerChild {
            child,
            addr: String::new(),
        };
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line)?;
        match line.trim().strip_prefix("wsrep-server listening on ") {
            Some(addr) => guard.addr = addr.to_string(),
            None => {
                return Err(io::Error::other(format!(
                    "wsrep-server did not announce its address; first line was {line:?}"
                )))
            }
        }
        Ok(guard)
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `SIGKILL` and reap: the process gets no chance to flush anything.
    /// Killing a server that is already dead does nothing.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        self.kill();
    }
}

/// A scratch directory removed on drop unless [`TempDir::keep`] was called.
pub struct TempDir {
    path: PathBuf,
    keep: bool,
}

impl TempDir {
    /// A fresh directory `root/<label>-<pid>-<n>`.
    pub fn create(root: &Path, label: &str) -> io::Result<TempDir> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = root.join(format!("{label}-{}-{n}", std::process::id()));
        fs::create_dir_all(&path)?;
        Ok(TempDir { path, keep: false })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Leave the directory behind (after a failed check, for inspection).
    pub fn keep(&mut self) {
        self.keep = true;
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        if !self.keep {
            let _ = fs::remove_dir_all(&self.path);
        }
    }
}

/// Copy every file under `from` into `to` (created if missing).
pub fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.metadata()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// Bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        if meta.is_dir() {
            total += dir_bytes(&entry.path())?;
        } else {
            total += meta.len();
        }
    }
    Ok(total)
}

/// CPU seconds process `pid` has used. `pid` 0 means this process.
///
/// Another process is read from `se.sum_exec_runtime` in
/// `/proc/<pid>/task/*/sched`, which has nanosecond resolution but counts
/// only threads still alive — fine for a server whose threads live as long
/// as it does. This process spawns and joins generator threads all the
/// time, so it, and any process on a kernel without that file, is read
/// from `utime + stime` in `/proc/<pid>/stat`: 10 ms ticks, every thread
/// that ever ran.
pub fn cpu_seconds(pid: u32) -> io::Result<f64> {
    if pid != 0 {
        if let Some(seconds) = sched_runtime_seconds(pid) {
            return Ok(seconds);
        }
    }
    let stat = fs::read_to_string(proc_path(pid, "stat"))?;
    parse_cpu_ticks(&stat)
        .map(|ticks| ticks as f64 / USER_HZ)
        .ok_or_else(|| io::Error::other(format!("unparsable stat line: {stat:?}")))
}

fn sched_runtime_seconds(pid: u32) -> Option<f64> {
    let mut total_ms = 0.0;
    for task in fs::read_dir(proc_path(pid, "task")).ok()? {
        let sched = fs::read_to_string(task.ok()?.path().join("sched")).ok()?;
        total_ms += parse_sum_exec_runtime(&sched)?;
    }
    Some(total_ms / 1_000.0)
}

/// The `se.sum_exec_runtime` line of a `sched` file, in milliseconds.
fn parse_sum_exec_runtime(sched: &str) -> Option<f64> {
    sched
        .lines()
        .find(|line| line.starts_with("se.sum_exec_runtime"))?
        .rsplit(':')
        .next()?
        .trim()
        .parse()
        .ok()
}

/// `utime + stime` of a `/proc/<pid>/stat` line. The command name may hold
/// spaces and parentheses, so fields are counted from the last `)`.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_ascii_whitespace();
    // After the command: state is field 3, utime 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Resident set size of process `pid` in bytes (`VmRSS`). 0 = this process.
pub fn resident_bytes(pid: u32) -> io::Result<u64> {
    let status = fs::read_to_string(proc_path(pid, "status"))?;
    status_field(&status, "VmRSS:")
        .map(|kib| kib * 1024)
        .ok_or_else(|| io::Error::other("no VmRSS in status"))
}

/// Voluntary context switches of process `pid`, summed over its threads.
pub fn voluntary_switches(pid: u32) -> io::Result<u64> {
    let mut total = 0;
    for task in fs::read_dir(proc_path(pid, "task"))? {
        // A thread may exit between the listing and the read.
        if let Ok(status) = fs::read_to_string(task?.path().join("status")) {
            total += status_field(&status, "voluntary_ctxt_switches:").unwrap_or(0);
        }
    }
    Ok(total)
}

fn proc_path(pid: u32, leaf: &str) -> PathBuf {
    if pid == 0 {
        PathBuf::from(format!("/proc/self/{leaf}"))
    } else {
        PathBuf::from(format!("/proc/{pid}/{leaf}"))
    }
}

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_ascii_whitespace().next())
        .and_then(|value| value.parse().ok())
}

/// The filesystem type `dir` lives on: the type of the longest mount point
/// in `/proc/self/mounts` that is a prefix of its canonical path.
pub fn filesystem_type(dir: &Path) -> io::Result<String> {
    let canonical = dir.canonicalize()?;
    let mounts = fs::read_to_string("/proc/self/mounts")?;
    Ok(filesystem_type_in(&mounts, &canonical).unwrap_or_else(|| "unknown".to_string()))
}

fn filesystem_type_in(mounts: &str, canonical: &Path) -> Option<String> {
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let mut fields = line.split_ascii_whitespace();
        let (Some(_device), Some(point), Some(kind)) =
            (fields.next(), fields.next(), fields.next())
        else {
            continue;
        };
        // Mount points escape space as \040; none of ours hold one.
        if canonical.starts_with(point) && best.as_ref().is_none_or(|(len, _)| point.len() >= *len)
        {
            best = Some((point.len(), kind.to_string()));
        }
    }
    best.map(|(_, kind)| kind)
}

/// First line of `program args…`, trimmed; "unknown" when it cannot run.
pub fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(|l| l.trim().to_string()))
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Kernel release from `/proc`.
pub fn kernel_release() -> String {
    fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

/// Sleep until `deadline`, then spin the last stretch: `thread::sleep`
/// overshoots by the timer slack (about 60 µs), too coarse for pacing.
pub fn wait_until(deadline: Instant) {
    const SPIN: Duration = Duration::from_micros(150);
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let left = deadline - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_survive_hostile_command_names() {
        let stat = "4242 (a b) c) R 1 4242 4242 0 -1 4194304 100 0 0 0 37 5 0 0 20 0 3 0 100 1 1";
        assert_eq!(parse_cpu_ticks(stat), Some(42));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn sched_runtime_line_parses() {
        let sched = "head (1, #threads: 1)\n---\nse.exec_start   :   22549457.111970\nse.sum_exec_runtime                          :         56134.196057\n";
        assert_eq!(parse_sum_exec_runtime(sched), Some(56134.196057));
        assert_eq!(parse_sum_exec_runtime("nothing here"), None);
    }

    #[test]
    fn own_process_is_observable() {
        assert!(resident_bytes(0).unwrap() > 0);
        assert!(cpu_seconds(0).unwrap() >= 0.0);
        voluntary_switches(0).unwrap();
    }

    #[test]
    fn longest_mount_point_wins() {
        let mounts =
            "/dev/vda / ext4 rw 0 0\ntmpfs /dev/shm tmpfs rw 0 0\n/dev/vdb /data/deep xfs rw 0 0\n";
        let kind = |p: &str| filesystem_type_in(mounts, Path::new(p));
        assert_eq!(kind("/root/repo").as_deref(), Some("ext4"));
        assert_eq!(kind("/dev/shm/x").as_deref(), Some("tmpfs"));
        assert_eq!(kind("/data/deep/j").as_deref(), Some("xfs"));
        assert_eq!(kind("/data/other").as_deref(), Some("ext4"));
    }

    #[test]
    fn temp_dirs_are_distinct_and_removed() {
        let root = std::env::temp_dir();
        let (a_path, b_path);
        {
            let a = TempDir::create(&root, "wsrep-benchmark-test").unwrap();
            let b = TempDir::create(&root, "wsrep-benchmark-test").unwrap();
            assert_ne!(a.path(), b.path());
            fs::create_dir(a.path().join("sub")).unwrap();
            fs::write(a.path().join("sub").join("f"), b"12345").unwrap();
            assert_eq!(dir_bytes(a.path()).unwrap(), 5);
            copy_dir(a.path(), &b.path().join("copy")).unwrap();
            assert_eq!(dir_bytes(b.path()).unwrap(), 5);
            a_path = a.path().to_path_buf();
            b_path = b.path().to_path_buf();
        }
        assert!(!a_path.exists() && !b_path.exists());
    }
}
