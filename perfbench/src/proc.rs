//! Child processes and resident memory: running a command to completion
//! with its wall time and peak resident set size, and this process's own
//! peak.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// `struct timeval` of the Linux C ABI.
#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` of the Linux C ABI: two timevals, then fourteen longs,
/// the first of which is `ru_maxrss` in KiB.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    longs: [i64; 14],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// One finished child process.
pub struct ChildRun {
    /// From just before spawning to the moment it was reaped.
    pub wall: Duration,
    pub stdout: Vec<u8>,
    pub stderr: Vec<u8>,
    /// Exit code; `None` if a signal ended it.
    pub code: Option<i32>,
    /// Peak resident set size of the child alone, in KiB.
    pub max_rss_kib: u64,
}

/// Runs `cmd` to completion, reaping it with `wait4` so that its own peak
/// resident set size is known (the standard library's `wait` drops the
/// resource usage).
pub fn run_measured(cmd: &mut Command) -> std::io::Result<ChildRun> {
    let start = Instant::now();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let mut stdout = Vec::new();
    let mut stderr = Vec::new();
    // The child's error output is a line at most, so reading stdout to
    // its end first cannot block on a full stderr pipe.
    child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_end(&mut stdout)?;
    child
        .stderr
        .take()
        .expect("stderr is piped")
        .read_to_end(&mut stderr)?;
    let pid = i32::try_from(child.id()).expect("pids fit in i32");
    let mut status = 0i32;
    let mut usage = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        longs: [0; 14],
    };
    let reaped = loop {
        // SAFETY: `status` and `usage` are live, writable and laid out
        // as the Linux `int` and `struct rusage` that wait4 fills; `pid`
        // is our own unreaped child, since `child.wait` is never called.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == -1 && std::io::Error::last_os_error().kind() == std::io::ErrorKind::Interrupted {
            continue;
        }
        break r;
    };
    let wall = start.elapsed();
    if reaped != pid {
        return Err(std::io::Error::last_os_error());
    }
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(ChildRun {
        wall,
        stdout,
        stderr,
        code,
        max_rss_kib: u64::try_from(usage.longs[0]).unwrap_or(0),
    })
}

/// This process's peak resident set size (`VmHWM`), in KiB.
pub fn self_peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_a_child() {
        let run = run_measured(Command::new("sh").args(["-c", "echo hi; exit 3"])).unwrap();
        assert_eq!(run.stdout, b"hi\n");
        assert_eq!(run.code, Some(3));
        assert!(run.max_rss_kib > 0);
        assert!(self_peak_rss_kib() > 0);
    }
}
