//! Running the program under test as a child process, with the
//! kernel's accounting of it.

use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Instant;

/// How a finished child looked from outside.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Exit code, or `None` when a signal ended the process.
    pub code: Option<i32>,
    /// Spawn → reaped, seconds.
    pub wall_s: f64,
    /// Kernel-reported peak resident set (`ru_maxrss`), MB.
    pub peak_rss_mb: f64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
/// longs of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Reaps `child` with `wait4`, which — unlike `Child::wait` — also
/// returns the child's resource usage. `started` is when it was
/// spawned.
pub fn reap(child: Child, started: Instant) -> std::io::Result<Exit> {
    let pid = i32::try_from(child.id()).expect("pid fits pid_t");
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `status` and `usage` are live, writable, and laid out as
    // the Linux ABI expects (`int`, `struct rusage`); `pid` is a child
    // of this process that nothing else reaps — `child` is consumed
    // here and `Child` does not wait on drop.
    let got = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    let wall_s = started.elapsed().as_secs_f64();
    drop(child);
    if got != pid {
        return Err(std::io::Error::last_os_error());
    }
    let signalled = status & 0x7f != 0;
    Ok(Exit {
        code: (!signalled).then_some((status >> 8) & 0xff),
        wall_s,
        peak_rss_mb: usage.maxrss as f64 * 1024.0 / 1e6,
    })
}

/// Spawns `odrc` with `args` (output discarded) and waits for it.
pub fn run(odrc: &Path, args: &[&str]) -> std::io::Result<Exit> {
    let started = Instant::now();
    let child = Command::new(odrc)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()?;
    reap(child, started)
}

/// `VmHWM` of a live process in MB, from `/proc/<pid>/status`.
pub fn vm_hwm_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reap_reports_exit_code_and_rss() {
        let started = Instant::now();
        let child = Command::new("sh").args(["-c", "exit 3"]).spawn().unwrap();
        let exit = reap(child, started).unwrap();
        assert_eq!(exit.code, Some(3));
        assert!(exit.peak_rss_mb > 0.0);
        assert!(exit.wall_s > 0.0);
    }

    #[test]
    fn own_hwm_is_readable() {
        assert!(vm_hwm_mb(std::process::id()).unwrap() > 0.0);
    }
}
