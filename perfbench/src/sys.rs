//! Process-level probes: CPU time (`clock_gettime`), peak resident set
//! (`/proc`), and the run's identity (cores, source revision, compiler).

use std::path::Path;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads /proc and the 64-bit Linux timespec layout");

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Process CPU time (user + system, every thread including exited ones)
/// in seconds, at nanosecond resolution.
///
/// # Panics
/// If the kernel refuses the process CPU clock, which Linux always
/// provides.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, and the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process in MiB (`VmHWM`).
///
/// # Panics
/// When `/proc/self/status` lacks `VmHWM`.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The compiler that built the benchmark (captured by `build.rs`).
pub fn rustc_version() -> &'static str {
    env!("PERFBENCH_RUSTC_VERSION")
}

/// `git rev-parse HEAD` of the working directory, or `"none"` when it is
/// not the root of a git checkout (git is not asked to search parent
/// directories, which lie outside the code under test).
pub fn git_rev() -> String {
    if !Path::new(".git").exists() {
        return "none".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "none".into())
}

/// FNV-1a digest of the program source the benchmark measures: every
/// file under `crates/` plus the root manifest and lock file, in sorted
/// path order. It identifies the code under test where no git revision
/// is available.
pub fn source_digest(root: &Path) -> String {
    let mut files = Vec::new();
    collect_files(&root.join("crates"), &mut files);
    files.push(root.join("Cargo.toml"));
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut d = crate::stats::Digest::new();
    for f in &files {
        let Ok(bytes) = std::fs::read(f) else { continue };
        d.bytes(f.strip_prefix(root).unwrap_or(f).to_string_lossy().as_bytes());
        d.bytes(&bytes);
    }
    d.hex()
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for e in entries.flatten() {
        let p = e.path();
        match e.file_type() {
            Ok(t) if t.is_dir() => collect_files(&p, out),
            Ok(t) if t.is_file() => out.push(p),
            _ => {}
        }
    }
}
