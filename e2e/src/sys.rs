//! What the bench asks of the operating system: process CPU time and peak
//! memory from `/proc` (Linux only), a calibrated spin loop for the noise
//! sentinel, and a scratch directory that is removed on exit.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// Kernel clock ticks per second in `/proc/self/stat` (`USER_HZ`, 100 on
/// every Linux port).
const USER_HZ: f64 = 100.0;

/// CPU seconds (user + system) the whole process has used so far, exited
/// threads included. `None` where `/proc/self/stat` does not exist.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Field 2 (the command) may contain spaces; count from its closing ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Time a fixed pure-CPU loop (an xorshift chain, nothing to cache-miss
/// on) and return its steady-state time in milliseconds: passes repeat
/// until three in a row fail to beat the best, so a core still ramping up
/// from idle does not read as a noisy neighbour. The same loop before and
/// after a workload tells a noisy phase from a quiet one.
pub fn spin_ms() -> f64 {
    let mut best = f64::INFINITY;
    let mut stale = 0;
    for _ in 0..24 {
        let t0 = Instant::now();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..4_000_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x);
        let took = t0.elapsed().as_secs_f64() * 1e3;
        if took < best {
            best = took;
            stale = 0;
        } else {
            stale += 1;
            if stale == 3 {
                break;
            }
        }
    }
    best
}

/// A scratch directory of this process's own beside the running
/// executable — inside the build directory, so inside the checkout —
/// removed when dropped, which covers a panic unwinding through `main`.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn create() -> std::io::Result<Scratch> {
        static SERIAL: AtomicU32 = AtomicU32::new(0);
        let serial = SERIAL.fetch_add(1, Ordering::Relaxed);
        let path = build_dir()?.join(format!("e2e-tmp-{}-{serial}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(Scratch(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The directory holding the running executable (`<target>/release`).
pub fn build_dir() -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    exe.parent()
        .map(Path::to_path_buf)
        .ok_or_else(|| std::io::Error::other("executable has no parent directory"))
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_sane() {
        let before = cpu_seconds().expect("/proc/self/stat");
        let spin = spin_ms();
        assert!(spin > 0.0);
        assert!(cpu_seconds().unwrap() >= before);
        assert!(peak_rss_mb().expect("VmHWM") > 0.1);
    }

    #[test]
    fn scratch_is_removed_on_drop_even_when_unwinding() {
        let path = std::panic::catch_unwind(|| {
            let scratch = Scratch::create().unwrap();
            std::fs::write(scratch.path().join("brick"), b"x").unwrap();
            let path = scratch.path().to_path_buf();
            assert!(path.exists());
            std::panic::resume_unwind(Box::new(path));
        })
        .unwrap_err()
        .downcast::<PathBuf>()
        .unwrap();
        assert!(!path.exists());
    }
}
