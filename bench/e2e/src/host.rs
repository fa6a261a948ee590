//! The host under the benchmark: CPU pinning, a fingerprint recorded in
//! every result (so a noisy or different host is labelled instead of read as
//! a win), and `/proc` readers for the server child and the generator.

use std::fs;
use std::hint::black_box;
use std::io;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use criterion::report::Json;
use evilbloom_hashes::{KeyedHash64, SipHash24, SipKey};

use crate::stats::median;

/// How long the spin-gap probe watches for scheduler stalls.
const JITTER_PROBE: Duration = Duration::from_secs(2);

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Disjoint CPU lists for the load generator and the server child: the
/// server gets the last CPU, the generator the rest. `None` on a one-CPU
/// host, where both run unpinned.
pub fn plan_pinning(nproc: usize) -> Option<(String, String)> {
    (nproc >= 2).then(|| {
        let generator = if nproc == 2 { "0".to_string() } else { format!("0-{}", nproc - 2) };
        (generator, (nproc - 1).to_string())
    })
}

/// Pins every thread of this process to `cpus` with `taskset`. Must run
/// before the generator starts threads that should inherit the mask.
pub fn pin_self(cpus: &str) -> Result<(), String> {
    let pid = std::process::id().to_string();
    let status = Command::new("taskset")
        .args(["-a", "-p", "-c", cpus, &pid])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run taskset: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("taskset exited with {status}"))
    }
}

/// The fingerprint recorded with every result.
#[derive(Debug, Clone)]
pub struct Host {
    pub cpu_model: String,
    pub nproc: usize,
    pub kernel: String,
    /// `None` when the run is unpinned (one CPU, or `taskset` failed).
    pub pinning: Option<(String, String)>,
    /// Gaps longer than 100 µs / 1 ms seen per second by a spinning thread.
    pub stalls_100us_per_s: f64,
    pub stalls_1ms_per_s: f64,
    /// One SipHash-2-4 MAC of a 48-byte item, in ns.
    pub siphash_ns: f64,
}

impl Host {
    /// Probes the host (about two seconds, spent spinning on the
    /// generator's CPU while nothing else of the benchmark runs). `nproc`
    /// is the count before pinning narrowed this process's CPU set.
    pub fn probe(nproc: usize, pinning: Option<(String, String)>) -> Host {
        let (stalls_100us_per_s, stalls_1ms_per_s) = spin_gaps(JITTER_PROBE);
        Host {
            cpu_model: cpu_model(),
            nproc,
            kernel: fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string()),
            pinning,
            stalls_100us_per_s,
            stalls_1ms_per_s,
            siphash_ns: siphash_ns(),
        }
    }

    pub fn to_json(&self) -> Json {
        let (generator_cpus, server_cpus) = match &self.pinning {
            Some((g, s)) => (Json::Str(g.clone()), Json::Str(s.clone())),
            None => (Json::Null, Json::Null),
        };
        Json::obj(vec![
            ("cpu_model", Json::Str(self.cpu_model.clone())),
            ("nproc", Json::Num(self.nproc as f64)),
            ("kernel", Json::Str(self.kernel.clone())),
            ("pinned", Json::Bool(self.pinning.is_some())),
            ("generator_cpus", generator_cpus),
            ("server_cpus", server_cpus),
            ("stalls_100us_per_s", Json::Num(self.stalls_100us_per_s)),
            ("stalls_1ms_per_s", Json::Num(self.stalls_1ms_per_s)),
            ("siphash_ns", Json::Num(self.siphash_ns)),
        ])
    }

    pub fn summary(&self) -> String {
        let pinning = match &self.pinning {
            Some((g, s)) => format!("generator on CPU {g}, server on CPU {s}"),
            None => "unpinned".to_string(),
        };
        format!(
            "host: {} | nproc {} | kernel {} | {pinning} | stalls >100us {:.1}/s, >1ms {:.1}/s | siphash {:.1} ns",
            self.cpu_model,
            self.nproc,
            self.kernel,
            self.stalls_100us_per_s,
            self.stalls_1ms_per_s,
            self.siphash_ns
        )
    }
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Spins for `duration`, counting gaps between consecutive clock reads
/// longer than 100 µs and 1 ms: time the thread was not running.
fn spin_gaps(duration: Duration) -> (f64, f64) {
    let start = Instant::now();
    let mut last = start;
    let (mut over_100us, mut over_1ms) = (0u64, 0u64);
    while last - start < duration {
        let now = Instant::now();
        let gap = now - last;
        if gap > Duration::from_micros(100) {
            over_100us += 1;
            if gap > Duration::from_millis(1) {
                over_1ms += 1;
            }
        }
        last = now;
    }
    let secs = (last - start).as_secs_f64();
    (over_100us as f64 / secs, over_1ms as f64 / secs)
}

/// Median of five timed batches of SipHash-2-4 MACs over a 48-byte item.
fn siphash_ns() -> f64 {
    const CALLS: u64 = 200_000;
    let prf = SipHash24::new(SipKey::new(0x0706_0504_0302_0100, 0x0F0E_0D0C_0B0A_0908));
    let item = *b"http://alpha-atlas.com/calibration/index/0000001";
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut acc = 0u64;
            for tweak in 0..CALLS {
                acc ^= prf.mac_with_tweak(black_box(&item), tweak);
            }
            black_box(acc);
            start.elapsed().as_nanos() as f64 / CALLS as f64
        })
        .collect();
    median(&samples)
}

/// CPU time of every live thread of `pid`, in ns (from `schedstat`, which
/// has nanosecond resolution where `stat` ticks at 10 ms).
pub fn cpu_ns(pid: u32) -> io::Result<u64> {
    let mut total = 0u64;
    for task in fs::read_dir(format!("/proc/{pid}/task"))? {
        let path = task?.path().join("schedstat");
        // A thread that exits between the listing and the read is skipped.
        if let Ok(text) = fs::read_to_string(path) {
            total += text.split_whitespace().next().and_then(|v| v.parse().ok()).unwrap_or(0);
        }
    }
    Ok(total)
}

/// A `key: value kB`-style field of `/proc/<pid>/status` (e.g. `VmHWM`).
pub fn status_kb(pid: u32, key: &str) -> io::Result<u64> {
    proc_field(&format!("/proc/{pid}/status"), key)
}

/// A field of `/proc/<pid>/io` (e.g. `wchar`).
pub fn io_field(pid: u32, key: &str) -> io::Result<u64> {
    proc_field(&format!("/proc/{pid}/io"), key)
}

fn proc_field(path: &str, key: &str) -> io::Result<u64> {
    let text = fs::read_to_string(path)?;
    text.lines()
        .find_map(|line| {
            let (name, rest) = line.split_once(':')?;
            (name == key).then(|| rest.split_whitespace().next()?.parse().ok())?
        })
        .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("{key} not in {path}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_gives_the_server_the_last_cpu_and_disjoint_sets() {
        assert_eq!(plan_pinning(1), None);
        assert_eq!(plan_pinning(2), Some(("0".to_string(), "1".to_string())));
        assert_eq!(plan_pinning(8), Some(("0-6".to_string(), "7".to_string())));
    }

    #[test]
    fn proc_readers_see_this_process() {
        let pid = std::process::id();
        assert!(status_kb(pid, "VmHWM").expect("VmHWM") > 0);
        assert!(io_field(pid, "wchar").is_ok());
        assert!(status_kb(pid, "NoSuchField").is_err());
        assert!(cpu_ns(pid).expect("schedstat") > 0);
    }
}
