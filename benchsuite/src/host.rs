//! Host readings: the two host-speed probes that adjusted times refer to,
//! and from `/proc` process CPU time, peak resident set, CPU model and the
//! filesystem behind a path, plus the provenance block every result
//! carries. Linux only; an unavailable reading is 0 or `"unknown"`.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use mirza_telemetry::Json;

/// Seconds either probe takes on a quiet 2-vCPU Xeon VM: the speed that
/// adjusted times refer to.
pub const PROBE_REF_S: f64 = 0.007;

/// Factor that adjusts a time measured now to the reference speed: the
/// mean of a probe run before and after, against [`PROBE_REF_S`].
pub fn speed_scale(before: f64, after: f64) -> f64 {
    PROBE_REF_S / ((before + after) / 2.0)
}

/// How simulation time follows the [`SpeedProbe`]: a cell slows as the
/// probe's time to this power, being only partly memory-bound. Between a
/// quiet and a busy phase of a 2-vCPU Xeon VM, `table4-baseline` and
/// `mitigated` slowed as the probe's time to the power 0.68 and 0.77.
pub const MEMORY_EXPONENT: f64 = 0.75;

/// Host-speed probe for memory-bound work: a fixed walk of one million
/// random read-modify-writes over 8 MB. On a shared host, other tenants'
/// memory traffic slows the simulator by up to 2x for minutes at a time,
/// and this walk slows with it, so `time x (PROBE_REF_S / probe)^e` (an
/// adjusted time, `e` = [`MEMORY_EXPONENT`]) tracks the code instead of
/// the neighbours. The walk is the benchmark's own code, so a change to the
/// repository never moves it.
#[derive(Debug)]
pub struct SpeedProbe {
    buf: Vec<u64>,
}

impl Default for SpeedProbe {
    fn default() -> Self {
        SpeedProbe {
            buf: vec![1; 1 << 20],
        }
    }
}

impl SpeedProbe {
    /// Seconds one walk takes now.
    pub fn seconds(&mut self) -> f64 {
        let n = self.buf.len() as u64;
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut acc = 0u64;
        let t0 = Instant::now();
        for _ in 0..1_000_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x % n) as usize;
            acc = acc.wrapping_add(self.buf[i]);
            self.buf[i] = acc ^ x;
        }
        black_box(acc);
        t0.elapsed().as_secs_f64()
    }
}

/// How an attack-matrix campaign follows [`compute_probe_seconds`]: it
/// slows as the probe's time to this power, its working set being larger
/// than the probe's. On a 2-vCPU Xeon VM, over five sets of ten runs, the
/// campaign's spread was 0.05-0.20 at power 1 and 0.05-0.18 at this one.
pub const RIG_EXPONENT: f64 = 1.5;

/// Host-speed probe for compute-bound work (the attack rig on two
/// workers, and set-up): two threads at once, each making two million
/// xorshift steps with a read-modify-write into its own 64 KB table.
/// Seconds until both are done, the fastest of three runs, so that one
/// momentary interruption does not count.
pub fn compute_probe_seconds() -> f64 {
    let walk = || {
        let mut table = vec![0u32; 1 << 14];
        let mask = table.len() - 1;
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut acc = 0u64;
        for _ in 0..2_000_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let j = x as usize & mask;
            if table[j] & 1 == 0 {
                acc = acc.wrapping_add(x >> 3);
            } else {
                acc ^= x.rotate_left(7);
            }
            table[j] = table[j].wrapping_add(acc as u32 | 1);
        }
        acc
    };
    (0..3)
        .map(|_| {
            let t0 = Instant::now();
            std::thread::scope(|s| {
                let other = s.spawn(walk);
                black_box(walk());
                black_box(other.join().expect("probe thread panicked"));
            });
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// CPU ticks per second behind `/proc/self/stat`: the `AT_CLKTCK` entry of
/// the auxiliary vector, else the Linux default of 100.
fn clock_ticks_per_s() -> f64 {
    const AT_CLKTCK: u64 = 17;
    let Ok(auxv) = std::fs::read("/proc/self/auxv") else {
        return 100.0;
    };
    for pair in auxv.chunks_exact(16) {
        let (key, val) = pair.split_at(8);
        let key = u64::from_ne_bytes(key.try_into().expect("8-byte auxv key"));
        let val = u64::from_ne_bytes(val.try_into().expect("8-byte auxv value"));
        if key == AT_CLKTCK && val > 0 {
            return val as f64;
        }
    }
    100.0
}

/// User plus system CPU seconds of the whole process, exited threads
/// included (`/proc/self/stat` fields 14 and 15).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Field 2, the command name, may hold spaces: count from its ')'.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3, so fields 14 and 15 sit at 11 and 12.
    let ticks: u64 = [11, 12]
        .iter()
        .filter_map(|&i| fields.get(i)?.parse::<u64>().ok())
        .sum();
    ticks as f64 / clock_ticks_per_s()
}

/// Peak resident set size of the process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?
                    .split_whitespace()
                    .next()?
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                let (key, val) = l.split_once(':')?;
                (key.trim() == "model name").then(|| val.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Filesystem type of the mount holding `path`: the longest mount point
/// in `/proc/self/mounts` that prefixes it.
pub fn fs_type(path: &Path) -> String {
    let (Ok(path), Ok(mounts)) = (
        path.canonicalize(),
        std::fs::read_to_string("/proc/self/mounts"),
    ) else {
        return "unknown".to_string();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_device, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The repository's provenance block plus what tells two hosts and two
/// journal placements apart: CPU model, `nproc`, compiler version, and the
/// journal directory with its filesystem type.
pub fn provenance(journal_dir: &Path) -> Json {
    let mut p = mirza_bench::provenance::to_json();
    p.push("cpu_model", cpu_model())
        .push("nproc", nproc())
        .push("rustc", env!("BENCHSUITE_RUSTC_VERSION"))
        .push("journal_dir", journal_dir.display().to_string())
        .push("journal_fs", fs_type(journal_dir));
    p
}
