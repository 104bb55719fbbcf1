//! Small helpers the workloads share: the benchmark's own PRNG and
//! digest, order statistics, child processes with exact resource usage,
//! `/proc` readers and the machine fingerprint.

use std::io::Read;
use std::path::Path;
use std::process::Child;
use std::time::{Duration, Instant};

/// SplitMix64. The benchmark owns its generator, so the query stream
/// cannot change when the program's own PRNG does.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0), by rejection so there is no modulo bias.
    pub fn below(&mut self, n: u64) -> u64 {
        let zone = u64::MAX - u64::MAX % n;
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % n;
            }
        }
    }
}

/// 64-bit FNV-1a, streamed. Detects changed bytes; it is not meant to
/// resist deliberate collisions.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self.0 = h;
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

pub fn digest(bytes: &[u8]) -> String {
    let mut h = Fnv::new();
    h.update(bytes);
    h.hex()
}

/// Digest of a file, read in 1 MiB chunks so a corpus never sits in
/// memory twice.
pub fn digest_file(path: &Path) -> std::io::Result<(String, u64)> {
    let mut f = std::fs::File::open(path)?;
    let mut buf = vec![0u8; 1 << 20];
    let mut h = Fnv::new();
    let mut n = 0u64;
    loop {
        let k = f.read(&mut buf)?;
        if k == 0 {
            return Ok((h.hex(), n));
        }
        h.update(&buf[..k]);
        n += k as u64;
    }
}

pub fn distinct(items: &[String]) -> usize {
    let mut v: Vec<&String> = items.iter().collect();
    v.sort();
    v.dedup();
    v.len()
}

/// Linear-interpolated quantile of unsorted samples (`q` in 0..=1).
/// Exact order statistics: never above the largest sample. NaN when
/// there are no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// How a child process ended, with the kernel's exact accounting.
#[derive(Debug, Clone, Copy)]
pub struct ChildExit {
    /// Exit code; `None` when killed by a signal.
    pub code: Option<i32>,
    /// Peak resident set size (`ru_maxrss`), MiB.
    pub peak_rss_mb: f64,
    /// User plus system CPU seconds.
    pub cpu_s: f64,
    /// Whether the deadline passed and the child was killed.
    pub killed: bool,
}

impl ChildExit {
    pub fn ok(&self) -> bool {
        self.code == Some(0) && !self.killed
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads per-child rusage through wait4 and supports 64-bit Linux only");

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

const WNOHANG: i32 = 1;

/// Reap `pid` through `wait4`. `Ok(None)` when `nohang` and it is
/// still running.
fn reap(pid: u32, nohang: bool) -> std::io::Result<Option<(i32, Rusage)>> {
    let mut status = 0i32;
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss_kb: 0,
        _rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `ru` are live, writable locals whose
        // layouts match the C `int` and 64-bit Linux `struct rusage`
        // (checked by the compile_error! gate above); wait4 writes
        // only through these two pointers.
        let r = unsafe {
            wait4(
                pid as i32,
                &mut status,
                if nohang { WNOHANG } else { 0 },
                &mut ru,
            )
        };
        if r > 0 {
            return Ok(Some((status, ru)));
        }
        if r == 0 {
            return Ok(None);
        }
        let e = std::io::Error::last_os_error();
        if e.kind() != std::io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

/// Wait for `child` until `deadline`, killing it if the deadline
/// passes, and return its exit status with peak RSS and CPU time. The
/// child is reaped here, so the `Child` handle is consumed.
pub fn wait_child(mut child: Child, deadline: Instant) -> std::io::Result<ChildExit> {
    let pid = child.id();
    let mut killed = false;
    let (status, ru) = loop {
        if let Some(done) = reap(pid, true)? {
            break done;
        }
        if Instant::now() >= deadline && !killed {
            // Not reaped yet, so the pid still names our child.
            let _ = child.kill();
            killed = true;
            match reap(pid, false)? {
                Some(done) => break done,
                None => unreachable!("blocking wait4 returned no child"),
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Ok(ChildExit {
        code,
        peak_rss_mb: ru.maxrss_kb as f64 / 1024.0,
        cpu_s: secs(&ru.utime) + secs(&ru.stime),
        killed,
    })
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// `cpu_set_t`: 1024 CPUs as 16 words.
type CpuSet = [u64; 16];

fn set_affinity(tid: i32, cpus: &CpuSet) -> std::io::Result<()> {
    // SAFETY: `cpus` is a live 128-byte mask of the size passed; the
    // kernel only reads it.
    if unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), cpus.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(())
}

/// Places the calling thread and the server process it starts on the
/// CPUs this process may use, and restores the thread's affinity when
/// dropped. Split, client and server get disjoint halves of those CPUs
/// (the first half to the client); shared, both get one CPU. Either way
/// one CPU is shared when there is only one.
///
/// On a shared virtual machine one CPU can run at 0.6× for seconds
/// while another tenant holds its core; rotating which CPUs each side
/// gets keeps such a stretch from spoiling the whole run.
pub struct CpuPin {
    saved: CpuSet,
    /// The CPUs this process may run on, in order.
    pub cpus: Vec<usize>,
    split: bool,
}

/// Read the calling thread's CPUs and pin it to the client's CPUs of
/// turn 0. Threads and processes it starts from now on inherit the pin.
pub fn pin_cpu(split: bool) -> std::io::Result<CpuPin> {
    let mut saved: CpuSet = [0; 16];
    // SAFETY: `saved` is a live, writable 128-byte buffer and its size
    // is what we pass; the kernel writes at most that many bytes.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), saved.as_mut_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let cpus: Vec<usize> = (0..1024)
        .filter(|&c| saved[c / 64] >> (c % 64) & 1 == 1)
        .collect();
    if cpus.is_empty() {
        return Err(std::io::Error::other("empty CPU affinity mask"));
    }
    let pin = CpuPin { saved, cpus, split };
    set_affinity(0, &pin.sets(0).0)?;
    Ok(pin)
}

impl CpuPin {
    /// The client's and the server's CPU sets at `turn`, taken from the
    /// allowed CPUs rotated by `turn`.
    fn sets(&self, turn: usize) -> (CpuSet, CpuSet) {
        let n = self.cpus.len();
        let set = |from: usize, len: usize| {
            let mut s: CpuSet = [0; 16];
            for k in from..from + len {
                let c = self.cpus[(turn + k) % n];
                s[c / 64] |= 1 << (c % 64);
            }
            s
        };
        let server_n = self.server_cpus();
        if self.split && n > 1 {
            (set(0, n - server_n), set(n - server_n, server_n))
        } else {
            (set(0, 1), set(0, 1))
        }
    }

    /// How many CPUs the server gets.
    pub fn server_cpus(&self) -> usize {
        let n = self.cpus.len();
        if self.split && n > 1 {
            n - n / 2
        } else {
            1
        }
    }

    /// Move the calling thread to the client's CPUs of `turn`, and every
    /// thread of process `pid` to the server's.
    pub fn rotate(&self, turn: usize, pid: u32) -> std::io::Result<()> {
        let (client, server) = self.sets(turn);
        set_affinity(0, &client)?;
        for task in std::fs::read_dir(format!("/proc/{pid}/task"))? {
            if let Some(tid) = task?.file_name().to_str().and_then(|t| t.parse().ok()) {
                set_affinity(tid, &server)?;
            }
        }
        Ok(())
    }
}

impl Drop for CpuPin {
    fn drop(&mut self) {
        let _ = set_affinity(0, &self.saved);
    }
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User plus system CPU seconds of this process so far (all threads).
pub fn self_cpu_s() -> f64 {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss_kb: 0,
        _rest: [0; 13],
    };
    // SAFETY: `ru` is a live, writable local laid out as the 64-bit
    // Linux `struct rusage`; 0 is RUSAGE_SELF.
    if unsafe { getrusage(0, &mut ru) } != 0 {
        return f64::NAN;
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    secs(&ru.utime) + secs(&ru.stime)
}

/// A `kB` field of `/proc/self/status`, in MiB.
pub fn self_status_mb(field: &str) -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What machine and which source produced a result, so a baseline from
/// another machine or tree is obvious.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name")?.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let mem = std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("MemTotal:"))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    // Only this directory's own repository: git would otherwise search
    // the parent directories.
    let commit = Path::new(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "HEAD"])
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none (not a git checkout)".into());
    format!(
        "{{\"nproc\":{nproc},\"cpu\":{},\"kernel\":{},\"mem_total\":{},\"git_commit\":{},\"source_digest\":\"{}\"}}",
        json_str(&cpu),
        json_str(&kernel),
        json_str(&mem),
        json_str(&commit),
        source_digest()
    )
}

/// Digest over the program's sources (`crates/`, the root manifest and
/// lock file), in path order. Identifies the code when the checkout
/// is not a git repository.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h = Fnv::new();
    for f in &files {
        h.update(f.to_string_lossy().as_bytes());
        h.update(&std::fs::read(f).unwrap_or_default());
    }
    h.hex()
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
