//! What the benchmark reads from the operating system: process CPU time,
//! memory, descriptors and threads from `/proc/self`, the machine
//! fingerprint, and the run's monotonic clock.

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

use alfredo_osgi::Json;

/// Nanoseconds since the first call: the clock every latency, due time and
/// arrival in a run is read on.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// User + system CPU seconds this process has used so far, every thread
/// that ever ran in it included, to the nanosecond
/// (`CLOCK_PROCESS_CPUTIME_ID`; `/proc/self/stat` counts in 10 ms ticks,
/// which is a twelfth of what `walkup_churn` uses in one window).
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid `struct timespec` (two 64-bit fields on every
    // 64-bit Linux target) that outlives the call.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

fn status_field(name: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with(name))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    status_field("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Threads in this process right now.
pub fn threads() -> u64 {
    status_field("Threads:").unwrap_or(0)
}

/// Open file descriptors of this process.
pub fn open_fds() -> u64 {
    std::fs::read_dir("/proc/self/fd")
        .map(|d| d.count() as u64)
        .unwrap_or(0)
}

/// Lets `thread::sleep` on the calling thread wake within about a
/// microsecond of its deadline instead of the default 50 us slack, so an
/// open-loop generator starts its ops on time without spinning.
pub fn tighten_timer_slack() {
    #[cfg(target_os = "linux")]
    {
        const PR_SET_TIMERSLACK: i32 = 29;
        extern "C" {
            fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
        }
        // SAFETY: PR_SET_TIMERSLACK takes one integer argument and only
        // changes the calling thread's timer slack; no memory is passed.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
        }
    }
}

/// Restricts the process (this thread, and every thread it spawns from now
/// on) to the first CPU it may run on; returns that CPU, or `None` where
/// affinity cannot be set.
///
/// On a small VM the scheduler either stacks the handful of threads a tap
/// passes through on one CPU, or spreads them over two, where every hop is
/// an inter-processor interrupt to a halted virtual CPU. Which one it picks
/// changes from run to run, and the two differ by a factor of four: numbers
/// that are sometimes one and sometimes the other cannot judge a change.
pub fn pin_to_one_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        const WORDS: usize = 16; // cpu_set_t: 1024 bits
        extern "C" {
            fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
            fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        }
        let mut mask = [0u64; WORDS];
        let size = std::mem::size_of_val(&mask);
        // SAFETY: both calls get a pointer to `size` bytes of `mask`, which
        // outlives them; pid 0 is the calling thread.
        unsafe {
            if sched_getaffinity(0, size, mask.as_mut_ptr()) != 0 {
                return None;
            }
            let word = mask.iter().position(|w| *w != 0)?;
            let cpu = word * 64 + mask[word].trailing_zeros() as usize;
            let mut one = [0u64; WORDS];
            one[word] = 1 << (cpu % 64);
            (sched_setaffinity(0, size, one.as_ptr()) == 0).then_some(cpu)
        }
    }
    #[cfg(not(target_os = "linux"))]
    None
}

/// A thread that does nothing but yield, at the lowest scheduling class:
/// it runs only when nothing else wants the CPU, and is preempted the
/// moment something does. It keeps the CPU out of the idle state, as
/// booting with `idle=poll` would.
///
/// An open-loop workload leaves the CPU idle between ops. On a VM every
/// idle period halts the virtual CPU, and the next op starts with a wake-up
/// through the hypervisor on a cold cache; how long that takes follows the
/// host's load, not the program's code. With the CPU kept awake,
/// `room_board`'s p50 moved 3 % between windows instead of 18 %.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
    /// `/proc/<pid>/task/<tid>/schedstat` of the thread.
    schedstat: PathBuf,
}

impl KeepAwake {
    pub fn start() -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let (named, name) = std::sync::mpsc::channel();
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let task = std::fs::read_link("/proc/thread-self").unwrap_or_default();
                let _ = named.send(PathBuf::from("/proc").join(task).join("schedstat"));
                #[cfg(target_os = "linux")]
                {
                    const SCHED_IDLE: i32 = 5;
                    extern "C" {
                        fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
                    }
                    let priority = 0i32; // struct sched_param { int sched_priority; }
                                         // SAFETY: `priority` outlives the call, which reads one
                                         // int through the pointer; pid 0 is the calling thread.
                    unsafe {
                        sched_setscheduler(0, SCHED_IDLE, &priority);
                    }
                }
                while !stop.load(Ordering::Relaxed) {
                    std::thread::yield_now();
                }
            })
        };
        KeepAwake {
            stop,
            thread: Some(thread),
            schedstat: name.recv().unwrap_or_default(),
        }
    }

    /// CPU seconds the thread has used, to be taken off the process's.
    pub fn cpu_seconds(&self) -> f64 {
        std::fs::read_to_string(&self.schedstat)
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
            .map_or(0.0, |ns| ns as f64 / 1e9)
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn cpus_online() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|info| info.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The commit the benchmark was run on, when the checkout is a git
/// repository (the driver's is not).
pub fn commit() -> String {
    command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_owned())
}

/// Where and on what the numbers were taken.
pub fn fingerprint(nofile_soft: u64) -> Json {
    let reactor = alfredo_net::Reactor::global();
    Json::obj([
        ("cpus_online", Json::I64(cpus_online() as i64)),
        (
            "cpus_used",
            Json::I64(std::thread::available_parallelism().map_or(1, |n| n.get()) as i64),
        ),
        ("cpu_model", Json::str(cpu_model())),
        (
            "kernel",
            Json::str(
                std::fs::read_to_string("/proc/sys/kernel/osrelease")
                    .map(|s| s.trim().to_owned())
                    .unwrap_or_else(|_| "unknown".to_owned()),
            ),
        ),
        (
            "rustc",
            Json::str(
                command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_owned()),
            ),
        ),
        ("nofile_soft", Json::I64(nofile_soft as i64)),
        ("reactor_io_threads", Json::I64(reactor.io_threads() as i64)),
        (
            "reactor_backend",
            Json::str(format!(
                "{:?}",
                alfredo_net::Backend::default_for_platform()
            )),
        ),
        (
            "link",
            Json::str("loopback (127.0.0.1), not a real link: latency is processor time only"),
        ),
    ])
}
