//! Child-process supervision: `ultrawiki serve` and `ultrawiki build-index`.
//!
//! Both pipes of every child are drained for its whole life by their own
//! threads: a supervisor that stops reading makes the child's next banner
//! write fail with a broken pipe, which kills `serve`. Every child is
//! killed (if still running) and reaped on every exit path, including
//! unwinding, and its exit status and stderr tail are kept for the log.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const TAIL_LINES: usize = 12;

/// A running child with drained pipes.
pub struct Proc {
    child: Child,
    /// Stdout, line by line, as the child prints it.
    lines: Receiver<String>,
    out: Option<JoinHandle<()>>,
    err: Option<JoinHandle<VecDeque<String>>>,
    status: Option<ExitStatus>,
    tail: VecDeque<String>,
}

impl Proc {
    pub fn spawn(bin: &Path, args: &[&str]) -> Result<Proc, String> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout piped");
        let stderr = child.stderr.take().expect("stderr piped");
        let (tx, lines) = mpsc::channel();
        let out = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                // The receiver may be gone; keep draining regardless.
                let _ = tx.send(line);
            }
        });
        let err = std::thread::spawn(move || {
            let mut tail = VecDeque::new();
            let mut reader = BufReader::new(stderr);
            let mut buf = Vec::new();
            while reader.read_until(b'\n', &mut buf).is_ok_and(|n| n > 0) {
                if tail.len() == TAIL_LINES {
                    tail.pop_front();
                }
                tail.push_back(String::from_utf8_lossy(&buf).trim_end().to_string());
                buf.clear();
            }
            tail
        });
        Ok(Proc {
            child,
            lines,
            out: Some(out),
            err: Some(err),
            status: None,
            tail: VecDeque::new(),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The next stdout line, or `None` once stdout closed or `wait` passed.
    pub fn next_line(&self, wait: Duration) -> Option<String> {
        self.lines.recv_timeout(wait).ok()
    }

    /// The exit status if the child has ended.
    pub fn exited(&mut self) -> Option<ExitStatus> {
        if self.status.is_none() {
            self.status = self.child.try_wait().ok().flatten();
        }
        self.status
    }

    /// Kills the child if it still runs, reaps it, and joins the drain
    /// threads. Idempotent; also run on drop.
    pub fn finish(&mut self) -> ExitStatus {
        if self.exited().is_none() {
            let _ = self.child.kill();
        }
        let status = match self.status {
            Some(s) => s,
            None => {
                let s = self.child.wait().expect("wait for a spawned child");
                self.status = Some(s);
                s
            }
        };
        if let Some(h) = self.out.take() {
            let _ = h.join();
        }
        if let Some(h) = self.err.take() {
            self.tail = h.join().unwrap_or_default();
        }
        status
    }

    /// The last stderr lines (complete once [`finish`](Self::finish) ran).
    pub fn stderr_tail(&self) -> String {
        self.tail.iter().cloned().collect::<Vec<_>>().join(" | ")
    }

    /// Remaining stdout lines (after the child ended).
    pub fn rest_of_stdout(&self) -> Vec<String> {
        self.lines.try_iter().collect()
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        self.finish();
    }
}

/// A `serve --snapshot` child and how long it took to become ready.
pub struct Server {
    pub proc: Proc,
    pub addr: SocketAddr,
    /// Spawn to the first 200 on `/healthz`.
    pub ready: Duration,
}

/// Boots `ultrawiki serve --snapshot <snap> --port 0` at its defaults and
/// waits for the first 200 on `/healthz`. The bound address comes from the
/// `serving on http://…` line.
pub fn boot(bin: &Path, snap: &Path) -> Result<Server, String> {
    let t0 = Instant::now();
    let snap_arg = snap.to_str().ok_or("snapshot path is not UTF-8")?;
    let mut proc = Proc::spawn(bin, &["serve", "--snapshot", snap_arg, "--port", "0"])?;
    let deadline = t0 + Duration::from_secs(120);
    let addr = loop {
        let wait = deadline.saturating_duration_since(Instant::now());
        let Some(line) = proc.next_line(wait) else {
            let status = proc.finish();
            return Err(format!(
                "serve printed no address (exit {status}); stderr: {}",
                proc.stderr_tail()
            ));
        };
        if let Some(rest) = line.strip_prefix("serving on http://") {
            break rest
                .trim()
                .parse::<SocketAddr>()
                .map_err(|e| format!("bad address `{rest}`: {e}"))?;
        }
    };
    loop {
        if let Ok(reply) = crate::client::get(addr, "/healthz") {
            if reply.status == 200 {
                break;
            }
        }
        if let Some(status) = proc.exited() {
            proc.finish();
            return Err(format!(
                "serve exited ({status}) before /healthz answered 200; stderr: {}",
                proc.stderr_tail()
            ));
        }
        if Instant::now() > deadline {
            return Err("serve never answered /healthz with 200".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(Server {
        proc,
        addr,
        ready: t0.elapsed(),
    })
}

/// A finished `build-index` run.
pub struct Built {
    pub wall: Duration,
    pub peak_rss_mib: f64,
    pub fingerprint: String,
    pub bytes: u64,
}

/// Runs `ultrawiki build-index <args> --out <out>`, sampling the child's
/// `VmHWM` until it exits (the last sample is the peak it reached).
pub fn build_index(bin: &Path, args: &[&str], out: &Path) -> Result<Built, String> {
    let t0 = Instant::now();
    let out_arg = out.to_str().ok_or("output path is not UTF-8")?;
    let mut all = vec!["build-index"];
    all.extend_from_slice(args);
    all.extend_from_slice(&["--out", out_arg]);
    let mut proc = Proc::spawn(bin, &all)?;
    let mut peak_kib = 0u64;
    let status = loop {
        if let Some(kib) = vm_hwm_kib(proc.pid()) {
            peak_kib = peak_kib.max(kib);
        }
        if let Some(status) = proc.exited() {
            break status;
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    let wall = t0.elapsed();
    proc.finish();
    if !status.success() {
        return Err(format!(
            "build-index failed ({status}); stderr: {}",
            proc.stderr_tail()
        ));
    }
    let wrote = proc
        .rest_of_stdout()
        .into_iter()
        .find(|l| l.starts_with("wrote "));
    let fingerprint = wrote
        .as_deref()
        .and_then(|l| l.split("fingerprint ").nth(1))
        .and_then(|f| f.split_whitespace().next())
        .ok_or("build-index printed no fingerprint")?
        .to_string();
    let bytes = std::fs::metadata(out)
        .map_err(|e| format!("{}: {e}", out.display()))?
        .len();
    Ok(Built {
        wall,
        peak_rss_mib: peak_kib as f64 / 1024.0,
        fingerprint,
        bytes,
    })
}

/// The serving snapshot, built once per binary under test: the cache key
/// is the binary's content hash plus the build arguments, and it is never
/// built inside a timed phase.
pub fn cached_snapshot(bin: &Path, work: &Path, args: &[&str]) -> Result<PathBuf, String> {
    let exe = std::fs::read(bin).map_err(|e| format!("{}: {e}", bin.display()))?;
    let key =
        ultra_snap::fnv1a(&exe) ^ crate::gen::mix(ultra_snap::fnv1a(args.join(" ").as_bytes()));
    let path = work.join(format!("snapshot-{key:016x}.usnp"));
    if path.exists() {
        println!("snapshot: cached {}", path.display());
        return Ok(path);
    }
    let tmp = work.join(format!("snapshot-{key:016x}.partial"));
    let built = build_index(bin, args, &tmp)?;
    std::fs::rename(&tmp, &path).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "snapshot: built {} in {:.1}s (fingerprint {})",
        path.display(),
        built.wall.as_secs_f64(),
        built.fingerprint
    );
    Ok(path)
}

fn proc_file(path: &str) -> Option<String> {
    let mut s = String::new();
    std::fs::File::open(path)
        .ok()?
        .read_to_string(&mut s)
        .ok()?;
    Some(s)
}

/// Peak resident set (`VmHWM`) of a live process, in KiB.
pub fn vm_hwm_kib(pid: u32) -> Option<u64> {
    proc_file(&format!("/proc/{pid}/status"))?
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Host state printed with each run (never used to adjust a metric).
pub struct Host {
    steal: u64,
    total: u64,
}

impl Host {
    fn cpu() -> (u64, u64) {
        let stat = proc_file("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
    }

    pub fn start() -> Host {
        let (steal, total) = Host::cpu();
        Host { steal, total }
    }

    /// Steal % since `start`, load average, TIME_WAIT sockets, and the time
    /// of a fixed calibration loop.
    pub fn report(&self) -> String {
        let (steal, total) = Host::cpu();
        let steal_pct = 100.0 * (steal - self.steal) as f64 / (total - self.total).max(1) as f64;
        let load = proc_file("/proc/loadavg").unwrap_or_default();
        let load: Vec<&str> = load.split_whitespace().take(3).collect();
        let time_wait: usize = ["/proc/net/tcp", "/proc/net/tcp6"]
            .iter()
            .filter_map(|p| proc_file(p))
            .map(|t| {
                t.lines()
                    .skip(1)
                    .filter(|l| l.split_whitespace().nth(3) == Some("06"))
                    .count()
            })
            .sum();
        format!(
            "host: steal {steal_pct:.1}%, load {}, time_wait {time_wait}, calibration {:.1}ms",
            load.join(" "),
            calibrate() * 1e3
        )
    }
}

/// Seconds for a fixed, dependency-chained integer loop.
fn calibrate() -> f64 {
    let t0 = Instant::now();
    let mut x = 1u64;
    for i in 0..20_000_000u64 {
        x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64()
}
