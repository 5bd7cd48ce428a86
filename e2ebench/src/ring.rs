//! Boots a ring of real `ard` processes on loopback and takes it down
//! again on every exit path.

use std::net::{SocketAddr, UdpSocket};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

pub const DAEMONS: usize = 3;
/// Port distance between ring shards; a shard's six ports fit below it.
const SHARD_STRIDE: u16 = 8;
const BIND_ATTEMPTS: usize = 8;
const READY_TIMEOUT: Duration = Duration::from_secs(10);

/// The directory the benchmark may write in: `bench-e2e/` in the
/// cargo target directory that holds this executable.
pub fn work_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let profile_dir = exe.parent().ok_or("executable has no parent directory")?;
    Ok(profile_dir
        .parent()
        .unwrap_or(profile_dir)
        .join("bench-e2e"))
}

/// The process that made run directory `name` (`run-<pid>-<n>`).
fn run_dir_owner(name: &str) -> Option<u32> {
    name.strip_prefix("run-")?.split('-').next()?.parse().ok()
}

/// Removes the run directories a killed earlier benchmark left
/// behind. Another benchmark may be running out of the same target
/// directory: a directory whose process is alive is not touched.
pub fn sweep_dead_runs() -> Result<(), String> {
    let Ok(entries) = std::fs::read_dir(work_dir()?) else {
        return Ok(());
    };
    for e in entries.flatten() {
        let owner = run_dir_owner(&e.file_name().to_string_lossy());
        if owner.is_some_and(|pid| !Path::new(&format!("/proc/{pid}")).exists()) {
            let _ = std::fs::remove_dir_all(e.path());
        }
    }
    Ok(())
}

/// `ard` is built by the repository's own workspace; this package
/// only finds it.
pub fn ard_path() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let ard = exe.with_file_name("ard");
    if ard.is_file() {
        Ok(ard)
    } else {
        Err(format!(
            "{} not found beside {}: build it into the same target directory with \
             `cargo build --release -p ar-svc --bin ard` (e2ebench/run.sh does both builds)",
            ard.display(),
            exe.display()
        ))
    }
}

pub struct Ard {
    child: Child,
    pub metrics: SocketAddr,
    pub clients: SocketAddr,
}

impl Ard {
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

/// A running ring. Dropping it kills every daemon, waits for each and
/// removes the run directory (deployment file, daemon output, logs).
pub struct Ring {
    pub ards: Vec<Ard>,
    dir: PathBuf,
    /// When the first `ard` was spawned.
    pub spawned_at: Instant,
}

impl Drop for Ring {
    fn drop(&mut self) {
        for ard in &mut self.ards {
            let _ = ard.child.kill();
            let _ = ard.child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A failed boot: a port clash is retried on fresh ports, anything
/// else is final.
enum BootError {
    PortClash(String),
    Fatal(String),
}

impl Ring {
    /// Spawns [`DAEMONS`] daemons with `rings` shards each (and a
    /// durable log under the run directory when `durable`) and waits
    /// until each has printed its client and metrics addresses.
    pub fn boot(ard: &Path, rings: usize, durable: bool) -> Result<Ring, String> {
        static RUN: AtomicU32 = AtomicU32::new(0);
        let mut last = String::new();
        for _ in 0..BIND_ATTEMPTS {
            let dir = work_dir()?.join(format!(
                "run-{}-{}",
                std::process::id(),
                RUN.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            // The guard owns the directory and any child from here on.
            let mut ring = Ring {
                ards: Vec::new(),
                dir,
                spawned_at: Instant::now(),
            };
            match ring.spawn_all(ard, rings, durable) {
                Ok(()) => return Ok(ring),
                Err(BootError::PortClash(e)) => last = e,
                Err(BootError::Fatal(e)) => return Err(e),
            }
        }
        Err(format!(
            "no free port block in {BIND_ATTEMPTS} attempts: {last}"
        ))
    }

    fn spawn_all(&mut self, ard: &Path, rings: usize, durable: bool) -> Result<(), BootError> {
        let fatal = |e: String| BootError::Fatal(e);
        let base = free_port_block(rings).map_err(BootError::PortClash)?;
        let mut conf = String::from("protocol accelerated\n");
        for i in 0..DAEMONS as u16 {
            let token = base + 2 * i;
            conf += &format!(
                "daemon {i} token=127.0.0.1:{token} data=127.0.0.1:{}\n",
                token + 1
            );
        }
        let conf_path = self.dir.join("ar.conf");
        std::fs::write(&conf_path, conf).map_err(|e| fatal(format!("write ar.conf: {e}")))?;

        let mut outs = Vec::new();
        for i in 0..DAEMONS {
            let out_path = self.dir.join(format!("ard{i}.out"));
            let out = std::fs::File::create(&out_path)
                .map_err(|e| fatal(format!("{}: {e}", out_path.display())))?;
            let err = out.try_clone().map_err(|e| fatal(e.to_string()))?;
            let mut cmd = Command::new(ard);
            cmd.args([
                "--metrics-addr",
                "127.0.0.1:0",
                "--client-addr",
                "127.0.0.1:0",
            ]);
            if rings > 1 {
                cmd.arg("--rings").arg(rings.to_string());
                cmd.arg("--ring-port-stride").arg(SHARD_STRIDE.to_string());
            }
            if durable {
                cmd.arg("--log-dir").arg(self.dir.join(format!("log{i}")));
                cmd.args(["--fsync", "every:64"]);
            }
            cmd.arg(&conf_path).arg(i.to_string());
            cmd.stdin(Stdio::null()).stdout(out).stderr(err);
            // SAFETY: `die_with_parent` only makes one async-signal-safe
            // system call and touches no memory of this process.
            unsafe { cmd.pre_exec(die_with_parent) };
            if i == 0 {
                self.spawned_at = Instant::now();
            }
            let child = cmd
                .spawn()
                .map_err(|e| fatal(format!("spawn {}: {e}", ard.display())))?;
            // Addresses are filled in below; the guard must own the
            // child first.
            let unset = SocketAddr::from(([127, 0, 0, 1], 0));
            self.ards.push(Ard {
                child,
                metrics: unset,
                clients: unset,
            });
            outs.push(out_path);
        }

        let deadline = Instant::now() + READY_TIMEOUT;
        for (ard, out_path) in self.ards.iter_mut().zip(&outs) {
            loop {
                let text = std::fs::read_to_string(out_path).unwrap_or_default();
                let addr_after = |marker: &str| -> Option<SocketAddr> {
                    let rest = &text[text.find(marker)? + marker.len()..];
                    let end = rest.find(|c: char| c != '.' && c != ':' && !c.is_ascii_digit())?;
                    rest[..end].parse().ok()
                };
                if let (Some(m), Some(c)) = (
                    addr_after("metrics on http://"),
                    addr_after("service tier on tcp "),
                ) {
                    ard.metrics = m;
                    ard.clients = c;
                    break;
                }
                if let Ok(Some(status)) = ard.child.try_wait() {
                    let msg = format!("ard exited during start-up ({status}): {}", text.trim());
                    return Err(if text.contains("cannot bind protocol sockets") {
                        BootError::PortClash(msg)
                    } else {
                        BootError::Fatal(msg)
                    });
                }
                if Instant::now() > deadline {
                    return Err(fatal(format!("ard not ready after 10 s: {}", text.trim())));
                }
                std::thread::sleep(Duration::from_micros(250));
            }
        }
        Ok(())
    }

    /// The daemons that are no longer running.
    pub fn exited(&mut self) -> Vec<String> {
        let mut out = Vec::new();
        for (i, ard) in self.ards.iter_mut().enumerate() {
            if let Ok(Some(status)) = ard.child.try_wait() {
                out.push(format!("ard {i} exited: {status}"));
            }
        }
        out
    }
}

/// Finds a base port with every UDP port the ring needs free above
/// it: shard `k` of daemon `i` binds `base + k * stride + 2 * i` and
/// the port after. The probe sockets are closed again before `ard`
/// binds, so a clash is still possible and is retried by the caller.
fn free_port_block(rings: usize) -> Result<u16, String> {
    let probe = UdpSocket::bind("127.0.0.1:0").map_err(|e| format!("bind udp: {e}"))?;
    let base = probe.local_addr().map_err(|e| e.to_string())?.port();
    drop(probe);
    let span = u16::try_from(rings)
        .ok()
        .and_then(|r| r.checked_mul(SHARD_STRIDE))
        .and_then(|s| base.checked_add(s))
        .ok_or_else(|| format!("port block above {base} overflows"))?;
    let held: Result<Vec<UdpSocket>, _> = (base..span)
        .map(|p| UdpSocket::bind(("127.0.0.1", p)))
        .collect();
    held.map(|_| base)
        .map_err(|e| format!("port block {base}..{span}: {e}"))
}

extern "C" {
    fn prctl(option: i32, ...) -> i32;
}

/// Runs in the child between fork and exec: asks the kernel to
/// SIGKILL it when the thread that spawned it dies, so that daemons
/// do not outlive a benchmark that was itself killed. Rings are only
/// booted from the main thread, which lives as long as the process.
fn die_with_parent() -> std::io::Result<()> {
    const PR_SET_PDEATHSIG: i32 = 1;
    const SIGKILL: u64 = 9;
    // SAFETY: prctl(PR_SET_PDEATHSIG, sig) reads its two arguments
    // and nothing else.
    if unsafe { prctl(PR_SET_PDEATHSIG, SIGKILL) } == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_directories_name_their_process() {
        assert_eq!(run_dir_owner("run-4242-0"), Some(4242));
        assert_eq!(run_dir_owner("run-4242-drivers"), Some(4242));
        assert_eq!(run_dir_owner("trace-steady_low.json"), None);
        assert_eq!(run_dir_owner("run-x-0"), None);
    }
}
