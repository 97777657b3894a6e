//! Child processes, one at a time: each is reaped with its own
//! resource usage (`wait4`), and a watchdog kills any child that
//! outlives its deadline so a hang becomes a counted failure.

use std::fs::File;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("tabench reads child resource usage through the 64-bit Linux ABI");

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs of
/// which the first is `ru_maxrss` (KiB).
#[repr(C)]
struct RUsage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut RUsage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGKILL: i32 = 9;

/// How long one child may run before the watchdog kills it.
const CHILD_LIMIT: Duration = Duration::from_secs(60);

/// The running child's pid and kill deadline.
static CURRENT: Mutex<Option<(i32, Instant)>> = Mutex::new(None);

/// Runs `body` with a watchdog thread beside it that kills the
/// current child once its deadline passes. The thread is joined
/// before this returns.
pub fn with_watchdog<T>(body: impl FnOnce() -> T) -> T {
    let (done, stop) = mpsc::channel::<()>();
    std::thread::scope(|s| {
        s.spawn(move || {
            // Wakes every 100 ms, and at once when `done` is dropped.
            while let Err(RecvTimeoutError::Timeout) = stop.recv_timeout(Duration::from_millis(100))
            {
                let current = CURRENT.lock().expect("watchdog lock poisoned");
                if let Some((pid, deadline)) = *current {
                    if Instant::now() > deadline {
                        // SAFETY: kill(2) takes plain integers and has
                        // no memory-safety preconditions. `pid` is our
                        // child: `reap` clears CURRENT as soon as wait4
                        // returns, long before the kernel could hand the
                        // pid to another process.
                        unsafe { kill(pid, SIGKILL) };
                    }
                }
            }
        });
        let out = body();
        drop(done);
        out
    })
}

/// What a reaped child cost.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User plus system CPU seconds.
    pub cpu_s: f64,
    /// Peak resident set (VmHWM), KiB.
    pub maxrss_kib: u64,
    /// Exit code; `None` when a signal (e.g. the watchdog) ended it.
    pub code: Option<i32>,
}

fn spawn(cmd: &mut Command) -> io::Result<Child> {
    // A child's reported peak RSS is at least this process's own peak
    // when it spawned (Linux carries the pre-exec high-water mark into
    // the child's), so reset ours to its current size first. Where
    // /proc refuses, readings are upper bounds.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let child = cmd.spawn()?;
    let pid = i32::try_from(child.id()).expect("pid fits in i32");
    *CURRENT.lock().expect("watchdog lock poisoned") = Some((pid, Instant::now() + CHILD_LIMIT));
    Ok(child)
}

/// Waits for `child` with `wait4`, which reports that child's own
/// resource usage. `child` must not have been waited on before.
fn reap(child: Child) -> io::Result<Usage> {
    let pid = i32::try_from(child.id()).expect("pid fits in i32");
    let mut status = 0i32;
    let mut ru = RUsage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // Blocks without holding CURRENT, so the watchdog can still
        // kill a hung child.
        // SAFETY: `status` and `ru` are live, writable and laid out as
        // wait4(2) expects on 64-bit Linux (see `RUsage`); `pid` is our
        // own unreaped child, so the kernel writes only into them.
        let r = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if r == pid {
            break;
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    *CURRENT.lock().expect("watchdog lock poisoned") = None;
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Ok(Usage {
        cpu_s: secs(&ru.utime) + secs(&ru.stime),
        maxrss_kib: ru.maxrss.max(0) as u64,
        code: (status & 0x7f == 0).then_some((status >> 8) & 0xff),
    })
}

/// One finished command.
#[derive(Debug)]
pub struct Run {
    /// Spawn to exit, seconds.
    pub wall_s: f64,
    /// The child's own resource usage.
    pub usage: Usage,
    /// Everything it wrote to stdout.
    pub stdout: Vec<u8>,
    /// Its stderr, for failure notes.
    pub stderr: String,
}

/// Runs `cmd` to completion in `dir`, stdout captured and stderr sent
/// to a file there.
pub fn run(cmd: &mut Command, dir: &Path) -> io::Result<Run> {
    let err_path = dir.join("child.err");
    cmd.current_dir(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(File::create(&err_path)?);
    let start = Instant::now();
    let mut child = spawn(cmd)?;
    let mut stdout = Vec::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_end(&mut stdout);
    let usage = reap(child)?;
    let wall_s = start.elapsed().as_secs_f64();
    read?;
    Ok(Run {
        wall_s,
        usage,
        stdout,
        stderr: std::fs::read_to_string(&err_path).unwrap_or_default(),
    })
}

/// A `ta-serve` session over its stdin/stdout line protocol.
#[derive(Debug)]
pub struct Serve {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

/// One protocol reply: the body lines and the final `ok …`/`err …`
/// status line.
#[derive(Debug)]
pub struct Reply {
    pub body: String,
    pub status: String,
}

impl Reply {
    pub fn is_ok(&self) -> bool {
        self.status.starts_with("ok")
    }
}

impl Serve {
    /// Spawns `cmd` in `dir` with piped stdin and stdout.
    pub fn start(cmd: &mut Command, dir: &Path) -> io::Result<Serve> {
        cmd.current_dir(dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(File::create(dir.join("serve.err"))?);
        let mut child = spawn(cmd)?;
        let stdin = child.stdin.take().expect("stdin is piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Serve {
            child,
            stdin,
            stdout,
        })
    }

    /// Sends one command line and reads its reply.
    pub fn request(&mut self, line: &str) -> io::Result<Reply> {
        writeln!(self.stdin, "{line}")?;
        self.stdin.flush()?;
        let mut body = String::new();
        loop {
            let mut l = String::new();
            if self.stdout.read_line(&mut l)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("ta-serve closed its output during {line:?}"),
                ));
            }
            if l.starts_with("ok") || l.starts_with("err") {
                return Ok(Reply {
                    body,
                    status: l.trim_end().to_string(),
                });
            }
            body.push_str(&l);
        }
    }

    /// Sends `quit`, closes stdin and reaps the server.
    pub fn quit(mut self) -> io::Result<(Reply, Usage)> {
        let reply = self.request("quit");
        drop(self.stdin);
        let usage = reap(self.child)?;
        Ok((reply?, usage))
    }
}
