//! Talking to `ihtl-serve` / `ihtl-router` processes: spawning them the way
//! they are deployed, one line-delimited JSON connection per client, and
//! reading their peak memory.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ihtl_serve::Json;

/// One client connection. Requests are answered in order, one at a time.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

/// A parsed reply and the size of its line on the wire.
pub struct Reply {
    pub json: Json,
    pub bytes: usize,
}

impl Reply {
    pub fn ok(&self) -> bool {
        self.json.get("ok").and_then(Json::as_bool) == Some(true)
    }

    pub fn error(&self) -> String {
        self.json.get("error").and_then(Json::as_str).unwrap_or("reply without 'ok'").to_string()
    }

    pub fn str(&self, key: &str) -> Option<&str> {
        self.json.get(key).and_then(Json::as_str)
    }

    pub fn f64(&self, key: &str) -> Option<f64> {
        self.json.get(key).and_then(Json::as_f64)
    }

    /// Whether the server answered from its result cache.
    pub fn cached(&self) -> bool {
        self.json.get("cached").and_then(Json::as_bool) == Some(true)
    }

    /// The reply, or its `error` as an `Err`.
    pub fn expect_ok(self, what: &str) -> Result<Reply, String> {
        if self.ok() {
            Ok(self)
        } else {
            Err(format!("{what}: {}", self.error()))
        }
    }
}

impl Conn {
    pub fn connect(port: u16) -> Result<Conn, String> {
        let s = TcpStream::connect(("127.0.0.1", port))
            .map_err(|e| format!("connecting to port {port}: {e}"))?;
        s.set_nodelay(true).map_err(|e| format!("set_nodelay: {e}"))?;
        s.set_read_timeout(Some(Duration::from_secs(120))).map_err(|e| format!("timeout: {e}"))?;
        let writer = s.try_clone().map_err(|e| format!("cloning socket: {e}"))?;
        Ok(Conn { reader: BufReader::new(s), writer, line: String::new() })
    }

    /// Sends one request line and reads its reply line.
    pub fn call(&mut self, request: &str) -> Result<Reply, String> {
        let mut buf = Vec::with_capacity(request.len() + 1);
        buf.extend_from_slice(request.as_bytes());
        buf.push(b'\n');
        self.writer.write_all(&buf).map_err(|e| format!("sending request: {e}"))?;
        self.line.clear();
        let n = self.reader.read_line(&mut self.line).map_err(|e| format!("reading reply: {e}"))?;
        if n == 0 {
            return Err("connection closed before the reply".to_string());
        }
        let json = Json::parse(self.line.trim_end()).map_err(|e| format!("parsing reply: {e}"))?;
        Ok(Reply { json, bytes: n })
    }

    pub fn call_json(&mut self, request: &Json) -> Result<Reply, String> {
        self.call(&request.to_string())
    }
}

/// A spawned server process; killed and reaped when dropped.
pub struct Proc {
    child: Child,
    pub port: u16,
}

impl Proc {
    /// Starts `bin` with `args` plus an ephemeral `--addr` and a port file
    /// under `run_dir`, and waits until it has bound its port.
    /// `threads` sets the process's `IHTL_THREADS`.
    pub fn spawn(
        bin: &Path,
        args: &[String],
        run_dir: &Path,
        threads: Option<usize>,
    ) -> Result<Proc, String> {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        // ORDERING: Relaxed — only uniqueness of the file name matters.
        let k = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let port_file: PathBuf = run_dir.join(format!("{}-{k}.port", std::process::id()));
        let _ = std::fs::remove_file(&port_file);
        let mut cmd = Command::new(bin);
        cmd.args(args)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--port-file")
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null());
        if let Some(t) = threads {
            cmd.env("IHTL_THREADS", t.to_string());
        }
        let child = cmd.spawn().map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut proc = Proc { child, port: 0 };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(port) =
                std::fs::read_to_string(&port_file).ok().and_then(|s| s.trim().parse().ok())
            {
                proc.port = port;
                let _ = std::fs::remove_file(&port_file);
                return Ok(proc);
            }
            if let Ok(Some(status)) = proc.child.try_wait() {
                return Err(format!("{} exited during start-up: {status}", bin.display()));
            }
            if Instant::now() > deadline {
                return Err(format!("{} did not bind within 30 s", bin.display()));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Peak resident set size so far, in MiB (`VmHWM`).
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `VmHWM` of the process whose status file is `status_path`, in MiB.
pub fn peak_rss_mb(status_path: &str) -> Result<f64, String> {
    let text =
        std::fs::read_to_string(status_path).map_err(|e| format!("reading {status_path}: {e}"))?;
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM in {status_path}"))?;
    Ok(kb / 1024.0)
}

/// `register` request for a graph image.
pub fn register_image(name: &str, image: &Path) -> Json {
    Json::obj([
        ("op", Json::from("register")),
        ("name", Json::from(name)),
        (
            "source",
            Json::obj([
                ("type", Json::from("graph-image")),
                ("path", Json::from(image.display().to_string())),
            ]),
        ),
    ])
}

/// A PageRank `job` request.
pub fn pagerank_job(
    dataset: &str,
    engine: &str,
    iters: u64,
    seed: Option<u64>,
    top_k: u64,
    nocache: bool,
) -> Json {
    let mut pairs = vec![
        ("op", Json::from("job")),
        ("dataset", Json::from(dataset)),
        ("kind", Json::from("pagerank")),
        ("engine", Json::from(engine)),
        ("iters", Json::from(iters)),
        ("top_k", Json::from(top_k)),
    ];
    if let Some(s) = seed {
        pairs.push(("seed", Json::from(s)));
    }
    if nocache {
        pairs.push(("nocache", Json::Bool(true)));
    }
    Json::obj(pairs)
}

/// Reads one counter from a `stats` reply (0 when absent).
pub fn counter(stats: &Reply, key: &str) -> f64 {
    stats.f64(key).unwrap_or(0.0)
}
