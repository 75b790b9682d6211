//! `serve_closed_loop`: the `ftdircmp-serve` daemon, restarted on a queue
//! root that already holds a job history, driven over loopback TCP by two
//! closed-loop clients.
//!
//! Each client subscribes to the event stream, then repeatedly submits a
//! small campaign job, watches the stream until the job's done event
//! arrives, fetches the result, and polls the job's `status` and the
//! queue's `list` before the next job. Every request goes out in one write,
//! as the shipped `ftdircmp-serve` client sends it.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use ftdircmp_core::{SimReport, System, SystemConfig};
use ftdircmp_serve::job::JobSpec;
use ftdircmp_serve::json::Json;
use ftdircmp_serve::queue::Queue;
use ftdircmp_serve::runner::execute_job;
use ftdircmp_serve::store::Store;
use ftdircmp_workloads::{suite, WorkloadSpec};

use crate::checks;
use crate::mix;
use crate::trace::Tracer;

/// Closed-loop clients (the host's `nproc`).
pub const CLIENTS: usize = 2;
/// Worker threads of the daemon.
pub const DAEMON_JOBS: usize = 2;
/// Jobs per round: every suite benchmark twice.
pub const ROUND_JOBS: usize = 24;
/// Done jobs in the queue root each daemon boots on; replaying their
/// journal is most of a boot.
pub const HISTORY_JOBS: usize = 500;
/// Daemon boots per round; the clients run against the last. A boot takes
/// 14–20 ms with a heavy tail, so a run needs many for a steady median.
pub const BOOTS: usize = 8;
/// Operations per core of each history job's units.
const HISTORY_OPS: u64 = 4;
/// Operations per core of each job's units (a few thousand events).
pub const OPS: u64 = 40;
/// A reply slower than this fails the command.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// One submission: a suite benchmark at a seeded think time and schedule
/// seed, under DirCMP, fault-free FtDirCMP and FtDirCMP at 2000/M.
#[derive(Debug, Clone)]
pub struct Job {
    pub label: String,
    pub workload: String,
    pub schedule_seed: u64,
}

/// (protocol, lost per million) of each unit of a job, in unit order.
const CONFIGS: [(&str, f64); 3] = [("dircmp", 0.0), ("ftdircmp", 0.0), ("ftdircmp", 2000.0)];

impl Job {
    pub fn to_json(&self) -> Json {
        let configs = CONFIGS
            .iter()
            .map(|(protocol, rate)| {
                let mut pairs = vec![
                    ("protocol", Json::str(*protocol)),
                    ("schedule_seed", Json::num_u64(self.schedule_seed)),
                ];
                if *rate > 0.0 {
                    pairs.push(("fault_rate", Json::Num(*rate)));
                }
                Json::obj(pairs)
            })
            .collect();
        Json::obj(vec![
            ("kind", Json::str("campaign")),
            ("label", Json::str(&self.label)),
            ("specs", Json::Arr(vec![Json::str(&self.workload)])),
            ("configs", Json::Arr(configs)),
            ("seeds", Json::num_u64(1)),
        ])
    }

    /// Runs unit `k` in-process, as the daemon's campaign runner would
    /// (unit seed 0: trace and system seed 1000).
    pub fn run_unit(&self, k: usize) -> Result<(SimReport, u64), String> {
        let (protocol, rate) = CONFIGS[k];
        let mut cfg = if protocol == "dircmp" {
            SystemConfig::dircmp()
        } else {
            SystemConfig::ftdircmp()
        };
        if rate > 0.0 {
            cfg = cfg.with_fault_rate(rate);
        }
        let cfg = cfg.with_schedule_seed(self.schedule_seed).with_seed(1000);
        let wl = WorkloadSpec::parse(&self.workload)?.generate(16, 1000);
        let r = System::run_workload(cfg, &wl).map_err(|e| e.to_string())?;
        Ok((r, checks::count_mem_ops(&wl)))
    }
}

/// `n` jobs of `ops` operations per core for `seed`: the suite in a seeded order, repeated, each with a
/// seeded think time and a nonzero schedule seed.
pub fn jobs(seed: u64, salt: u64, n: usize, ops: u64) -> Vec<Job> {
    let names: Vec<&str> = suite().iter().map(|s| s.name).collect();
    let mut order: Vec<usize> = (0..n).map(|i| i % names.len()).collect();
    for i in (1..order.len()).rev() {
        let j = (mix(seed, salt + i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
        .into_iter()
        .enumerate()
        .map(|(i, b)| {
            let r = mix(seed, salt + 10_000 + i as u64);
            Job {
                label: format!("bench-{salt}-{i}"),
                workload: format!("{}:ops={ops},think={}", names[b], 10 + r % 31),
                schedule_seed: 1 + (r >> 8) % 1_000_000,
            }
        })
        .collect()
}

/// Builds a queue root holding [`HISTORY_JOBS`] done jobs through the
/// serve library in-process (submit, execute, mark done), once per
/// process: an existing `root` is complete, because it is built elsewhere
/// and renamed into place.
pub fn build_history(root: &Path, seed: u64) -> Result<(), String> {
    if root.exists() {
        return Ok(());
    }
    let building = root.with_extension("building");
    let _ = std::fs::remove_dir_all(&building);
    fill_history(&building, seed)?;
    std::fs::rename(&building, root).map_err(|e| format!("history root: {e}"))
}

fn fill_history(root: &Path, seed: u64) -> Result<(), String> {
    let store = Store::open(root).map_err(|e| format!("history root: {e}"))?;
    let queue = Queue::open(store, HISTORY_JOBS + 1).map_err(|e| format!("history queue: {e}"))?;
    for job in jobs(seed, 1, HISTORY_JOBS, HISTORY_OPS) {
        let spec = JobSpec::from_json(&job.to_json())?;
        queue.submit(spec)?;
        let taken = queue.take_next().ok_or("history job vanished")?;
        let outcome = execute_job(queue.store(), &taken.id, &taken.spec, 1, &|_, _| {})
            .map_err(|e| format!("history job: {e}"))?;
        queue.mark_done(&taken.id, &outcome);
    }
    Ok(())
}

/// Starts `root` afresh from the history's journal, synced to disk. The
/// journal is all a booting daemon reads; the history's records and
/// summaries stay behind, and syncing here keeps their write-back out of the
/// daemon's own syncs.
fn fresh_root(history: &Path, root: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(root);
    std::fs::create_dir_all(root)?;
    let journal = root.join("journal.jsonl");
    std::fs::copy(history.join("journal.jsonl"), &journal)?;
    std::fs::File::open(&journal)?.sync_all()?;
    std::fs::File::open(root)?.sync_all()
}

/// What a client saw of one job.
#[derive(Debug, Clone, Default)]
pub struct JobTiming {
    pub index: usize,
    /// Submit sent until result received, ms; infinite if the job failed.
    pub latency_ms: f64,
    pub submit_ms: f64,
    /// Submit sent until the job's first event (progress, or done if the
    /// job finished before the watch).
    pub queue_wait_ms: f64,
    pub result_ms: f64,
    pub status_ms: f64,
    pub list_ms: f64,
    /// The stored summary as fetched, if the job succeeded.
    pub summary: Option<String>,
}

#[derive(Default)]
struct Seen {
    first_event: Option<Instant>,
    done: Option<(Instant, String)>,
}

/// One client connection; it watches only its own jobs, so no other
/// client's events interleave with its replies.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    seen: HashMap<String, Seen>,
    attempted: u64,
    failed: u64,
}

impl Client {
    fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            seen: HashMap::new(),
            attempted: 0,
            failed: 0,
        })
    }

    /// Sends one request and reads lines until its reply, recording the
    /// events that arrive in between. Returns the reply and its round-trip
    /// time in ms. A reply that is not JSON, or not ok, fails the command.
    fn call(&mut self, request: &Json) -> Result<(Json, f64), String> {
        self.attempted += 1;
        let result = self.call_inner(request);
        if result.is_err() {
            self.failed += 1;
        }
        result
    }

    fn call_inner(&mut self, request: &Json) -> Result<(Json, f64), String> {
        let mut line = request.to_string();
        line.push('\n');
        let sent = Instant::now();
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("sending: {e}"))?;
        loop {
            let (v, at) = self.read()?;
            if v.get("event").is_some() {
                continue;
            }
            if v.get("ok") != Some(&Json::Bool(true)) {
                return Err(format!("request {request} refused: {v}"));
            }
            return Ok((v, (at - sent).as_secs_f64() * 1e3));
        }
    }

    /// Reads one line, which must be JSON, and records it if it is an event.
    fn read(&mut self) -> Result<(Json, Instant), String> {
        let mut text = String::new();
        let n = self
            .reader
            .read_line(&mut text)
            .map_err(|e| format!("reading: {e}"))?;
        let at = Instant::now();
        if n == 0 {
            return Err("daemon closed the connection".to_string());
        }
        let v = Json::parse(text.trim()).map_err(|e| format!("line {text:?} is not JSON: {e}"))?;
        if let Some(kind) = v.get("event").and_then(Json::as_str) {
            let id = v.get("id").and_then(Json::as_str).unwrap_or("").to_string();
            let seen = self.seen.entry(id).or_default();
            seen.first_event.get_or_insert(at);
            if kind == "done" {
                let outcome = v.get("outcome").and_then(Json::as_str).unwrap_or("?");
                seen.done = Some((at, outcome.to_string()));
            }
        }
        Ok((v, at))
    }

    /// Runs one job to its result.
    fn run_job(
        &mut self,
        index: usize,
        job: &Job,
        tracer: &mut Tracer,
    ) -> Result<JobTiming, String> {
        let span = tracer.begin("serve.job", None, &job.label);
        let submitted = Instant::now();
        let submit = self.call(&Json::obj(vec![
            ("cmd", Json::str("submit")),
            ("job", job.to_json()),
        ]));
        let (reply, submit_ms) = submit?;
        tracer.record("serve.submit", submitted, Instant::now(), span, &job.label);
        let id = reply
            .get("id")
            .and_then(Json::as_str)
            .ok_or("submit reply without id")?
            .to_string();
        let mut t = JobTiming {
            index,
            submit_ms,
            ..JobTiming::default()
        };
        let id_json = || Json::str(&id);
        // Watch the job to done. A job that finished before the watch gets
        // its done event at once.
        let start = Instant::now();
        self.call(&Json::obj(vec![
            ("cmd", Json::str("watch")),
            ("id", id_json()),
        ]))?;
        tracer.record("serve.watch", start, Instant::now(), span, &id);
        while self.seen.get(&id).and_then(|s| s.done.as_ref()).is_none() {
            self.read()?;
        }
        let seen = self.seen.remove(&id).unwrap_or_default();
        let (done_at, outcome) = seen.done.expect("loop exits on done");
        let first_event = seen.first_event.unwrap_or(done_at);
        tracer.record("serve.queue_wait", submitted, first_event, span, &id);
        t.queue_wait_ms = (first_event - submitted).as_secs_f64() * 1e3;
        if outcome != "ok" {
            return Err(format!("job {id} ended {outcome}"));
        }
        let start = Instant::now();
        let (reply, ms) = self.call(&Json::obj(vec![
            ("cmd", Json::str("result")),
            ("id", id_json()),
        ]))?;
        let end = Instant::now();
        tracer.record("serve.result", start, end, span, &id);
        tracer.end(span);
        t.result_ms = ms;
        t.latency_ms = (end - submitted).as_secs_f64() * 1e3;
        t.summary = reply
            .get("summary")
            .and_then(Json::as_str)
            .map(str::to_string);
        // Between jobs the client polls the job's status and the queue.
        let start = Instant::now();
        let (status, ms) = self.call(&Json::obj(vec![
            ("cmd", Json::str("status")),
            ("id", id_json()),
        ]))?;
        tracer.record("serve.status", start, Instant::now(), None, &id);
        t.status_ms = ms;
        if status.get("state").and_then(Json::as_str) != Some("done") {
            return Err(format!("job {id}: status after its result is {status}"));
        }
        let start = Instant::now();
        let (_, ms) = self.call(&Json::obj(vec![("cmd", Json::str("list"))]))?;
        tracer.record("serve.list", start, Instant::now(), None, &id);
        t.list_ms = ms;
        Ok(t)
    }
}

/// A running daemon on a queue root.
pub struct Daemon {
    child: Child,
    /// Kept open for the daemon's lifetime, so a later write of its
    /// standard output cannot fail.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
    /// Spawn until the port is published (after journal replay), seconds.
    pub boot_s: f64,
}

impl Daemon {
    pub fn start(bin: &Path, root: &Path) -> Result<Daemon, String> {
        let started = Instant::now();
        let mut child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0", "--jobs"])
            .arg(DAEMON_JOBS.to_string())
            .arg("--root")
            .arg(root)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        // The daemon prints its address right after publishing the port file.
        let mut line = String::new();
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let read = stdout.read_line(&mut line);
        let boot_s = started.elapsed().as_secs_f64();
        let mut daemon = Daemon {
            child,
            _stdout: stdout,
            addr: String::new(),
            boot_s,
        };
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .map(str::to_string);
        let port = std::fs::read_to_string(root.join("port")).unwrap_or_default();
        match (read, addr) {
            (Ok(_), Some(addr)) if addr.ends_with(&format!(":{}", port.trim())) => {
                daemon.addr = addr;
                Ok(daemon)
            }
            _ => {
                daemon.stop();
                Err(format!(
                    "daemon did not publish its port (stdout {line:?}, port file {port:?})"
                ))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the daemon to shut down and waits for it; kills it if it does
    /// not exit within ten seconds.
    pub fn stop(&mut self) {
        if !self.addr.is_empty() {
            if let Ok(mut s) = TcpStream::connect(&self.addr) {
                let _ = s.set_read_timeout(Some(Duration::from_secs(10)));
                let _ = s.write_all(b"{\"cmd\":\"shutdown\"}\n");
                let _ = BufReader::new(s).read_line(&mut String::new());
            }
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A client's jobs, its [attempted, failed] commands and its spans.
type ClientOut = (Vec<Result<JobTiming, String>>, [u64; 2], Tracer);

/// [`BOOTS`] daemon boots and one pass of the clients over `jobs`.
pub struct Round {
    /// Spawn until the port is published, per boot, seconds.
    pub boots_s: Vec<f64>,
    pub wall_s: f64,
    pub daemon_rss_mb: f64,
    /// Every attempted job, index-aligned with the input; failures hold
    /// an infinite latency and no summary.
    pub jobs: Vec<JobTiming>,
    pub commands: [u64; 2],
    pub failed_jobs: u64,
    pub problems: Vec<String>,
}

/// Boots the daemon [`BOOTS`] times, each on a fresh copy of the history's
/// journal in `root`, stopping all but the last, and runs the clients over
/// `jobs` against the last until every job has a result.
pub fn round(
    bin: &Path,
    history: &Path,
    root: &Path,
    jobs: &[Job],
    tracer: &mut Tracer,
) -> Result<Round, String> {
    let mut boots_s = Vec::with_capacity(BOOTS);
    let mut daemon = loop {
        fresh_root(history, root).map_err(|e| format!("copying history: {e}"))?;
        let boot_span_start = Instant::now();
        let mut daemon = Daemon::start(bin, root)?;
        tracer.record(
            "serve.boot",
            boot_span_start,
            Instant::now(),
            None,
            "daemon",
        );
        boots_s.push(daemon.boot_s);
        if boots_s.len() == BOOTS {
            break daemon;
        }
        daemon.stop();
    };
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let origin = tracer.origin();
    let results: Vec<ClientOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let addr = daemon.addr.clone();
                let next = &next;
                let on = tracer.is_on();
                s.spawn(move || {
                    let mut tracer = Tracer::new(on, origin);
                    let mut out = Vec::new();
                    let mut client = match Client::connect(&addr) {
                        Ok(c) => c,
                        // The other client takes over every job; jobs no client
                        // ran count as failed below.
                        Err(e) => return (vec![Err(e)], [1, 1], tracer),
                    };
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= jobs.len() {
                            break;
                        }
                        out.push(client.run_job(i, &jobs[i], &mut tracer));
                    }
                    (out, [client.attempted, client.failed], tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let daemon_rss_mb = crate::peak_rss_mb(Some(daemon.pid())).unwrap_or(0.0);
    daemon.stop();
    let mut out = Round {
        boots_s,
        wall_s,
        daemon_rss_mb,
        jobs: Vec::new(),
        commands: [0, 0],
        failed_jobs: 0,
        problems: Vec::new(),
    };
    let mut timings: Vec<Option<JobTiming>> = vec![None; jobs.len()];
    for (client_jobs, commands, t) in results {
        out.commands[0] += commands[0];
        out.commands[1] += commands[1];
        tracer.absorb(t);
        for r in client_jobs {
            match r {
                Ok(t) => {
                    let i = t.index;
                    timings[i] = Some(t);
                }
                Err(e) => out.problems.push(e),
            }
        }
    }
    for (i, t) in timings.into_iter().enumerate() {
        match t {
            Some(t) => out.jobs.push(t),
            None => {
                out.failed_jobs += 1;
                out.jobs.push(JobTiming {
                    index: i,
                    latency_ms: f64::INFINITY,
                    ..JobTiming::default()
                });
            }
        }
    }
    Ok(out)
}

/// The unit records of a fetched summary, after checking the job ran
/// every unit coherently.
pub fn summary_units(label: &str, summary: &str) -> Result<Vec<Json>, String> {
    let v =
        Json::parse(summary.trim()).map_err(|e| format!("{label}: summary is not JSON: {e}"))?;
    if v.get("outcome").and_then(Json::as_str) != Some("ok") {
        return Err(format!("{label}: outcome is not ok: {summary}"));
    }
    let units = v
        .get("units")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{label}: summary without units"))?;
    if units.len() != CONFIGS.len() {
        return Err(format!(
            "{label}: {} units, expected {}",
            units.len(),
            CONFIGS.len()
        ));
    }
    for u in units {
        if u.get("status").and_then(Json::as_str) != Some("ok")
            || u.get("violations").and_then(Json::as_u64) != Some(0)
        {
            return Err(format!("{label}: unit record {u}"));
        }
    }
    Ok(units.to_vec())
}
