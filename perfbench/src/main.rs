//! Benchmark of the FtDirCMP simulator and its campaign daemon.
//!
//! ```text
//! ftdircmp-perfbench --workload fig3_classic|fault_fork|serve_closed_loop
//!     --seed N --seconds N --trace 0|1 --serve-bin PATH [--work DIR]
//! ```
//!
//! With `--trace 0` it repeats whole rounds of the workload for `--seconds`
//! and reports the end-to-end metrics; with `--trace 1` it runs one traced
//! round of every workload plus single-layer replays and reports the
//! per-layer metrics. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. See README.md.

mod checks;
mod fig3;
mod fork;
mod layers;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{ExitCode, Stdio};
use std::time::Instant;

use ftdircmp_serve::job::JobSpec;
use ftdircmp_serve::json::Json;

use crate::stats::{geomean, median, quantile};
use crate::trace::Tracer;

const WORKLOADS: [&str; 3] = ["fig3_classic", "fault_fork", "serve_closed_loop"];

/// Every end-to-end metric, reported by every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 10] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ns_per_mem_op", "ns"),
    ("job_latency_p50_ms", "ms"),
    ("job_latency_p90_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("sim_ft_overhead_x", "x"),
    ("sim_ft_overhead_2000_x", "x"),
    ("sim_fault_slowdown_x", "x"),
];

/// Every per-layer metric, reported with `--trace 1`.
const PER_LAYER: [(&str, &str); 38] = [
    ("sim.queue_ns_per_op", "ns"),
    ("noc.send_ns", "ns"),
    ("noc.send_domains_ns", "ns"),
    ("noc.messages_dropped", "count"),
    ("workloads.generate_s", "s"),
    ("core.new_s", "s"),
    ("core.run_s", "s"),
    ("core.events", "count"),
    ("core.ns_per_event", "ns"),
    ("core.events_per_mem_op", "ratio"),
    ("core.sim_cycles", "cycles"),
    ("core.messages", "count"),
    ("core.bytes", "bytes"),
    ("core.msg_overhead_pct", "%"),
    ("core.timeouts_fired", "count"),
    ("core.reissues", "count"),
    ("core.stale_discards", "count"),
    ("core.false_positives", "count"),
    ("core.recovery_cycles", "cycles"),
    ("core.warmup_s", "s"),
    ("core.snapshot_ms", "ms"),
    ("core.restore_ms", "ms"),
    ("core.fork_run_s", "s"),
    ("bench.fork_work_avoided_x", "x"),
    ("bench.parallel_efficiency", "ratio"),
    ("serve.boot_ms", "ms"),
    ("serve.submit_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.exec_ms", "ms"),
    ("serve.result_ms", "ms"),
    ("serve.status_ms", "ms"),
    ("serve.list_ms", "ms"),
    ("serve.cmd_p50_ms", "ms"),
    ("serve.record_append_ms", "ms"),
    ("serve.journal_submit_ms", "ms"),
    ("serve.json_parse_ns_per_byte", "ns"),
    ("serve.json_write_ns_per_byte", "ns"),
    ("trace.overhead_pct", "%"),
];

/// A 64-bit mix of `seed` and `salt` (splitmix64): every input the
/// benchmark generates derives from the seed through this function alone,
/// so the program under test never shares the generator.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(salt)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident set (`VmHWM`) of this process, or of `pid`, in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = pid.map_or("/proc/self/status".to_string(), |p| {
        format!("/proc/{p}/status")
    });
    let status = std::fs::read_to_string(path).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == key)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let need = |key: &str| get(key).ok_or_else(|| format!("missing {key}"));
    let workload = need("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    let num = |key: &str| -> Result<u64, String> {
        need(key)?
            .parse()
            .map_err(|_| format!("{key}: expected a whole number"))
    };
    let trace = num("--trace")?;
    if trace > 1 {
        return Err("--trace: expected 0 or 1".to_string());
    }
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds: num("--seconds")? as f64,
        trace: trace == 1,
        serve_bin: PathBuf::from(need("--serve-bin")?),
        work: PathBuf::from(get("--work").unwrap_or(".bench_work")),
    })
}

/// Operations attempted and failed, problems found, metrics measured.
#[derive(Default)]
struct Ledger {
    /// [attempted, failed] simulation units.
    units: [u64; 2],
    /// [attempted, failed] daemon jobs.
    jobs: [u64; 2],
    /// [attempted, failed] daemon commands.
    commands: [u64; 2],
    problems: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
}

impl Ledger {
    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Samples behind the end-to-end metrics of one workload.
#[derive(Default)]
struct E2e {
    /// Per round.
    wall_s: Vec<f64>,
    /// Per set-up pass (per daemon boot on serve_closed_loop).
    setup_s: Vec<f64>,
    /// Per round.
    ns_per_mem_op: Vec<f64>,
    /// Per job; infinite for a failed one.
    latency_ms: Vec<f64>,
    /// Per round.
    jobs_per_s: Vec<f64>,
    /// Peak RSS after the first round (fig3_classic, fault_fork), or the
    /// median of the daemon's per round (serve_closed_loop).
    rss_mb: f64,
    /// ft overhead, ft overhead at 2000/M, fault slowdown.
    sim: Option<[f64; 3]>,
}

impl E2e {
    fn report(&self, ledger: &mut Ledger) {
        if self.wall_s.is_empty() {
            return;
        }
        ledger.set("wall_s", median(&self.wall_s));
        ledger.set("setup_s", median(&self.setup_s));
        ledger.set("peak_rss_mb", self.rss_mb);
        ledger.set("ns_per_mem_op", median(&self.ns_per_mem_op));
        ledger.set("job_latency_p50_ms", median(&self.latency_ms));
        ledger.set("job_latency_p90_ms", quantile(&self.latency_ms, 0.9));
        ledger.set("jobs_per_s", median(&self.jobs_per_s));
        if let Some([ft, ft2000, slow]) = self.sim {
            ledger.set("sim_ft_overhead_x", ft);
            ledger.set("sim_ft_overhead_2000_x", ft2000);
            ledger.set("sim_fault_slowdown_x", slow);
        }
        println!(
            "{} rounds, {} job latency samples (p90 has {} beyond it)",
            self.wall_s.len(),
            self.latency_ms.len(),
            self.latency_ms.len() / 10
        );
    }
}

/// Latency samples a timed run collects at least, so that p90 has ten
/// samples beyond it.
const MIN_LATENCY_SAMPLES: usize = 100;

/// A run stops after a whole round once `seconds` have passed and, unless
/// it is the single round of a traced run (`seconds` 0), once it holds
/// [`MIN_LATENCY_SAMPLES`].
fn done(started: Instant, seconds: f64, samples: usize) -> bool {
    started.elapsed().as_secs_f64() >= seconds && (seconds == 0.0 || samples >= MIN_LATENCY_SAMPLES)
}

/// `fig3_classic`: whole grid passes until `seconds` have gone by.
fn run_fig3(
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
) -> (E2e, fig3::Round) {
    let units = fig3::units(seed);
    let started = Instant::now();
    let mut e = E2e::default();
    let mut first: Option<Vec<Option<u64>>> = None;
    loop {
        let r = fig3::round(&units, tracer);
        ledger.units[0] += units.len() as u64;
        ledger.units[1] += r.failed;
        ledger.problems.extend(r.problems.iter().cloned());
        e.wall_s.push(r.run_s);
        e.setup_s.push(r.setup_s);
        e.ns_per_mem_op
            .push(r.run_s * 1e9 / r.mem_ops.max(1) as f64);
        e.latency_ms.extend(&r.unit_ms);
        e.jobs_per_s.push(units.len() as f64 / r.run_s);
        let cycles: Vec<Option<u64>> = r
            .reports
            .iter()
            .map(|r| r.as_ref().map(|r| r.cycles))
            .collect();
        match &first {
            None => {
                let (sim, problems) = fig3::sim(&units, &r.reports);
                ledger.problems.extend(problems);
                if let Some(s) = sim {
                    e.sim = Some([s.ft_overhead, s.ft_overhead_2000, s.fault_slowdown]);
                    ledger.set("core.msg_overhead_pct", s.msg_overhead_pct);
                }
                e.rss_mb = peak_rss_mb(None).unwrap_or(0.0);
                first = Some(cycles);
            }
            Some(f) if *f != cycles => ledger.problems.push(
                "fig3 grid: a later pass simulated different cycles than the first".to_string(),
            ),
            Some(_) => {}
        }
        if done(started, seconds, e.latency_ms.len()) {
            return (e, r);
        }
    }
}

/// `fault_fork`: set-up pass plus whole request passes until `seconds`
/// have gone by.
fn run_fork(
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
) -> Option<(E2e, Vec<fork::Group>, fork::Round)> {
    let groups = match fork::groups(seed) {
        Ok(g) => g,
        Err(e) => {
            ledger.problems.push(format!("fault_fork inputs: {e}"));
            return None;
        }
    };
    let started = Instant::now();
    let mut e = E2e::default();
    let mut first: Option<Vec<Option<u64>>> = None;
    loop {
        match fork::setup_pass(&groups) {
            Ok(s) => e.setup_s.push(s),
            Err(err) => ledger.problems.push(format!("fault_fork set-up: {err}")),
        }
        let r = fork::round(&groups, tracer);
        ledger.units[0] += r.units;
        ledger.units[1] += r.failed;
        ledger.problems.extend(r.problems.iter().cloned());
        e.wall_s.push(r.wall_s);
        e.ns_per_mem_op
            .push(r.wall_s * 1e9 / r.mem_ops.max(1) as f64);
        e.latency_ms.extend(&r.request_ms);
        e.jobs_per_s.push(r.request_ms.len() as f64 / r.wall_s);
        let cycles: Vec<Option<u64>> = r
            .reports
            .iter()
            .flatten()
            .map(|r| r.as_ref().map(|r| r.cycles))
            .collect();
        match &first {
            None => {
                if let Some(s) = fork::sim(&r) {
                    e.sim = Some([s.ft_overhead, s.ft_overhead_2000, s.fault_slowdown]);
                    ledger.set("core.recovery_cycles", s.recovery_cycles);
                }
                let gi = (seed % groups.len() as u64) as usize;
                let k = gi % 2;
                let runner = &r.reports[gi / 2][k * fork::MEMBERS..(k + 1) * fork::MEMBERS];
                ledger
                    .problems
                    .extend(fork::check_group_directly(&groups[gi], runner));
                e.rss_mb = peak_rss_mb(None).unwrap_or(0.0);
                first = Some(cycles);
            }
            Some(f) if *f != cycles => ledger.problems.push(
                "fault_fork: a later pass simulated different cycles than the first".to_string(),
            ),
            Some(_) => {}
        }
        if done(started, seconds, e.latency_ms.len()) {
            return Some((e, groups, r));
        }
    }
}

/// What the per-layer ledger needs from a serve pass.
struct ServeOut {
    last: serve::Round,
    jobs: Vec<serve::Job>,
}

/// `serve_closed_loop`: daemon boots and client passes until `seconds`
/// have gone by.
fn run_serve(
    seed: u64,
    seconds: f64,
    args: &Args,
    scratch: &Path,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
) -> Option<(E2e, ServeOut)> {
    let history = scratch.join("serve-history");
    let root = scratch.join("serve-root");
    if let Err(e) = serve::build_history(&history, seed) {
        ledger.problems.push(format!("serve history: {e}"));
        return None;
    }
    let jobs = serve::jobs(seed, 2, serve::ROUND_JOBS, serve::OPS);
    let started = Instant::now();
    let mut e = E2e::default();
    let mut rss = Vec::new();
    let mut first: Option<Vec<Vec<(u64, u64, u64)>>> = None;
    loop {
        let mut r = match serve::round(&args.serve_bin, &history, &root, &jobs, tracer) {
            Ok(r) => r,
            Err(err) => {
                ledger.problems.push(format!("serve round: {err}"));
                return None;
            }
        };
        ledger.problems.extend(r.problems.iter().cloned());
        // Unit records of every job: (cycles, events, memory ops).
        let mut records: Vec<Vec<(u64, u64, u64)>> = Vec::new();
        let mut mem_ops = 0;
        for t in &mut r.jobs {
            let units = t
                .summary
                .as_deref()
                .map(|s| serve::summary_units(&jobs[t.index].label, s));
            match units {
                Some(Ok(units)) => {
                    let f = |u: &Json, k: &str| u.get(k).and_then(Json::as_u64).unwrap_or(0);
                    let rec: Vec<_> = units
                        .iter()
                        .map(|u| (f(u, "cycles"), f(u, "events"), f(u, "total_mem_ops")))
                        .collect();
                    mem_ops += rec.iter().map(|r| r.2).sum::<u64>();
                    if first.is_none() {
                        ledger.problems.extend(verify_job(
                            &jobs[t.index],
                            &units,
                            t.index % 6 == 0,
                        ));
                    }
                    records.push(rec);
                }
                Some(Err(err)) => {
                    ledger.problems.push(err);
                    if t.latency_ms.is_finite() {
                        t.latency_ms = f64::INFINITY;
                        r.failed_jobs += 1;
                    }
                    records.push(Vec::new());
                }
                None => records.push(Vec::new()),
            }
        }
        ledger.jobs[0] += jobs.len() as u64;
        ledger.jobs[1] += r.failed_jobs;
        ledger.commands[0] += r.commands[0];
        ledger.commands[1] += r.commands[1];
        e.setup_s.extend(&r.boots_s);
        e.wall_s.push(r.wall_s);
        rss.push(r.daemon_rss_mb);
        e.ns_per_mem_op.push(r.wall_s * 1e9 / mem_ops.max(1) as f64);
        e.latency_ms.extend(r.jobs.iter().map(|t| t.latency_ms));
        e.jobs_per_s.push(jobs.len() as f64 / r.wall_s);
        match &first {
            None => {
                e.sim = serve_sim(&records);
                first = Some(records);
            }
            Some(f) if *f != records => ledger.problems.push(
                "serve: a later pass stored different unit records than the first".to_string(),
            ),
            Some(_) => {}
        }
        if done(started, seconds, e.latency_ms.len()) {
            e.rss_mb = median(&rss);
            return Some((e, ServeOut { last: r, jobs }));
        }
    }
}

/// Checks a job's stored unit records: every unit retired the memory
/// operations of its trace, and for sampled jobs each record equals an
/// in-process run of the same unit.
fn verify_job(job: &serve::Job, records: &[Json], run_in_process: bool) -> Vec<String> {
    let mut problems = Vec::new();
    for (k, rec) in records.iter().enumerate() {
        let label = format!("{}/unit{k}", job.label);
        if run_in_process {
            match job.run_unit(k) {
                Ok((r, ops)) => {
                    problems.extend(checks::check_record(&label, rec, &r));
                    problems.extend(checks::check_unit(&label, &r, ops, k < 2));
                }
                Err(e) => problems.push(format!("{label} in-process: {e}")),
            }
        } else {
            let ops = ftdircmp_workloads::WorkloadSpec::parse(&job.workload)
                .map(|s| checks::count_mem_ops(&s.generate(16, 1000)));
            if ops.ok() != rec.get("total_mem_ops").and_then(Json::as_u64) {
                problems.push(format!(
                    "{label}: stored memory ops differ from the trace's"
                ));
            }
        }
    }
    problems
}

/// ft/dircmp, ft@2000/dircmp and ft@2000/ft geomeans over the jobs'
/// stored cycles; `None` if a job failed.
fn serve_sim(records: &[Vec<(u64, u64, u64)>]) -> Option<[f64; 3]> {
    let (mut ft, mut ft2000, mut slow) = (vec![], vec![], vec![]);
    for rec in records {
        let [d, f, f2] = [rec.first()?.0, rec.get(1)?.0, rec.get(2)?.0].map(|c| c as f64);
        ft.push(f / d);
        ft2000.push(f2 / d);
        slow.push(f2 / f);
    }
    Some([geomean(&ft), geomean(&ft2000), geomean(&slow)])
}

fn run_workload(
    name: &str,
    args: &Args,
    seconds: f64,
    scratch: &Path,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
) -> Option<E2e> {
    match name {
        "fig3_classic" => Some(run_fig3(args.seed, seconds, tracer, ledger).0),
        "fault_fork" => run_fork(args.seed, seconds, tracer, ledger).map(|r| r.0),
        _ => run_serve(args.seed, seconds, args, scratch, tracer, ledger).map(|r| r.0),
    }
}

/// Untraced and traced rounds of the chosen workload that
/// `trace.overhead_pct` compares, of each kind.
const OVERHEAD_ROUNDS: usize = 2;

/// Wall time of one whole round of workload `name`, tracer calls included.
fn round_wall(
    name: &str,
    args: &Args,
    scratch: &Path,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
) -> Option<f64> {
    match name {
        "fig3_classic" => Some(run_fig3(args.seed, 0.0, tracer, ledger).1.wall_s),
        "fault_fork" => run_fork(args.seed, 0.0, tracer, ledger).map(|r| r.2.wall_s),
        _ => run_serve(args.seed, 0.0, args, scratch, tracer, ledger).map(|r| r.0.wall_s[0]),
    }
}

/// The tracing overhead, then one traced round of every workload and the
/// single-layer replays.
fn per_layer(args: &Args, scratch: &Path, ledger: &mut Ledger) -> Tracer {
    let origin = Instant::now();
    let mut tracer = Tracer::new(true, origin);

    // Whole rounds of the chosen workload, untraced and traced in turn; the
    // traced ones record into a tracer of their own, dropped afterwards.
    let mut off = Tracer::new(false, origin);
    let mut on = Tracer::new(true, origin);
    let mut walls = [0.0; 2];
    let mut measured = true;
    for _ in 0..OVERHEAD_ROUNDS {
        for (k, t) in [&mut off, &mut on].into_iter().enumerate() {
            match round_wall(&args.workload, args, scratch, t, ledger) {
                Some(w) => walls[k] += w,
                None => measured = false,
            }
        }
    }
    if measured {
        ledger.set("trace.overhead_pct", (walls[1] / walls[0] - 1.0) * 100.0);
    }
    drop(on);

    let (_, fig3_round) = run_fig3(args.seed, 0.0, &mut tracer, ledger);
    ledger.set("workloads.generate_s", tracer.total("workloads.generate"));
    ledger.set("core.new_s", tracer.total("core.new"));
    ledger.set("core.run_s", tracer.total("core.run"));
    let fig3_reports: Vec<_> = fig3_round.reports.iter().flatten().collect();
    let sum = |f: &dyn Fn(&ftdircmp_core::SimReport) -> u64| {
        fig3_reports.iter().map(|r| f(r)).sum::<u64>()
    };
    let events = sum(&|r| r.events);
    ledger.set("core.events", events as f64);
    ledger.set(
        "core.ns_per_event",
        tracer.total("core.run") * 1e9 / events.max(1) as f64,
    );
    ledger.set(
        "core.events_per_mem_op",
        events as f64 / sum(&|r| r.total_mem_ops).max(1) as f64,
    );
    ledger.set("core.sim_cycles", sum(&|r| r.cycles) as f64);
    ledger.set("core.messages", sum(&|r| r.stats.total_messages()) as f64);
    ledger.set("core.bytes", sum(&|r| r.stats.total_bytes()) as f64);

    let mut ft_reports: Vec<ftdircmp_core::SimReport> =
        fig3_round.reports.iter().flatten().cloned().collect();
    if let Some((_, groups, round)) = run_fork(args.seed, 0.0, &mut tracer, ledger) {
        let split = fork::split(&groups, &round, &mut tracer);
        ledger.problems.extend(split.problems.iter().cloned());
        ledger.set("core.warmup_s", split.warmup_s);
        ledger.set("core.snapshot_ms", median(&split.snapshot_ms));
        ledger.set("core.restore_ms", median(&split.restore_ms));
        ledger.set("core.fork_run_s", split.fork_run_s);
        ledger.set(
            "bench.fork_work_avoided_x",
            split.reported_mem_ops as f64 / split.simulated_mem_ops.max(1) as f64,
        );
        ledger.set(
            "bench.parallel_efficiency",
            split.serial_s / (fork::JOBS as f64 * round.wall_s),
        );
        ft_reports.extend(split.reports);
    }
    let ft_sum =
        |f: &dyn Fn(&ftdircmp_core::SimReport) -> u64| ft_reports.iter().map(f).sum::<u64>() as f64;
    ledger.set("core.timeouts_fired", ft_sum(&|r| r.stats.total_timeouts()));
    ledger.set("core.reissues", ft_sum(&|r| r.stats.reissues.get()));
    ledger.set(
        "core.stale_discards",
        ft_sum(&|r| r.stats.stale_discards.get()),
    );
    ledger.set(
        "core.false_positives",
        ft_sum(&|r| r.stats.false_positives.get()),
    );

    if let Some((_, out)) = run_serve(args.seed, 0.0, args, scratch, &mut tracer, ledger) {
        let t = &out.last.jobs;
        let ok: Vec<&serve::JobTiming> =
            t.iter().filter(|t| t.latency_ms.is_finite()).collect();
        if !ok.is_empty() {
            let med = |f: &dyn Fn(&serve::JobTiming) -> f64| {
                median(&ok.iter().map(|t| f(t)).collect::<Vec<_>>())
            };
            ledger.set("serve.submit_ms", med(&|t| t.submit_ms));
            ledger.set("serve.queue_wait_ms", med(&|t| t.queue_wait_ms));
            ledger.set("serve.result_ms", med(&|t| t.result_ms));
            ledger.set("serve.status_ms", med(&|t| t.status_ms));
            ledger.set("serve.list_ms", med(&|t| t.list_ms));
            let cmds: Vec<f64> = ok
                .iter()
                .flat_map(|t| [t.result_ms, t.status_ms, t.list_ms])
                .collect();
            ledger.set("serve.cmd_p50_ms", median(&cmds));
        }
        ledger.set("serve.boot_ms", median(&out.last.boots_s) * 1e3);
        let summaries: Vec<String> = ok.iter().filter_map(|t| t.summary.clone()).collect();
        let records: Vec<Json> = summaries
            .iter()
            .filter_map(|s| serve::summary_units("summary", s).ok())
            .flatten()
            .collect();
        let specs: Vec<JobSpec> = out
            .jobs
            .iter()
            .filter_map(|j| JobSpec::from_json(&j.to_json()).ok())
            .collect();
        let span = tracer.begin("serve.store", None, "scratch");
        match layers::record_append_ms(&scratch.join("scratch-store"), &records) {
            Ok(ms) => ledger.set("serve.record_append_ms", ms),
            Err(e) => ledger.problems.push(format!("record append: {e}")),
        }
        match layers::journal_submit_ms(&scratch.join("scratch-queue"), &specs) {
            Ok(ms) => ledger.set("serve.journal_submit_ms", ms),
            Err(e) => ledger.problems.push(format!("journal submit: {e}")),
        }
        match layers::execute_ms(&scratch.join("scratch-exec"), &specs, serve::DAEMON_JOBS) {
            Ok(ms) => ledger.set("serve.exec_ms", ms),
            Err(e) => ledger.problems.push(format!("execute_job: {e}")),
        }
        tracer.end(span);
        let span = tracer.begin("serve.json", None, "summaries");
        match layers::json_ns_per_byte(&summaries, 20_000_000) {
            Ok((parse, write)) => {
                ledger.set("serve.json_parse_ns_per_byte", parse);
                ledger.set("serve.json_write_ns_per_byte", write);
            }
            Err(e) => ledger.problems.push(format!("json replay: {e}")),
        }
        tracer.end(span);
    }

    let span = tracer.begin("sim.queue_replay", None, "delay-mix");
    ledger.set(
        "sim.queue_ns_per_op",
        layers::queue_ns_per_op(&layers::delays(args.seed, 4096)),
    );
    tracer.end(span);
    let units = fig3::units(args.seed);
    let unit = units
        .iter()
        .find(|u| u.bench == (args.seed % 12) as usize && u.rate == Some(1000.0))
        .expect("the grid has a 1000/M column");
    let span = tracer.begin("noc.mesh_replay", None, &unit.label);
    match layers::capture_sends(unit.config(), &unit.spec.generate(16, unit.seed)) {
        Ok(sends) => {
            let last = sends.last().map_or(0, |s| s.0.as_u64());
            let (ns, _) = layers::mesh_ns_per_send(&sends, &unit.config().mesh.faults, 2_000_000);
            ledger.set("noc.send_ns", ns);
            let (ns, dropped) =
                layers::mesh_ns_per_send(&sends, &layers::domain_faults(last), 2_000_000);
            ledger.set("noc.send_domains_ns", ns);
            ledger.set("noc.messages_dropped", dropped as f64);
        }
        Err(e) => ledger.problems.push(format!("mesh capture: {e}")),
    }
    tracer.end(span);
    tracer
}

/// Writes the spans as JSON lines and has the daemon binary's
/// `json-check` read them back.
fn write_spans(tracer: &Tracer, path: &Path, serve_bin: &Path) -> Result<(), String> {
    std::fs::write(path, tracer.to_json_lines())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    let file = std::fs::File::open(path).map_err(|e| e.to_string())?;
    let status = std::process::Command::new(serve_bin)
        .arg("json-check")
        .stdin(file)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running json-check: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("{} fails json-check", path.display()))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ftdircmp-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !args.serve_bin.is_file() {
        eprintln!(
            "ftdircmp-perfbench: daemon binary {} not found",
            args.serve_bin.display()
        );
        return ExitCode::from(2);
    }
    let scratch = args.work.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("ftdircmp-perfbench: {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let mut ledger = Ledger::default();
    let names: &[(&str, &str)] = if args.trace {
        let tracer = per_layer(&args, &scratch, &mut ledger);
        let spans = args
            .work
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match write_spans(&tracer, &spans, &args.serve_bin) {
            Ok(()) => println!("{} spans written to {}", tracer.len(), spans.display()),
            Err(e) => ledger.problems.push(e),
        }
        &PER_LAYER
    } else {
        let mut off = Tracer::new(false, Instant::now());
        if let Some(e) = run_workload(
            &args.workload,
            &args,
            args.seconds,
            &scratch,
            &mut off,
            &mut ledger,
        ) {
            e.report(&mut ledger);
        }
        &END_TO_END
    };
    let _ = std::fs::remove_dir_all(&scratch);

    let mut metrics = Vec::new();
    for (name, unit) in names {
        let value = ledger.metrics.get(name).copied().unwrap_or_else(|| {
            ledger
                .problems
                .push(format!("metric {name} was not measured"));
            0.0
        });
        println!("{name:32} {value:>16.6} {unit}");
        // A failed operation makes a latency infinite; JSON has no infinity.
        let value = if value.is_finite() { value } else { f64::MAX };
        metrics.push((
            name.to_string(),
            Json::obj(vec![
                ("value", Json::Num(value)),
                ("unit", Json::str(*unit)),
            ]),
        ));
    }
    for p in &ledger.problems {
        println!("CHECK FAILED: {p}");
    }
    let [units, jobs, commands] = [ledger.units, ledger.jobs, ledger.commands];
    println!(
        "attempted: {} units, {} jobs, {} commands; failed: {} units, {} jobs, {} commands",
        units[0], jobs[0], commands[0], units[1], jobs[1], commands[1]
    );
    let attempted = units[0] + jobs[0] + commands[0];
    let failed = units[1] + jobs[1] + commands[1];
    let summary = Json::obj(vec![
        (
            "correct",
            Json::Bool(ledger.problems.is_empty() && failed == 0 && attempted > 0),
        ),
        ("attempted", Json::num_u64(attempted.max(1))),
        ("failed", Json::num_u64(failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{summary}");
    ExitCode::SUCCESS
}
