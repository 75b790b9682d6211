//! `fault_fork`: a fault campaign through `run_units_caught` with
//! checkpoint-fork warmup at `--jobs 2`.
//!
//! Each (benchmark, seed) group shares one fault-free warmup and forks into
//! fault-free FtDirCMP, a link flap, a region burst, a Gilbert–Elliott link
//! channel and uniform loss at 500 and 2000 per million. A fault-free
//! DirCMP unit per group is the paper's baseline. One request is one
//! `run_units_caught` call over a benchmark's two groups and their two
//! DirCMP units; the fork groups come first so the two workers start on
//! the long groups and share the short baselines.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use ftdircmp_bench::campaign::{run_units_caught, Campaign, Unit};
use ftdircmp_core::tracelog::{TraceEvent, TraceSink};
use ftdircmp_core::{SimReport, System, SystemConfig};
use ftdircmp_noc::{
    Direction, FaultConfig, FaultDomainConfig, FaultEvent, LinkChannelConfig, RouterId,
};
use ftdircmp_workloads::{suite, WorkloadSpec};

use crate::checks;
use crate::mix;
use crate::stats::geomean;
use crate::trace::Tracer;

/// Warmup share of each group's memory operations, in percent.
pub const WARMUP_PCT: f64 = 50.0;
/// Worker threads of the campaign runner (the host's `nproc`).
pub const JOBS: usize = 2;
/// Fault windows open this many cycles after the fork point.
const FAULT_DELAY: u64 = 500;
const FLAP_CYCLES: u64 = 6_000;
const BURST_CYCLES: u64 = 8_000;
/// Forks per group: fault-free, flap, burst, Gilbert–Elliott, 500/M, 2000/M.
pub const MEMBERS: usize = 6;

/// FtDirCMP configuration of every fork group (faults stripped).
pub fn ft_config() -> SystemConfig {
    let mut cfg = SystemConfig::ftdircmp();
    cfg.watchdog_cycles = 3_000_000;
    cfg
}

/// One checkpoint-sharing group and what the benchmark knows about it.
#[derive(Debug, Clone)]
pub struct Group {
    pub label: String,
    pub spec: WorkloadSpec,
    /// Unit seed; the runner generates and runs at `1000 + seed`.
    pub seed: u64,
    /// Memory operations counted in the generated trace.
    pub mem_ops: u64,
    /// Warmup threshold, as the runner computes it.
    pub target: u64,
    /// (label, faults) of each fork, fault-free first.
    pub members: Vec<(String, FaultConfig)>,
}

impl Group {
    pub fn warm_config(&self) -> SystemConfig {
        ft_config().with_seed(1000 + self.seed)
    }
}

/// Remembers the simulated time of the latest traced event.
struct LastCycle(Rc<Cell<u64>>);

impl TraceSink for LastCycle {
    fn record(&mut self, event: TraceEvent) {
        self.0.set(event.at.as_u64());
    }
}

/// Builds the groups for `seed`: two unit seeds per suite benchmark. Each
/// group's warmup runs once here (untimed) to find the cycle of its fork
/// point, so every fault window opens after it.
pub fn groups(seed: u64) -> Result<Vec<Group>, String> {
    let mut out = Vec::new();
    for (bench, spec) in suite().into_iter().enumerate() {
        for k in 0..2u64 {
            let salt = mix(seed, 100 + bench as u64 * 2 + k);
            let unit_seed = salt % 1_000_000;
            let wl = spec.generate(16, 1000 + unit_seed);
            let mem_ops = checks::count_mem_ops(&wl);
            let target = (mem_ops as f64 * (WARMUP_PCT / 100.0)).ceil() as u64;
            let label = format!("{}/s{unit_seed}", spec.name);
            let mut sys = System::new(ft_config().with_seed(1000 + unit_seed), &wl)
                .map_err(|e| format!("{label}: {e}"))?;
            let last = Rc::new(Cell::new(0));
            sys.set_trace_sink(Box::new(LastCycle(Rc::clone(&last))));
            sys.run_until_retired(target)
                .map_err(|e| format!("{label} warmup: {e}"))?;
            let start = last.get() + FAULT_DELAY;
            // A link flap on an east link (columns 0..3) and a radius-1
            // burst, both placed by the seed.
            let flap_from = RouterId::new(((salt >> 20) % 4 * 4 + (salt >> 24) % 3) as u16);
            let epicenter = RouterId::new(((salt >> 28) % 16) as u16);
            let domain_seed = salt >> 32;
            let members = vec![
                ("clean".to_string(), FaultConfig::none()),
                (
                    "flap".to_string(),
                    FaultConfig::none().with_domains(
                        FaultDomainConfig::events(vec![FaultEvent::LinkFlap {
                            from: flap_from,
                            dir: Direction::East,
                            start,
                            end: start + FLAP_CYCLES,
                        }])
                        .with_seed(domain_seed),
                    ),
                ),
                (
                    "burst".to_string(),
                    FaultConfig::none().with_domains(
                        FaultDomainConfig::events(vec![FaultEvent::RegionBurst {
                            epicenter,
                            radius: 1,
                            start,
                            end: start + BURST_CYCLES,
                        }])
                        .with_seed(domain_seed),
                    ),
                ),
                (
                    "ge".to_string(),
                    FaultConfig::none().with_domains(
                        FaultDomainConfig::channel(LinkChannelConfig {
                            p_enter_bad: 0.002,
                            p_exit_bad: 0.2,
                            drop_good: 0.0,
                            drop_bad: 0.05,
                        })
                        .with_seed(domain_seed),
                    ),
                ),
                ("u500".to_string(), FaultConfig::per_million(500.0)),
                ("u2000".to_string(), FaultConfig::per_million(2000.0)),
            ];
            for (name, faults) in &members {
                faults
                    .validate()
                    .map_err(|e| format!("{label}/{name}: {e}"))?;
            }
            out.push(Group {
                label,
                spec: spec.clone(),
                seed: unit_seed,
                mem_ops,
                target,
                members,
            });
        }
    }
    Ok(out)
}

/// The units of one request: the fork members of `pair`'s two groups, then
/// their DirCMP baselines.
pub fn request_units(pair: &[Group]) -> Vec<Unit> {
    let mut units = Vec::new();
    for g in pair {
        for (name, faults) in &g.members {
            let mut config = ft_config();
            config.mesh.faults = faults.clone();
            units.push(Unit {
                label: format!("{}/{name}", g.label),
                spec: g.spec.clone(),
                config,
                seed: g.seed,
            });
        }
    }
    for g in pair {
        units.push(Unit {
            label: format!("{}/dircmp", g.label),
            spec: g.spec.clone(),
            config: SystemConfig::dircmp(),
            seed: g.seed,
        });
    }
    units
}

/// The campaign options of every request.
pub fn campaign() -> Campaign {
    Campaign {
        jobs: JOBS,
        progress: false,
        warmup_checkpoint: Some(WARMUP_PCT),
    }
}

/// One pass over every request.
pub struct Round {
    /// Per-request wall time, in ms; infinite for a request with a failed unit.
    pub request_ms: Vec<f64>,
    pub wall_s: f64,
    /// Per request, index-aligned with [`request_units`]; `None` for a failed unit.
    pub reports: Vec<Vec<Option<SimReport>>>,
    /// Memory operations the round reported.
    pub mem_ops: u64,
    pub units: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

/// Runs every request once through the campaign runner, checking every unit.
pub fn round(groups: &[Group], tracer: &mut Tracer) -> Round {
    let opts = campaign();
    let mut out = Round {
        request_ms: Vec::new(),
        wall_s: 0.0,
        reports: Vec::new(),
        mem_ops: 0,
        units: 0,
        failed: 0,
        problems: Vec::new(),
    };
    let started = Instant::now();
    for pair in groups.chunks(2) {
        let units = request_units(pair);
        let key = pair[0].spec.name;
        let span = tracer.begin("bench.run_units_caught", None, key);
        let t = Instant::now();
        let results = run_units_caught(&units, &opts);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        tracer.end(span);
        let mut request_failed = false;
        let mut reports = Vec::with_capacity(units.len());
        for (i, (u, result)) in units.iter().zip(results).enumerate() {
            let g = &pair[if i < 2 * MEMBERS {
                i / MEMBERS
            } else {
                i - 2 * MEMBERS
            }];
            out.units += 1;
            // The clean fork and the DirCMP baselines run without faults:
            // a loss or ping there is fault state leaking in, for the clean
            // fork across snapshot/restore.
            let fault_free = i >= 2 * MEMBERS || i % MEMBERS == 0;
            let problems = match &result {
                Ok(r) => {
                    let mut p = checks::check_unit(&u.label, r, g.mem_ops, fault_free);
                    p.extend(checks::check_epochs(&u.label, r));
                    p
                }
                Err(e) => vec![format!("{}: {e}", u.label)],
            };
            if problems.is_empty() {
                out.mem_ops += g.mem_ops;
                reports.push(result.ok());
            } else {
                out.failed += 1;
                request_failed = true;
                out.problems.extend(problems);
                reports.push(None);
            }
        }
        out.request_ms
            .push(if request_failed { f64::INFINITY } else { ms });
        out.reports.push(reports);
    }
    out.wall_s = started.elapsed().as_secs_f64();
    out
}

/// `generate` + `System::new` of every group's warmup system, in its own
/// pass (the runner does the same inside each request).
pub fn setup_pass(groups: &[Group]) -> Result<f64, String> {
    let t = Instant::now();
    for g in groups {
        let wl = g.spec.generate(16, 1000 + g.seed);
        let sys = System::new(g.warm_config(), &wl).map_err(|e| format!("{}: {e}", g.label))?;
        std::hint::black_box(&sys);
    }
    Ok(t.elapsed().as_secs_f64())
}

/// Simulated outcomes of one pass (deterministic for a seed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sim {
    /// Geomean fault-free FtDirCMP over DirCMP cycles.
    pub ft_overhead: f64,
    /// Geomean FtDirCMP with 2000/M after the fork over DirCMP cycles.
    pub ft_overhead_2000: f64,
    /// Geomean cycles of each faulty fork over its fault-free fork.
    pub fault_slowdown: f64,
    /// Mean cycles from the end of a fault window to the first retirement.
    pub recovery_cycles: f64,
}

/// Aggregates a pass; `None` if any unit failed.
pub fn sim(round: &Round) -> Option<Sim> {
    let (mut ft, mut ft2000, mut slow, mut ttr) = (vec![], vec![], vec![], vec![]);
    for reports in &round.reports {
        let cycles: Vec<f64> = reports
            .iter()
            .map(|r| r.as_ref().map(|r| r.cycles as f64))
            .collect::<Option<_>>()?;
        for k in 0..2 {
            let members = &cycles[k * MEMBERS..(k + 1) * MEMBERS];
            let dir = cycles[2 * MEMBERS + k];
            ft.push(members[0] / dir);
            ft2000.push(members[5] / dir);
            slow.extend(members[1..].iter().map(|c| c / members[0]));
        }
        for r in reports.iter().flatten() {
            ttr.extend(r.fault_epochs.iter().filter_map(|e| e.time_to_recover()));
        }
    }
    Some(Sim {
        ft_overhead: geomean(&ft),
        ft_overhead_2000: geomean(&ft2000),
        fault_slowdown: geomean(&slow),
        recovery_cycles: if ttr.is_empty() {
            0.0
        } else {
            ttr.iter().sum::<u64>() as f64 / ttr.len() as f64
        },
    })
}

/// Re-runs every fork of group `g` through the public `System` API without
/// snapshot or restore (a fresh warmup per fork, faults installed in
/// place) and compares each report with the runner's.
pub fn check_group_directly(g: &Group, runner: &[Option<SimReport>]) -> Vec<String> {
    let mut problems = Vec::new();
    for ((name, faults), theirs) in g.members.iter().zip(runner) {
        let label = format!("{}/{name} (direct)", g.label);
        let wl = g.spec.generate(16, 1000 + g.seed);
        let direct = System::new(g.warm_config(), &wl).and_then(|mut sys| {
            sys.run_until_retired(g.target)?;
            sys.set_fault_config(faults.clone());
            sys.run()
        });
        match (direct, theirs) {
            (Ok(d), Some(t)) => problems.extend(checks::check_same_run(&label, t, &d)),
            (Err(e), _) => problems.push(format!("{label}: {e}")),
            (Ok(_), None) => {}
        }
    }
    problems
}

/// Per-call costs of a pass re-executed through the public `System` API:
/// warm up once per group, snapshot, restore for each fork, install the
/// faults, run. The runner hides this split.
pub struct Split {
    /// Single-thread time of the whole pass, seconds.
    pub serial_s: f64,
    pub warmup_s: f64,
    pub snapshot_ms: Vec<f64>,
    pub restore_ms: Vec<f64>,
    pub fork_run_s: f64,
    /// Memory operations reported by the pass.
    pub reported_mem_ops: u64,
    /// Memory operations simulated, each warmup counted once.
    pub simulated_mem_ops: u64,
    pub reports: Vec<SimReport>,
    pub problems: Vec<String>,
}

/// Re-executes a pass through the `System` API, recording spans, and
/// checks each fork against the runner's report.
pub fn split(groups: &[Group], runner: &Round, tracer: &mut Tracer) -> Split {
    let mut out = Split {
        serial_s: 0.0,
        warmup_s: 0.0,
        snapshot_ms: Vec::new(),
        restore_ms: Vec::new(),
        fork_run_s: 0.0,
        reported_mem_ops: 0,
        simulated_mem_ops: 0,
        reports: Vec::new(),
        problems: Vec::new(),
    };
    let started = Instant::now();
    for (pair, runner_reports) in groups.chunks(2).zip(&runner.reports) {
        for (k, g) in pair.iter().enumerate() {
            let group_span = tracer.begin("fork.group", None, &g.label);
            let t0 = Instant::now();
            let wl = g.spec.generate(16, 1000 + g.seed);
            let warm = System::new(g.warm_config(), &wl).and_then(|mut sys| {
                sys.run_until_retired(g.target)?;
                Ok(sys)
            });
            let t1 = Instant::now();
            tracer.record("core.warmup", t0, t1, group_span, &g.label);
            out.warmup_s += (t1 - t0).as_secs_f64();
            let warm = match warm {
                Ok(w) => w,
                Err(e) => {
                    out.problems.push(format!("{} warmup: {e}", g.label));
                    tracer.end(group_span);
                    continue;
                }
            };
            let warm_ops = warm.retired_mem_ops();
            out.simulated_mem_ops += warm_ops;
            let t2 = Instant::now();
            let snap = warm.snapshot();
            let t3 = Instant::now();
            tracer.record("core.snapshot", t2, t3, group_span, &g.label);
            out.snapshot_ms.push((t3 - t2).as_secs_f64() * 1e3);
            for (m, (name, faults)) in g.members.iter().enumerate() {
                let label = format!("{}/{name}", g.label);
                let t4 = Instant::now();
                let mut sys = System::restore(&snap);
                let t5 = Instant::now();
                sys.set_fault_config(faults.clone());
                let result = sys.run();
                let t6 = Instant::now();
                tracer.record("core.restore", t4, t5, group_span, &label);
                tracer.record("core.fork_run", t5, t6, group_span, &label);
                out.restore_ms.push((t5 - t4).as_secs_f64() * 1e3);
                out.fork_run_s += (t6 - t5).as_secs_f64();
                match (result, &runner_reports[k * MEMBERS + m]) {
                    (Ok(r), theirs) => {
                        if let Some(t) = theirs {
                            out.problems.extend(checks::check_same_run(&label, t, &r));
                        }
                        out.reported_mem_ops += r.total_mem_ops;
                        out.simulated_mem_ops += r.total_mem_ops.saturating_sub(warm_ops);
                        out.reports.push(r);
                    }
                    (Err(e), _) => out.problems.push(format!("{label}: {e}")),
                }
            }
            tracer.end(group_span);
        }
        for g in pair {
            let label = format!("{}/dircmp", g.label);
            let t0 = Instant::now();
            let wl = g.spec.generate(16, 1000 + g.seed);
            let result = System::run_workload(SystemConfig::dircmp().with_seed(1000 + g.seed), &wl);
            tracer.record("core.classic_run", t0, Instant::now(), None, &label);
            match result {
                Ok(r) => {
                    out.reported_mem_ops += r.total_mem_ops;
                    out.simulated_mem_ops += r.total_mem_ops;
                    out.reports.push(r);
                }
                Err(e) => out.problems.push(format!("{label}: {e}")),
            }
        }
    }
    out.serial_s = started.elapsed().as_secs_f64();
    out
}
