//! `fig3_classic`: the paper's Figure 3 grid, one unit at a time on one
//! thread, through `WorkloadSpec::generate`, `System::new` and
//! `System::run` (no checkpoint-fork).

use std::time::Instant;

use ftdircmp_core::{SimReport, System, SystemConfig};
use ftdircmp_workloads::{suite, WorkloadSpec};

use crate::checks;
use crate::mix;
use crate::stats::geomean;
use crate::trace::Tracer;

/// Lost messages per million of the FtDirCMP columns.
pub const RATES: [f64; 6] = [0.0, 125.0, 250.0, 500.0, 1000.0, 2000.0];

/// Deadlock watchdog of the FtDirCMP columns, as in `fig3_execution_time`.
const FT_WATCHDOG: u64 = 3_000_000;

/// One grid point: a suite benchmark under DirCMP (`rate: None`) or
/// FtDirCMP at a loss rate.
#[derive(Debug, Clone)]
pub struct Unit {
    pub label: String,
    pub bench: usize,
    pub spec: WorkloadSpec,
    pub rate: Option<f64>,
    /// Seed of both the generated trace and the system.
    pub seed: u64,
}

impl Unit {
    pub fn config(&self) -> SystemConfig {
        let cfg = match self.rate {
            None => SystemConfig::dircmp(),
            Some(rate) => {
                let mut cfg = SystemConfig::ftdircmp();
                if rate > 0.0 {
                    cfg = cfg.with_fault_rate(rate);
                }
                cfg.watchdog_cycles = FT_WATCHDOG;
                cfg
            }
        };
        cfg.with_seed(self.seed)
    }

    fn fault_free(&self) -> bool {
        self.rate.is_none_or(|r| r == 0.0)
    }
}

/// The grid for `seed`: every suite benchmark (full size) under DirCMP and
/// under FtDirCMP at each rate. The seed picks each benchmark's trace and
/// system seed; the grid's shape and sizes never change.
pub fn units(seed: u64) -> Vec<Unit> {
    let mut units = Vec::new();
    for (bench, spec) in suite().into_iter().enumerate() {
        let unit_seed = mix(seed, bench as u64) % 1_000_000;
        let columns = std::iter::once(None).chain(RATES.iter().map(|r| Some(*r)));
        for rate in columns {
            let column = rate.map_or("dircmp".to_string(), |r| format!("ft-{r:.0}"));
            units.push(Unit {
                label: format!("{}/{column}/s{unit_seed}", spec.name),
                bench,
                spec: spec.clone(),
                rate,
                seed: unit_seed,
            });
        }
    }
    units
}

/// One pass over the grid.
pub struct Round {
    /// The whole pass, checks and tracer calls included.
    pub wall_s: f64,
    /// `generate` + `System::new`, summed over the units.
    pub setup_s: f64,
    /// Time inside `System::run`, summed over the units.
    pub run_s: f64,
    /// Per-unit `System::run` time, in ms; infinite for a failed unit.
    pub unit_ms: Vec<f64>,
    /// Index-aligned with the units; `None` for a failed unit.
    pub reports: Vec<Option<SimReport>>,
    pub mem_ops: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

/// Runs every unit once, checking each report as it lands.
pub fn round(units: &[Unit], tracer: &mut Tracer) -> Round {
    let started = Instant::now();
    let mut out = Round {
        wall_s: 0.0,
        setup_s: 0.0,
        run_s: 0.0,
        unit_ms: Vec::with_capacity(units.len()),
        reports: Vec::with_capacity(units.len()),
        mem_ops: 0,
        failed: 0,
        problems: Vec::new(),
    };
    for u in units {
        let span = tracer.begin("fig3.unit", None, &u.label);
        let t0 = Instant::now();
        let wl = u.spec.generate(16, u.seed);
        let t1 = Instant::now();
        let sys = System::new(u.config(), &wl);
        let t2 = Instant::now();
        let result = sys.and_then(System::run);
        let t3 = Instant::now();
        tracer.record("workloads.generate", t0, t1, span, &u.label);
        tracer.record("core.new", t1, t2, span, &u.label);
        tracer.record("core.run", t2, t3, span, &u.label);
        tracer.end(span);
        out.setup_s += (t2 - t0).as_secs_f64();
        out.run_s += (t3 - t2).as_secs_f64();
        let expected = checks::count_mem_ops(&wl);
        let problems = match &result {
            Ok(r) => checks::check_unit(&u.label, r, expected, u.fault_free()),
            Err(e) => vec![format!("{}: {e}", u.label)],
        };
        if problems.is_empty() {
            out.unit_ms.push((t3 - t2).as_secs_f64() * 1e3);
            out.mem_ops += expected;
            out.reports.push(result.ok());
        } else {
            out.unit_ms.push(f64::INFINITY);
            out.failed += 1;
            out.problems.extend(problems);
            out.reports.push(None);
        }
    }
    out.wall_s = started.elapsed().as_secs_f64();
    out
}

/// Simulated outcomes of one grid pass (deterministic for a seed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sim {
    /// Geomean FtDirCMP/DirCMP cycles, fault-free.
    pub ft_overhead: f64,
    /// Geomean FtDirCMP at 2000/M over DirCMP cycles.
    pub ft_overhead_2000: f64,
    /// Geomean FtDirCMP at each nonzero rate over fault-free FtDirCMP.
    pub fault_slowdown: f64,
    /// Extra messages of fault-free FtDirCMP over DirCMP, percent.
    pub msg_overhead_pct: f64,
}

/// Figure 3 and 4 aggregates of a pass, plus the checks that need the
/// whole grid: uniform loss agrees with each configured rate, and the
/// paper's overhead claims hold. `None` if a unit of the grid failed.
pub fn sim(units: &[Unit], reports: &[Option<SimReport>]) -> (Option<Sim>, Vec<String>) {
    let cycles = |i: usize| reports[i].as_ref().map(|r| r.cycles as f64);
    let mut problems = Vec::new();
    let (mut ft, mut ft2000, mut slow, mut msgs) = (vec![], vec![], vec![], vec![]);
    let stride = 1 + RATES.len();
    for base in (0..units.len()).step_by(stride) {
        let (Some(dir), Some(ft0)) = (cycles(base), cycles(base + 1)) else {
            return (None, problems);
        };
        ft.push(ft0 / dir);
        let dir_msgs = reports[base].as_ref().map(|r| r.stats.total_messages());
        let ft_msgs = reports[base + 1].as_ref().map(|r| r.stats.total_messages());
        if let (Some(d), Some(f)) = (dir_msgs, ft_msgs) {
            msgs.push(f as f64 / d as f64);
        }
        for k in 2..stride {
            let Some(c) = cycles(base + k) else {
                return (None, problems);
            };
            slow.push(c / ft0);
            if units[base + k].rate == Some(2000.0) {
                ft2000.push(c / dir);
            }
        }
    }
    for (k, rate) in RATES.iter().enumerate().skip(1) {
        let (mut examined, mut lost) = (0, 0);
        for r in reports.iter().skip(1 + k).step_by(stride).flatten() {
            examined += r.noc.total_messages();
            lost += r.messages_lost;
        }
        problems.extend(checks::check_loss_rate(
            &format!("grid at {rate}/M"),
            examined,
            lost,
            *rate,
        ));
    }
    let sim = Sim {
        ft_overhead: geomean(&ft),
        ft_overhead_2000: geomean(&ft2000),
        fault_slowdown: geomean(&slow),
        msg_overhead_pct: (geomean(&msgs) - 1.0) * 100.0,
    };
    problems.extend(checks::check_overheads(
        sim.ft_overhead,
        sim.ft_overhead_2000,
    ));
    (Some(sim), problems)
}
