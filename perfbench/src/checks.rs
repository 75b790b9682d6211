//! Checks of the program's outputs against computations made apart from
//! it (memory operations counted in the generated trace, a binomial model
//! of uniform loss, runs repeated through the public `System` API) or
//! against properties the protocol must have (coherence, recovery).
//!
//! Every check returns the list of problems it found; an empty list passes.

use ftdircmp_core::trace::{TraceOp, Workload};
use ftdircmp_core::{MsgType, SimReport};
use ftdircmp_serve::json::Json;

/// Memory operations in `wl`, counted from the generated per-core traces.
pub fn count_mem_ops(wl: &Workload) -> u64 {
    wl.traces
        .iter()
        .flat_map(|t| t.ops())
        .filter(|op| matches!(op, TraceOp::Load(_) | TraceOp::Store(_)))
        .count() as u64
}

/// Recovery pings sent during a run (FtDirCMP only; none without loss).
fn pings_sent(r: &SimReport) -> u64 {
    [
        MsgType::UnblockPing,
        MsgType::WbPing,
        MsgType::OwnershipPing,
    ]
    .iter()
    .map(|t| r.stats.messages(*t))
    .sum()
}

/// The checks every finished unit must pass: a coherent run that retired
/// exactly the memory operations of its trace. A fault-free unit must
/// also lose nothing and never ping.
pub fn check_unit(
    label: &str,
    r: &SimReport,
    expected_mem_ops: u64,
    fault_free: bool,
) -> Vec<String> {
    let mut problems = Vec::new();
    if !r.violations.is_empty() {
        problems.push(format!(
            "{label}: {} checker violation(s), first: {}",
            r.violations.len(),
            r.violations[0]
        ));
    }
    if r.total_mem_ops != expected_mem_ops {
        problems.push(format!(
            "{label}: retired {} memory ops, trace holds {expected_mem_ops}",
            r.total_mem_ops
        ));
    }
    if fault_free && r.messages_lost != 0 {
        problems.push(format!(
            "{label}: fault-free run lost {} messages",
            r.messages_lost
        ));
    }
    if fault_free && pings_sent(r) != 0 {
        problems.push(format!(
            "{label}: fault-free run sent {} pings",
            pings_sent(r)
        ));
    }
    problems
}

/// Uniform loss at `per_million`: `lost` of `examined` mesh messages must
/// agree with the binomial mean within five standard deviations (plus one
/// message of slack for tiny expectations).
pub fn check_loss_rate(label: &str, examined: u64, lost: u64, per_million: f64) -> Vec<String> {
    let p = per_million / 1e6;
    let mean = examined as f64 * p;
    let sd = (examined as f64 * p * (1.0 - p)).sqrt();
    if (lost as f64 - mean).abs() > 5.0 * sd + 1.0 {
        vec![format!(
            "{label}: lost {lost} of {examined} messages, expected {mean:.1} ± {:.1} at {per_million}/M",
            5.0 * sd + 1.0
        )]
    } else {
        Vec::new()
    }
}

/// Every fault epoch whose window closed before the run ended must record
/// the first retirement after it.
pub fn check_epochs(label: &str, r: &SimReport) -> Vec<String> {
    r.fault_epochs
        .iter()
        .filter(|e| e.end < r.cycles && e.recovered_at.is_none())
        .map(|e| {
            format!(
                "{label}: epoch {} closed at cycle {} but no recovery before the run ended at {}",
                e.label, e.end, r.cycles
            )
        })
        .collect()
}

/// The paper's qualitative claims on the Figure 3 grid: fault-free
/// FtDirCMP within a few percent of DirCMP, and below 1.5x at 2000/M.
pub fn check_overheads(ft_overhead: f64, ft_overhead_2000: f64) -> Vec<String> {
    let mut problems = Vec::new();
    if !(0.95..=1.05).contains(&ft_overhead) {
        problems.push(format!(
            "fault-free FtDirCMP runs {ft_overhead:.4}x DirCMP, outside 0.95..=1.05"
        ));
    }
    if ft_overhead_2000 >= 1.5 {
        problems.push(format!(
            "FtDirCMP at 2000/M runs {ft_overhead_2000:.4}x DirCMP, not below the paper's 1.5x"
        ));
    }
    problems
}

/// The fields two runs of the same unit must agree on exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    cycles: u64,
    total_ops: u64,
    total_mem_ops: u64,
    events: u64,
    messages: u64,
    bytes: u64,
    lost: u64,
    violations: usize,
    epochs: Vec<ftdircmp_core::FaultEpochReport>,
}

impl Fingerprint {
    pub fn of(r: &SimReport) -> Fingerprint {
        Fingerprint {
            cycles: r.cycles,
            total_ops: r.total_ops,
            total_mem_ops: r.total_mem_ops,
            events: r.events,
            messages: r.stats.total_messages(),
            bytes: r.stats.total_bytes(),
            lost: r.messages_lost,
            violations: r.violations.len(),
            epochs: r.fault_epochs.clone(),
        }
    }
}

/// Two runs of one unit (say, the campaign runner's fork and a run made
/// through the public API without snapshot or restore) must be identical.
pub fn check_same_run(label: &str, runner: &SimReport, direct: &SimReport) -> Vec<String> {
    let (a, b) = (Fingerprint::of(runner), Fingerprint::of(direct));
    if a == b {
        Vec::new()
    } else {
        vec![format!(
            "{label}: runner result {a:?} differs from direct run {b:?}"
        )]
    }
}

/// A stored unit record of the daemon must carry the cycles, events and
/// memory operations of an in-process run of the same unit.
pub fn check_record(label: &str, record: &Json, r: &SimReport) -> Vec<String> {
    let field = |k: &str| record.get(k).and_then(Json::as_u64);
    let mut problems = Vec::new();
    if record.get("status").and_then(Json::as_str) != Some("ok") {
        problems.push(format!("{label}: record status is not ok: {record}"));
    }
    for (key, want) in [
        ("cycles", r.cycles),
        ("events", r.events),
        ("total_mem_ops", r.total_mem_ops),
    ] {
        if field(key) != Some(want) {
            problems.push(format!(
                "{label}: stored {key} {:?}, in-process run gives {want}",
                field(key)
            ));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftdircmp_core::{System, SystemConfig};
    use ftdircmp_workloads::WorkloadSpec;

    fn small_run(config: SystemConfig) -> (Workload, SimReport) {
        let wl = WorkloadSpec::parse("barnes:ops=30")
            .unwrap()
            .generate(16, 7);
        let r = System::run_workload(config.with_seed(7), &wl).unwrap();
        (wl, r)
    }

    #[test]
    fn a_correct_unit_passes() {
        let (wl, r) = small_run(SystemConfig::ftdircmp());
        let ops = count_mem_ops(&wl);
        assert!(ops > 0);
        assert_eq!(check_unit("u", &r, ops, true), Vec::<String>::new());
        assert!(check_epochs("u", &r).is_empty());
    }

    #[test]
    fn a_wrong_memory_op_count_fails() {
        let (wl, r) = small_run(SystemConfig::ftdircmp());
        let problems = check_unit("u", &r, count_mem_ops(&wl) + 1, true);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("retired"));
    }

    #[test]
    fn a_checker_violation_fails() {
        let (wl, mut r) = small_run(SystemConfig::dircmp());
        r.violations.push("two writers of line 0x40".to_string());
        let problems = check_unit("u", &r, count_mem_ops(&wl), true);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("violation"));
    }

    #[test]
    fn loss_in_a_fault_free_unit_fails() {
        let (wl, mut r) = small_run(SystemConfig::ftdircmp());
        r.messages_lost = 1;
        assert_eq!(check_unit("u", &r, count_mem_ops(&wl), true).len(), 1);
        assert!(check_unit("u", &r, count_mem_ops(&wl), false).is_empty());
    }

    #[test]
    fn binomial_tolerance() {
        // 1e6 messages at 2000/M: mean 2000, sd ~44.7.
        assert!(check_loss_rate("u", 1_000_000, 2000, 2000.0).is_empty());
        assert!(check_loss_rate("u", 1_000_000, 2200, 2000.0).is_empty());
        assert_eq!(check_loss_rate("u", 1_000_000, 2300, 2000.0).len(), 1);
        assert_eq!(check_loss_rate("u", 1_000_000, 0, 2000.0).len(), 1);
        assert!(check_loss_rate("u", 100, 0, 125.0).is_empty());
    }

    #[test]
    fn overhead_claims() {
        assert!(check_overheads(1.01, 1.2).is_empty());
        assert_eq!(check_overheads(1.2, 1.2).len(), 1);
        assert_eq!(check_overheads(1.0, 1.5).len(), 1);
    }

    #[test]
    fn differing_runs_and_records_fail() {
        let (_, a) = small_run(SystemConfig::ftdircmp());
        let mut b = a.clone();
        assert!(check_same_run("u", &a, &b).is_empty());
        b.cycles += 1;
        assert_eq!(check_same_run("u", &a, &b).len(), 1);

        let record = |mem_ops: u64| {
            Json::obj(vec![
                ("status", Json::str("ok")),
                ("cycles", Json::num_u64(a.cycles)),
                ("events", Json::num_u64(a.events)),
                ("total_mem_ops", Json::num_u64(mem_ops)),
            ])
        };
        assert!(check_record("u", &record(a.total_mem_ops), &a).is_empty());
        assert_eq!(check_record("u", &record(a.total_mem_ops - 1), &a).len(), 1);
    }
}
