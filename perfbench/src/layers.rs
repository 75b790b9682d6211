//! Single-layer replays, each timed from outside through the layer's
//! public API on inputs recorded from the workloads.

use std::time::Instant;

use ftdircmp_core::tracelog::{CollectSink, TraceEventKind};
use ftdircmp_core::{NodeId, System, SystemConfig};
use ftdircmp_noc::{
    Direction, FaultConfig, FaultDomainConfig, FaultEvent, LinkChannelConfig, Mesh, RouterId,
    VcClass,
};
use ftdircmp_serve::job::JobSpec;
use ftdircmp_serve::json::Json;
use ftdircmp_serve::queue::Queue;
use ftdircmp_serve::runner::execute_job;
use ftdircmp_serve::store::Store;
use ftdircmp_sim::{Cycle, DetRng, EventQueue};

use crate::mix;

/// Events in flight during the queue replay: the population a 16-tile
/// Figure 3 run sustains (in-flight messages, pipelined cache accesses and
/// armed detection timeouts).
const IN_FLIGHT: u64 = 1024;
/// Schedule+pop pairs per queue replay.
const QUEUE_OPS: u64 = 2_000_000;

/// `at - now` of the events a Figure 3 run schedules, as the log₂
/// histogram recorded from a fig3 release profile: (share in percent,
/// lowest delay, highest delay). About 55 % are link hops and cache
/// latencies, 9 % memory accesses, and a third detection-timeout arms.
const DELAY_MIX: [(u64, u64, u64); 11] = [
    (7, 1, 1),
    (17, 2, 3),
    (8, 4, 7),
    (7, 8, 15),
    (12, 16, 31),
    (4, 32, 63),
    (2, 64, 127),
    (9, 160, 160),
    (9, 1_024, 2_047),
    (21, 2_048, 4_095),
    (4, 4_096, 8_191),
];

/// `n` delays drawn from [`DELAY_MIX`] with the benchmark's own generator.
pub fn delays(seed: u64, n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|i| {
            let r = mix(seed, 1 << 40 | i);
            let mut pick = r % 100;
            for (share, lo, hi) in DELAY_MIX {
                if pick < share {
                    return lo + (r >> 8) % (hi - lo + 1);
                }
                pick -= share;
            }
            unreachable!("DELAY_MIX shares sum to 100")
        })
        .collect()
}

/// Payload the size of the simulator's `Event` (a `Deliver` carries a
/// whole `Message`).
type Payload = [u64; 6];

/// `EventQueue` schedule+pop at a steady population: every pop schedules
/// one event at the next recorded delay. Returns ns per (pop + schedule).
pub fn queue_ns_per_op(delays: &[u64]) -> f64 {
    let mut q: EventQueue<Payload> = EventQueue::new();
    for i in 0..IN_FLIGHT {
        q.schedule(Cycle::new(i % 8), [i; 6]);
    }
    let t = Instant::now();
    for i in 0..QUEUE_OPS {
        let (now, ev) = q.pop().expect("population is constant");
        let delay = delays[i as usize % delays.len()];
        q.schedule(now + delay, std::hint::black_box(ev));
    }
    let ns = t.elapsed().as_secs_f64() * 1e9 / QUEUE_OPS as f64;
    std::hint::black_box(q.len());
    ns
}

/// One message as the mesh saw it: (cycle, source, destination, bytes, class).
pub type MeshSend = (Cycle, RouterId, RouterId, u32, VcClass);

/// Runs `config` on `wl` with a collecting trace sink and returns the
/// delivered messages as mesh sends, in delivery order.
pub fn capture_sends(
    config: SystemConfig,
    wl: &ftdircmp_core::Workload,
) -> Result<Vec<MeshSend>, String> {
    let router = |n: NodeId, cfg: &SystemConfig| match n {
        NodeId::L1(i) | NodeId::L2(i) => RouterId::new(u16::from(i)),
        NodeId::Mem(j) => RouterId::new(cfg.mem_routers[usize::from(j)]),
    };
    let mut sys = System::new(config.clone(), wl).map_err(|e| e.to_string())?;
    let (sink, handle) = CollectSink::new(usize::MAX);
    sys.set_trace_sink(Box::new(sink));
    sys.run().map_err(|e| e.to_string())?;
    Ok(handle
        .take()
        .into_iter()
        .filter_map(|e| match e.kind {
            TraceEventKind::Delivered(m) => Some((
                e.at,
                router(m.src, &config),
                router(m.dst, &config),
                m.size_bytes(config.control_msg_bytes, config.data_msg_bytes),
                m.vc_class(),
            )),
            _ => None,
        })
        .collect())
}

/// The domain schedule of `fault_fork` laid over a stream that lasts
/// `span` cycles: a link flap and a region burst a quarter of the way in,
/// under an ambient Gilbert–Elliott channel.
pub fn domain_faults(span: u64) -> FaultConfig {
    let start = span / 4;
    FaultConfig::none().with_domains(
        FaultDomainConfig::events(vec![
            FaultEvent::LinkFlap {
                from: RouterId::new(5),
                dir: Direction::East,
                start,
                end: start + 6_000,
            },
            FaultEvent::RegionBurst {
                epicenter: RouterId::new(10),
                radius: 1,
                start,
                end: start + 8_000,
            },
        ])
        .with_channel(LinkChannelConfig {
            p_enter_bad: 0.002,
            p_exit_bad: 0.2,
            drop_good: 0.0,
            drop_bad: 0.05,
        }),
    )
}

/// `Mesh::send` over `sends` on a fresh mesh with `faults`, repeated until
/// at least `min_sends` sends were timed. Returns ns per send and the
/// messages one pass dropped.
pub fn mesh_ns_per_send(sends: &[MeshSend], faults: &FaultConfig, min_sends: usize) -> (f64, u64) {
    let config = ftdircmp_noc::MeshConfig {
        faults: faults.clone(),
        ..SystemConfig::ftdircmp().mesh
    };
    let (mut timed, mut secs, mut dropped) = (0usize, 0.0, 0);
    while timed < min_sends.max(1) {
        let mut mesh = Mesh::new(config.clone(), DetRng::from_seed(0xBE9C).fork("mesh"));
        let t = Instant::now();
        for &(at, src, dst, bytes, class) in sends {
            std::hint::black_box(mesh.send(at, src, dst, bytes, class));
        }
        secs += t.elapsed().as_secs_f64();
        timed += sends.len();
        dropped = mesh.stats().total_dropped();
    }
    (secs * 1e9 / timed as f64, dropped)
}

/// `Store::append_unit_record` of every record on a fresh scratch root:
/// mean ms per append (each append syncs).
pub fn record_append_ms(root: &std::path::Path, records: &[Json]) -> Result<f64, String> {
    let _ = std::fs::remove_dir_all(root);
    let store = Store::open(root).map_err(|e| e.to_string())?;
    let t = Instant::now();
    for (i, rec) in records.iter().enumerate() {
        store
            .append_unit_record(&format!("r{:03}", i % 8), rec)
            .map_err(|e| e.to_string())?;
    }
    Ok(t.elapsed().as_secs_f64() * 1e3 / records.len().max(1) as f64)
}

/// `Queue::submit` of every spec on a fresh scratch root: mean ms per
/// submission (each journals and syncs).
pub fn journal_submit_ms(root: &std::path::Path, specs: &[JobSpec]) -> Result<f64, String> {
    let _ = std::fs::remove_dir_all(root);
    let store = Store::open(root).map_err(|e| e.to_string())?;
    let queue = Queue::open(store, specs.len() + 1).map_err(|e| e.to_string())?;
    let t = Instant::now();
    for spec in specs {
        queue.submit(spec.clone())?;
    }
    Ok(t.elapsed().as_secs_f64() * 1e3 / specs.len().max(1) as f64)
}

/// `execute_job` of every spec on a fresh scratch root with the daemon's
/// worker count, as the daemon's executor runs each job: mean ms per job.
pub fn execute_ms(root: &std::path::Path, specs: &[JobSpec], jobs: usize) -> Result<f64, String> {
    let _ = std::fs::remove_dir_all(root);
    let store = Store::open(root).map_err(|e| e.to_string())?;
    let t = Instant::now();
    for (i, spec) in specs.iter().enumerate() {
        let outcome = execute_job(&store, &format!("x{i:03}"), spec, jobs, &|_, _| {})
            .map_err(|e| e.to_string())?;
        if outcome != "ok" {
            return Err(format!("job {} ended {outcome}", spec.label));
        }
    }
    Ok(t.elapsed().as_secs_f64() * 1e3 / specs.len().max(1) as f64)
}

/// `Json::parse` and `Json::to_string` over `texts`, repeated until at
/// least `min_bytes` were parsed: (parse ns/byte, write ns/byte).
pub fn json_ns_per_byte(texts: &[String], min_bytes: usize) -> Result<(f64, f64), String> {
    let values: Vec<Json> = texts
        .iter()
        .map(|t| Json::parse(t.trim()))
        .collect::<Result<_, _>>()?;
    let written: usize = values.iter().map(|v| v.to_string().len()).sum();
    let parsed: usize = texts.iter().map(|t| t.trim().len()).sum();
    let (mut parse_s, mut write_s, mut done) = (0.0, 0.0, 0usize);
    while done < min_bytes.max(1) {
        let t = Instant::now();
        for text in texts {
            std::hint::black_box(Json::parse(text.trim())?);
        }
        parse_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        for v in &values {
            std::hint::black_box(v.to_string());
        }
        write_s += t.elapsed().as_secs_f64();
        done += parsed;
    }
    let passes = (done / parsed.max(1)) as f64;
    Ok((
        parse_s * 1e9 / (passes * parsed as f64),
        write_s * 1e9 / (passes * written as f64),
    ))
}
