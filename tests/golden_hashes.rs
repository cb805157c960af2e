//! Golden trace hashes for a handful of serial runs.
//!
//! Each test pins the [`flash::obs::Recorder::merged_hash`] of one cheap,
//! fully seeded run. The hash covers every recorded event in every trace
//! domain in order, so any change to simulated timing, message order, RNG
//! draws or workload cursors shows up here. A change that moves one of
//! these values changes the simulator's behaviour and must say why.

use flash::campaign::{
    generate, per_run_seed, run_schedule, FaultEvent, GeneratorConfig, InjectAt, Mode, RunRecord,
    Schedule,
};
use flash::core::{run_fault_experiment, ExperimentConfig};
use flash::machine::{FaultSpec, MachineParams};
use flash::net::{NodeId, RouterId};

fn tiny_experiment(fault: FaultSpec) -> u64 {
    let cfg = ExperimentConfig::new(MachineParams::tiny(), 11);
    let out = run_fault_experiment(&cfg, fault);
    assert!(out.finished && out.passed());
    out.trace_hash
}

/// A fault on the 64-node (8x8) mesh: large enough that the recovery
/// views carry dead links and the cwn graph bridges failed routers.
fn mesh64_experiment(fault: FaultSpec) -> u64 {
    let mut params = MachineParams::table_5_1();
    params.n_nodes = 64;
    params.mem_mb_per_node = 1;
    params.l2_mb = 1.0 / 16.0;
    let mut cfg = ExperimentConfig::new(params, 23);
    cfg.fill_ops = 40;
    cfg.total_ops = 60;
    let out = run_fault_experiment(&cfg, fault);
    assert!(out.finished && out.passed());
    out.trace_hash
}

/// Runs an 8-node schedule of `mode` and asserts it finished clean.
fn run_events(mode: Mode, seed: u64, events: Vec<FaultEvent>) -> RunRecord {
    let s = Schedule {
        seed,
        n_nodes: 8,
        mode,
        fill_ops: 120,
        total_ops: 350,
        firewall_enabled: true,
        events,
    };
    let r = run_schedule(&s);
    assert!(r.finished && r.passed(), "{:?}", r.violations);
    r
}

fn steady(fault: FaultSpec) -> FaultEvent {
    FaultEvent {
        at: InjectAt::Steady { offset_ns: 100 },
        fault,
    }
}

fn schedule(mode: Mode, seed: u64, fault: FaultSpec) -> u64 {
    run_events(mode, seed, vec![steady(fault)]).trace_hash
}

/// A node failure, then a second one armed on entry to recovery `phase`.
fn phase_entry(mode: Mode, seed: u64, phase: u8) -> RunRecord {
    let r = run_events(
        mode,
        seed,
        vec![
            steady(FaultSpec::Node(NodeId(3))),
            FaultEvent {
                at: InjectAt::PhaseEntry {
                    phase,
                    delay_ns: 2_000,
                },
                fault: FaultSpec::Node(NodeId(5)),
            },
        ],
    );
    let mut hits = [0; 4];
    hits[phase as usize - 1] = 1;
    assert_eq!(r.phase_hits, hits);
    r
}

/// A node failure, then a second one armed in the OS-recovery window.
fn during_os_recovery(mode: Mode, seed: u64) -> RunRecord {
    let r = run_events(
        mode,
        seed,
        vec![
            steady(FaultSpec::Node(NodeId(3))),
            FaultEvent {
                at: InjectAt::DuringOsRecovery,
                fault: FaultSpec::Node(NodeId(5)),
            },
        ],
    );
    assert_eq!(r.os_recovery_hits, 1);
    r
}

#[test]
fn node_failure_on_tiny_machine() {
    assert_eq!(
        tiny_experiment(FaultSpec::Node(NodeId(2))),
        0x0c7c790e3ca6fdb8
    );
}

#[test]
fn link_failure_on_tiny_machine() {
    assert_eq!(
        tiny_experiment(FaultSpec::Link(RouterId(0), RouterId(1))),
        0xde6a4080408b99a2
    );
}

#[test]
fn lossy_link_on_tiny_machine() {
    assert_eq!(
        tiny_experiment(FaultSpec::LossyLink(RouterId(0), RouterId(1), 60_000)),
        0x8161befe0f8a0c27
    );
}

#[test]
fn router_failure_on_mesh64() {
    assert_eq!(
        mesh64_experiment(FaultSpec::Router(RouterId(27))),
        0x893d03dbb7a8b19f
    );
}

#[test]
fn link_failure_on_mesh64() {
    assert_eq!(
        mesh64_experiment(FaultSpec::Link(RouterId(27), RouterId(28))),
        0x017e2a7daa08239c
    );
}

/// A node failure on the 512-node mesh of the `FLASH_BIG=1` Fig 5.5 arm
/// (1 MB memory and L2 per node), with a light workload: pins the trace
/// at a size where host-time optimizations of the engine matter most.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: 512-node run")]
fn node_failure_on_mesh512() {
    let mut params = MachineParams::table_5_1();
    params.n_nodes = 512;
    params.mem_mb_per_node = 1;
    params.l2_mb = 1.0;
    let mut cfg = ExperimentConfig::new(params, 7);
    cfg.fill_ops = 100;
    cfg.total_ops = 120;
    let out = run_fault_experiment(&cfg, FaultSpec::Node(NodeId(300)));
    assert!(out.finished && out.passed());
    assert_eq!(out.trace_hash, 0xd59cddcb37f02016);
}

#[test]
fn machine_schedule() {
    assert_eq!(
        schedule(Mode::Machine, 7, FaultSpec::Node(NodeId(3))),
        0x8e2e23724661a621
    );
}

#[test]
fn hive_schedule() {
    assert_eq!(
        schedule(Mode::Hive, 5, FaultSpec::Node(NodeId(3))),
        0x010f69ccd6d8a89b
    );
}

#[test]
fn hivekv_schedule() {
    assert_eq!(
        schedule(Mode::HiveKv, 9, FaultSpec::Node(NodeId(3))),
        0x687e767158020bbe
    );
}

#[test]
fn machine_phase_entry_schedule() {
    let r = phase_entry(Mode::Machine, 7, 2);
    assert_eq!(r.trace_hash, 0x710823a08ee76252);
}

#[test]
fn hive_phase_entry_schedule() {
    let r = phase_entry(Mode::Hive, 5, 3);
    assert_eq!(r.trace_hash, 0x4e0518c397f8f4f2);
}

#[test]
fn hivekv_phase_entry_schedule() {
    let r = phase_entry(Mode::HiveKv, 9, 4);
    assert_eq!(r.trace_hash, 0xd9820db8cf0dde6e);
}

#[test]
fn hive_during_os_recovery_schedule() {
    let r = during_os_recovery(Mode::Hive, 5);
    assert_eq!(r.trace_hash, 0x43e2a69793f56a11);
}

#[test]
fn hivekv_during_os_recovery_schedule() {
    let r = during_os_recovery(Mode::HiveKv, 9);
    assert_eq!(r.trace_hash, 0x9abb22af0140f7d4);
}

/// One FNV-1a digest over the outcome of 48 generated schedules of the
/// chaos mix (about a third each of Machine, Hive and HiveKv runs, with
/// gray faults, multi-faults, phase-entry and OS-window arming).
#[test]
fn mixed_campaign_digest() {
    let cfg = GeneratorConfig {
        hive_chance: 0.33,
        kv_chance: 0.5,
        gray_chance: 0.45,
        ..GeneratorConfig::default()
    };
    let mut bytes = Vec::new();
    let mut modes = [0u32; 3];
    let (mut phase_hits, mut os_hits) = ([0u64; 4], 0u64);
    for i in 0..48 {
        let r = run_schedule(&generate(per_run_seed(3, i), &cfg));
        modes[r.schedule.mode as usize] += 1;
        for (t, h) in phase_hits.iter_mut().zip(r.phase_hits) {
            *t += h;
        }
        os_hits += r.os_recovery_hits;
        bytes.extend(r.trace_hash.to_le_bytes());
        bytes.extend(r.verdict.kind_str().as_bytes());
        bytes.push(r.finished as u8);
        for v in &r.violations {
            bytes.extend(v.invariant.as_bytes());
        }
        for h in r.phase_hits {
            bytes.extend(h.to_le_bytes());
        }
        bytes.extend(r.os_recovery_hits.to_le_bytes());
        bytes.extend(r.end_time_ns.to_le_bytes());
    }
    assert_eq!(modes, [16, 16, 16]);
    assert!(phase_hits.iter().all(|&h| h > 0), "{phase_hits:?}");
    assert!(os_hits > 0);
    assert_eq!(flash::obs::fnv1a(&bytes), 0xf606893ff3e947ad);
}
