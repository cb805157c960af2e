//! Golden trace hashes for a handful of serial runs.
//!
//! Each test pins the [`flash::obs::Recorder::merged_hash`] of one cheap,
//! fully seeded run. The hash covers every recorded event in every trace
//! domain in order, so any change to simulated timing, message order, RNG
//! draws or workload cursors shows up here. A change that moves one of
//! these values changes the simulator's behaviour and must say why.

use flash::campaign::{run_schedule, FaultEvent, InjectAt, Mode, Schedule};
use flash::core::{run_fault_experiment, ExperimentConfig};
use flash::machine::{FaultSpec, MachineParams};
use flash::net::{NodeId, RouterId};

fn tiny_experiment(fault: FaultSpec) -> u64 {
    let cfg = ExperimentConfig::new(MachineParams::tiny(), 11);
    let out = run_fault_experiment(&cfg, fault);
    assert!(out.finished && out.passed());
    out.trace_hash
}

fn schedule(mode: Mode, seed: u64, fault: FaultSpec) -> u64 {
    let s = Schedule {
        seed,
        n_nodes: 8,
        mode,
        fill_ops: 120,
        total_ops: 350,
        firewall_enabled: true,
        events: vec![FaultEvent {
            at: InjectAt::Steady { offset_ns: 100 },
            fault,
        }],
    };
    let r = run_schedule(&s);
    assert!(r.finished && r.passed(), "{:?}", r.violations);
    r.trace_hash
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
