//! The preloaded service image: every replica of a Kv cluster, and every
//! crash–restart incarnation, starts from one YCSB keyspace built once per
//! `Cluster::build` and cloned per instance.

use bytes::{ByteArena, Bytes};
use hovercraft::{PolicyKind, Service};
use minikv::KvService;
use simnet::{SimDur, SimTime};
use testbed::{Cluster, ClusterOpts, ServerAgent, ServiceKind, Setup, WorkloadKind};
use workload::{load_phase, RecordSpec, YcsbWorkload};

const RECORDS: u64 = 1_000;

fn kv_opts() -> ClusterOpts {
    let mut o = ClusterOpts::new(Setup::HovercraftPp(PolicyKind::Jbsq), 5, 20_000.0);
    o.service = ServiceKind::Kv;
    o.workload = WorkloadKind::Ycsb {
        workload: YcsbWorkload::E,
        records: RECORDS,
    };
    o.warmup = SimDur::millis(50);
    o.measure = SimDur::millis(200);
    o
}

/// The keyspace as every replica used to build it for itself: each
/// load-phase command encoded and run through the service's codec.
fn preloaded_the_old_way() -> Bytes {
    let mut svc = KvService::default();
    let mut arena = ByteArena::new();
    for cmd in load_phase(RECORDS, RecordSpec::default()) {
        svc.execute(&cmd.encode(), false, &mut arena);
    }
    svc.snapshot()
}

fn replica_state(cluster: &Cluster, s: u32) -> (u64, Bytes) {
    let node = cluster.sim.agent::<ServerAgent>(s).node();
    (node.applied_index(), node.service().snapshot())
}

#[test]
fn every_replica_starts_from_the_preloaded_keyspace() {
    let cluster = Cluster::build(kv_opts());
    let expected = preloaded_the_old_way();
    assert!(
        expected.len() > RECORDS as usize * 1_000,
        "records were loaded"
    );
    for &s in &cluster.servers {
        assert_eq!(
            replica_state(&cluster, s),
            (0, expected.clone()),
            "replica n{s} differs from the preloaded keyspace"
        );
    }
}

#[test]
fn restarted_replica_rebuilds_from_the_image_and_converges() {
    let opts = kv_opts();
    assert_eq!(opts.snapshot_interval, 0, "rejoin must replay the log");
    let load_start = opts.load_start;
    let mut cluster = Cluster::build(opts);
    cluster.settle();
    let leader = cluster.leader().expect("settled leader");
    let victim = cluster
        .servers
        .iter()
        .copied()
        .find(|&s| s != leader)
        .expect("a follower");
    let at = |ms: u64| load_start + SimDur::millis(ms);
    cluster.sim.kill_at(victim, at(60));
    cluster.sim.restart_at(victim, at(100));

    let end = cluster.opts().load_end() + SimDur::millis(20);
    cluster.run_until_checked(end);
    cluster.run_checked(SimDur::millis(100));
    assert!(cluster.sim.now() > SimTime::ZERO + SimDur::millis(400));

    assert_eq!(cluster.sim.restarts(victim), 1);
    assert_eq!(cluster.sim.agent::<ServerAgent>(victim).node().epoch(), 1);
    let reference = replica_state(&cluster, leader);
    assert!(reference.0 > 0, "the load committed entries");
    assert_ne!(reference.1, preloaded_the_old_way(), "inserts were applied");
    for &s in &cluster.servers {
        assert_eq!(
            replica_state(&cluster, s),
            reference,
            "replica n{s} diverged from the leader after the drain"
        );
    }
}
