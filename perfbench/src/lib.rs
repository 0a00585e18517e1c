//! The repository benchmark.
//!
//! Three workloads drive whole simulated HovercRaft deployments through
//! the workspace crates' public API, one world at a time on one thread.
//! Each workload reports two kinds of end-to-end metric:
//!
//! * **host-time** metrics (`setup_s`, `wall_s`, `peak_rss_mb`) measure the
//!   harness itself — the engine, protocol, service and checker code as it
//!   runs on this machine. A speed change moves them.
//! * **simulated-time** metrics (`max_rps_slo`, `p50_us`, `p99_us`,
//!   `p999_us`, `reply_ratio`, `unavail_ms`) measure the modelled system.
//!   They are a pure function of (workload, seed, run length): a change
//!   that only makes the harness faster must leave them bit-identical; a
//!   protocol change moves them.
//!
//! A traced run (see [`Probe`]) adds per-layer numbers, measured around
//! calls into each crate from outside the program. See `README.md` next to
//! this crate for why each workload exists and how to read the numbers.

pub mod probe;

use std::time::{Duration, Instant};

use hovercraft::{HcStats, PolicyKind};
use lancet::{LatencyRecorder, WindowedSeries};
use probe::Harvest;
use simnet::{FaultPlan, FaultPlanConfig, NicParams, ProfileSnapshot, SimDur, SimTime};
use testbed::{
    chaos_digest_opts, ClientAgent, Cluster, ClusterOpts, ExpResult, ServerAgent, ServiceKind,
    Setup, TraceDigest, WorkloadKind,
};
use workload::YcsbWorkload;

/// The latency SLO every ladder rung is judged against (the paper's 500 µs
/// p99).
pub const SLO_NS: u64 = 500_000;

/// The chaos-checked seed whose first world is `digest_chaos_run(777)`.
pub const PINNED_SEED: u64 = 777;

/// The trace digest the repository pins for [`PINNED_SEED`].
pub const PINNED_DIGEST: u64 = 0x67d9_12db_5d3e_2fce;

/// Width of the client reply-time bins that resolve `unavail_ms`.
const GAP_BIN: SimDur = SimDur::micros(10);

/// The fault window of every chaos-checked plan (`digest_chaos_run`'s).
const FAULT_FROM: SimTime = SimTime::from_nanos(210_000_000);

/// End of the fault window.
const FAULT_TO: SimTime = SimTime::from_nanos(460_000_000);

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// HovercRaft/JBSQ, N=3, synthetic 1 µs requests near the Fig 7 knee.
    HcSynth,
    /// HovercRaft++ with the aggregator, N=5, YCSB-E on the kvstore.
    HcppYcsbe,
    /// The canonical chaos point under fault plans, checked every ms.
    ChaosChecked,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::HcSynth,
        Workload::HcppYcsbe,
        Workload::ChaosChecked,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HcSynth => "hc-synth",
            Workload::HcppYcsbe => "hcpp-ycsbe",
            Workload::ChaosChecked => "chaos-checked",
        }
    }

    /// Whether `metric`, an [`END_TO_END`] or [`PER_LAYER`] name, is
    /// reported by this workload: the SLO ladder runs on the fault-free
    /// workloads; the reply-gap measure of unavailability and the trace
    /// digest run only under faults.
    pub fn reports(self, metric: &str) -> bool {
        let chaos = self == Workload::ChaosChecked;
        match metric {
            "max_rps_slo" | "bench.ladder_s" => !chaos,
            "unavail_ms" | "testbed.digest_ns_per_trace_event" | "testbed.digest_share" => chaos,
            _ => true,
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The fixed simulated schedule of one workload.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Which workload.
    pub workload: Workload,
    /// SLO ladder, RPS, ascending. Every rung runs in every pass.
    pub ladder: Vec<f64>,
    /// Rate of the reference worlds that give latency, reply ratio, gap
    /// and per-layer numbers.
    pub reference_rps: f64,
    /// Load warm-up of the fault-free worlds. chaos-checked worlds keep the
    /// windows of `chaos_digest_opts`, which its fault plans are placed in
    /// (repeated here for reference).
    pub warmup: SimDur,
    /// Measured window; see `warmup`.
    pub measure: SimDur,
    /// Reference worlds per pass: fault-plan worlds on chaos-checked,
    /// fault-free worlds elsewhere. Their samples are pooled, so more
    /// worlds give steadier tails.
    pub refs: usize,
    /// Host seconds one pass takes on the reference machine (a 2-core
    /// Xeon container); sizes the run to `--seconds`.
    pub pass_s: f64,
}

impl Spec {
    /// The benchmark's schedule for `w`.
    pub fn of(w: Workload) -> Spec {
        match w {
            Workload::HcSynth => Spec {
                workload: w,
                ladder: vec![850e3, 870e3, 890e3, 910e3],
                reference_rps: 800e3,
                warmup: SimDur::millis(20),
                measure: SimDur::millis(80),
                refs: 2,
                pass_s: 5.5,
            },
            Workload::HcppYcsbe => Spec {
                workload: w,
                ladder: vec![106e3, 110e3, 114e3, 118e3, 122e3],
                reference_rps: 94e3,
                warmup: SimDur::millis(20),
                // At 94 kRPS, 120 ms leaves more than ten samples beyond
                // each world's p999.
                measure: SimDur::millis(120),
                refs: 4,
                pass_s: 5.5,
            },
            Workload::ChaosChecked => Spec {
                workload: w,
                ladder: Vec::new(),
                reference_rps: 25e3,
                warmup: SimDur::millis(50),
                measure: SimDur::millis(300),
                refs: 4,
                pass_s: 1.1,
            },
        }
    }

    /// A much smaller schedule with the same shape, for the self-tests.
    pub fn quick(w: Workload) -> Spec {
        let mut s = Spec::of(w);
        s.ladder.truncate(2);
        s.warmup = SimDur::millis(5);
        s.measure = SimDur::millis(20);
        s.refs = s.refs.min(2);
        s
    }

    /// Build options of one world at `rate`.
    fn opts(&self, rate: f64, seed: u64) -> ClusterOpts {
        let mut o = match self.workload {
            Workload::HcSynth => {
                let mut o = ClusterOpts::new(Setup::Hovercraft(PolicyKind::Jbsq), 3, rate);
                // The Fig 7 setup: reply load balancing off.
                o.lb_replies = Some(false);
                o
            }
            Workload::HcppYcsbe => {
                let mut o = ClusterOpts::new(Setup::HovercraftPp(PolicyKind::Jbsq), 5, rate);
                o.service = ServiceKind::Kv;
                o.workload = WorkloadKind::Ycsb {
                    workload: YcsbWorkload::E,
                    records: 10_000,
                };
                o.bound = 64;
                o
            }
            // The canonical chaos point as it is: its own windows, two
            // retrying clients.
            Workload::ChaosChecked => return chaos_digest_opts(seed),
        };
        o.clients = 4;
        o.warmup = self.warmup;
        o.measure = self.measure;
        o.seed = seed;
        o
    }

    /// Passes a run of `seconds` makes: a pure function of the arguments,
    /// so the simulated schedule, and every simulated-time metric, is fixed
    /// by (workload, seed, seconds).
    pub fn passes(&self, seconds: u64) -> usize {
        ((seconds as f64 / self.pass_s).round() as usize).max(2)
    }

    /// The worlds of pass `index`: the ladder, then the reference worlds.
    /// Every world has a cluster seed of its own, so each pass adds fresh
    /// samples to the run's pooled simulated-time metrics.
    fn worlds(&self, seed: u64, index: usize) -> Vec<World> {
        let mut v: Vec<World> = self
            .ladder
            .iter()
            .map(|&r| World {
                opts: self.opts(r, cluster_seed(seed, index)),
                role: Role::Rung,
            })
            .collect();
        for k in 0..self.refs {
            let j = index * self.refs + k;
            let role = match self.workload {
                Workload::ChaosChecked => Role::Chaos,
                _ => Role::Reference,
            };
            v.push(World {
                opts: self.opts(self.reference_rps, cluster_seed(seed, j)),
                role,
            });
        }
        v
    }
}

/// Cluster seed of the `i`-th reference world of a pass (the workload
/// seed itself for the first).
pub fn cluster_seed(seed: u64, i: usize) -> u64 {
    if i == 0 {
        return seed;
    }
    // splitmix64 finaliser: decorrelates the worlds of neighbouring seeds.
    let mut z = seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    /// A ladder rung: only its SLO verdict is used.
    Rung,
    /// The fault-free reference world.
    Reference,
    /// A fault-plan world of chaos-checked: the canonical chaos point,
    /// checked and digested every simulated ms.
    Chaos,
}

struct World {
    opts: ClusterOpts,
    role: Role,
}

/// How a pass is instrumented.
#[derive(Clone, Copy, Debug, Default)]
pub struct Probe {
    /// Slice the reference worlds into 1 ms runs, time each layer, and
    /// harvest protocol events for the per-layer metrics.
    pub trace: bool,
    /// Busy-wait added to every `Service::execute` (self-tests only).
    pub service_spin: Duration,
}

/// Samples of one ladder rung in one pass.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Rung {
    /// Offered load, RPS.
    pub offered_rps: f64,
    /// Measured window, ns.
    pub measure_ns: u64,
    /// Replies to measured requests within the window.
    pub responses: u64,
    /// Latencies of those replies, ns.
    pub latencies: Vec<u64>,
}

/// Simulated-time samples of one pass: a pure function of (workload, seed,
/// pass index), whatever the probe.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PassSim {
    /// One entry per ladder rung.
    pub rungs: Vec<Rung>,
    /// Per reference world: its p50, p99 and p999 latency, ns, with every
    /// NACKed or unanswered request ranked behind every reply.
    pub percentiles: Vec<[u64; 3]>,
    /// Requests sent in the reference measured windows.
    pub sent: u64,
    /// Replies to them within the windows.
    pub replies: u64,
    /// Requests still unanswered after the drain (reference worlds).
    pub unanswered: u64,
    /// Per reference world: longest gap between consecutive client replies
    /// inside its gap window, ns.
    pub gaps: Vec<u64>,
    /// Trace digest of each fault-plan world.
    pub digests: Vec<u64>,
}

/// Host time of one pass, seconds, split by layer where the probe can see
/// the layers.
#[derive(Clone, Debug, Default)]
pub struct HostTimes {
    /// `Cluster::build` of every world, kvstore preload included.
    pub setup_s: f64,
    /// Settle and run every world's schedule and summarize its clients,
    /// excluding setup, instrument read-out and result checks.
    pub wall_s: f64,
    /// Of `wall_s`: the ladder worlds.
    pub ladder_s: f64,
    /// Of `wall_s`: `Cluster::settle` of the reference worlds.
    pub settle_s: f64,
    /// Of `wall_s`: `Sim::run_until` of the reference worlds.
    pub run_s: f64,
    /// Of `run_s`: wrapped `Service::execute` calls.
    pub service_s: f64,
    /// Wrapped `Service::execute` calls.
    pub service_ops: u64,
    /// Of `wall_s`: `Cluster::check_invariants` on the reference worlds.
    pub check_s: f64,
    /// `Cluster::check_invariants` calls on the reference worlds.
    pub check_calls: u64,
    /// Of `wall_s`: `TraceDigest::absorb`.
    pub digest_s: f64,
    /// Of `wall_s`: merging client results and computing the pass's
    /// latency percentiles with `lancet`.
    pub summarize_s: f64,
    /// Of `wall_s`: reading the trace ring for per-layer counts (traced
    /// passes only; benchmark overhead).
    pub harvest_s: f64,
}

/// Deterministic per-layer counts over the reference worlds of a traced
/// pass.
#[derive(Clone, Debug, Default)]
pub struct LayerCounts {
    /// Engine events dispatched.
    pub events: u64,
    /// Profile counters, the harvester's own share removed.
    pub prof: ProfileSnapshot,
    /// Protocol trace events recorded.
    pub trace_events: u64,
    /// Trace events digested.
    pub digest_events: u64,
    /// Byte-arena allocations served from recycled chunks.
    pub arena_hits: u64,
    /// Byte-arena allocations that went to the global allocator.
    pub arena_misses: u64,
    /// Flow-control NACKs received for measured requests.
    pub nacks: u64,
    /// Client retransmissions of measured requests.
    pub retries: u64,
    /// Duplicate replies received.
    pub duplicates: u64,
    /// Leader TX bytes over the counter window.
    pub leader_tx_bytes: u64,
    /// Leader TX messages.
    pub leader_tx_msgs: u64,
    /// Leader RX messages.
    pub leader_rx_msgs: u64,
    /// Per world, the busiest follower's RX bytes, summed.
    pub follower_max_rx_bytes: u64,
    /// Per world, the busiest follower's TX messages, summed.
    pub follower_max_tx_msgs: u64,
    /// Server arrivals dropped because an RX ring was full.
    pub rx_dropped_backlog: u64,
    /// Length of the counter windows (measure start to end of run), ns.
    pub counter_window_ns: u64,
    /// `HcStats` deltas over the counter window, summed over servers.
    pub stats: HcStats,
    /// Events the ring evicted before the harvester read them.
    pub harvest_lost: u64,
    /// `election_started` events.
    pub elections: u64,
    /// `became_leader` events after settle.
    pub leader_changes: u64,
    /// `append_sent` events.
    pub append_sent: u64,
    /// `commit_advance` events.
    pub commits: u64,
    /// Stage spans (see [`Harvest`]).
    pub spans: u64,
    /// Summed leader ordering → replier execution, ns.
    pub order_to_exec_ns: u64,
    /// Summed replier execution → reply, ns.
    pub exec_to_reply_ns: u64,
}

/// Everything one pass produced.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Simulated-time samples.
    pub sim: PassSim,
    /// Host times.
    pub host: HostTimes,
    /// Per-layer counts (traced passes only).
    pub counts: LayerCounts,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn add_stats(acc: &mut HcStats, now: HcStats, base: HcStats) {
    acc.executed += now.executed - base.executed;
    acc.ro_skipped += now.ro_skipped - base.ro_skipped;
    acc.recoveries_sent += now.recoveries_sent - base.recoveries_sent;
    acc.apply_stalls += now.apply_stalls - base.apply_stalls;
}

fn server_stats(cl: &Cluster) -> Vec<HcStats> {
    cl.servers
        .iter()
        .map(|&s| cl.sim.agent::<ServerAgent>(s).node().stats())
        .collect()
}

/// Longest gap between consecutive nonempty reply bins inside
/// `[from, to)`, ns, over the merged bins of every client.
fn longest_gap(cl: &mut Cluster, bin: SimDur, from: SimTime, to: SimTime) -> u64 {
    let bin_ns = bin.as_nanos();
    let (lo, hi) = (
        (from.as_nanos() / bin_ns) as usize,
        (to.as_nanos() / bin_ns) as usize,
    );
    let mut hit = vec![false; hi.saturating_sub(lo)];
    for &c in &cl.clients.clone() {
        let series = &mut cl.sim.agent_mut::<ClientAgent>(c).series;
        for (i, w) in series.summarize().iter().enumerate() {
            if w.count > 0 && (lo..hi).contains(&i) {
                hit[i - lo] = true;
            }
        }
    }
    let mut last = None;
    let mut gap = 0;
    for (i, _) in hit.iter().enumerate().filter(|(_, &h)| h) {
        if let Some(l) = last {
            gap = gap.max((i - l) as u64 * bin_ns);
        }
        last = Some(i);
    }
    gap
}

/// Runs pass `index` of `spec` for `seed`: every world of that pass, built,
/// run and checked in turn. Fails on the first correctness check that does
/// not hold.
pub fn run_pass(spec: &Spec, seed: u64, index: usize, probe: Probe) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let wrap = probe.trace || !probe.service_spin.is_zero();
    let (svc_ns0, svc_ops0) = probe::service_totals();

    for world in spec.worlds(seed, index) {
        let t = Instant::now();
        let mut cl = Cluster::build(world.opts.clone());
        pass.host.setup_s += secs(t);
        let o = cl.opts().clone();

        if world.role == Role::Rung {
            let t = Instant::now();
            cl.run_to_completion();
            let r = cl.client_results();
            let checked = cl.check_invariants();
            pass.host.ladder_s += secs(t);
            pass.host.wall_s += secs(t);
            checked.map_err(|v| format!("invariant violated on a ladder rung: {v}"))?;
            pass.sim.rungs.push(Rung {
                offered_rps: o.rate_rps,
                measure_ns: o.measure.as_nanos(),
                responses: r.responses,
                latencies: r.latencies,
            });
            continue;
        }

        // Instruments, installed outside the timed region.
        let mut seen = Vec::new();
        if wrap {
            probe::wrap_services(&mut cl, &mut seen, probe.trace, probe.service_spin);
        }
        let measure_from = o.load_start + o.warmup;
        let chaos = world.role == Role::Chaos;
        if chaos {
            for &c in &cl.clients.clone() {
                cl.sim.agent_mut::<ClientAgent>(c).series = WindowedSeries::new(GAP_BIN.as_nanos());
            }
        }
        let drain = if chaos {
            SimDur::millis(220)
        } else {
            SimDur::millis(20)
        };
        let end = o.load_end() + drain;

        let t_world = Instant::now();
        let t = Instant::now();
        cl.settle();
        pass.host.settle_s += secs(t);

        let mut digest = TraceDigest::new();
        if chaos {
            // The plan `digest_chaos_run` applies, drawn from the world's
            // own seed.
            let plan = FaultPlan::generate(&FaultPlanConfig {
                nodes: cl.servers.clone(),
                window_start: FAULT_FROM,
                window_end: FAULT_TO,
                episodes: 3,
                seed: o.seed,
            });
            cl.sim.apply_fault_plan(&plan);
        }

        let mut harvest = Harvest::new(cl.tracer(), measure_from.as_nanos());
        let mut harvest_prof = ProfileSnapshot::default();
        let p0 = ProfileSnapshot::now();
        let arena0 = (cl.sim.arena_mut().hits(), cl.sim.arena_mut().misses());
        let mut stats0 = server_stats(&cl);
        let mut reset = false;
        // Stepping: chaos worlds are checked and digested every simulated
        // ms; a traced reference world is sliced the same way so each
        // layer can be timed. An untraced reference world runs in two
        // calls, as the figure harnesses run it.
        let step = if chaos || probe.trace {
            SimDur::millis(1)
        } else {
            end.since(SimTime::ZERO)
        };
        while cl.sim.now() < end {
            let mut next = (cl.sim.now() + step).min(end);
            if !reset && next >= measure_from {
                next = measure_from;
            }
            let t = Instant::now();
            cl.sim.run_until(next);
            pass.host.run_s += secs(t);
            if !reset && next == measure_from {
                cl.sim.reset_counters();
                stats0 = server_stats(&cl);
                reset = true;
            }
            if chaos {
                check(&mut cl, &mut pass.host)?;
                let t = Instant::now();
                digest.absorb(cl.tracer());
                pass.host.digest_s += secs(t);
            }
            if probe.trace {
                let q = ProfileSnapshot::now();
                let t = Instant::now();
                harvest.absorb(cl.tracer());
                pass.host.harvest_s += secs(t);
                harvest_prof.accumulate(&ProfileSnapshot::now().delta_since(&q));
            }
            if chaos && wrap {
                probe::wrap_services(&mut cl, &mut seen, probe.trace, probe.service_spin);
            }
        }
        if chaos {
            pass.sim.digests.push(digest.value());
        } else {
            check(&mut cl, &mut pass.host)?;
        }
        let prof = ProfileSnapshot::now().delta_since(&p0);

        let t = Instant::now();
        let r = cl.client_results();
        let mut rec = LatencyRecorder::new();
        for &l in &r.latencies {
            rec.record(l);
        }
        // A NACKed or unanswered request misses every latency limit: it is
        // ranked behind every reply, at the length of the window it could
        // have been answered in.
        let censor = end.since(measure_from).as_nanos();
        for _ in r.responses..r.sent {
            rec.record(censor);
        }
        let mut pct = |p| rec.percentile(p).unwrap_or(0);
        pass.sim.percentiles.push([pct(50.0), pct(99.0), pct(99.9)]);
        pass.host.summarize_s += secs(t);
        pass.host.wall_s += secs(t_world);

        // Result checks and instrument read-out: outside `wall_s`.
        pass.sim.sent += r.sent;
        pass.sim.replies += r.responses;
        for &c in &cl.clients {
            pass.sim.unanswered += cl.sim.agent::<ClientAgent>(c).outstanding() as u64;
        }
        if chaos {
            pass.sim
                .gaps
                .push(longest_gap(&mut cl, GAP_BIN, FAULT_FROM, FAULT_TO));
        }
        if spec.workload == Workload::HcppYcsbe {
            check_snapshots(&cl)?;
        }
        if probe.trace {
            count_layers(
                &mut pass.counts,
                &cl,
                &r,
                prof_minus(prof, harvest_prof),
                &mut harvest,
                &stats0,
                end.since(measure_from).as_nanos(),
            );
            pass.counts.digest_events += digest.count();
            pass.counts.arena_hits += cl.sim.arena_mut().hits() - arena0.0;
            pass.counts.arena_misses += cl.sim.arena_mut().misses() - arena0.1;
        }
    }

    let (svc_ns, svc_ops) = probe::service_totals();
    pass.host.service_s = (svc_ns - svc_ns0) as f64 / 1e9;
    pass.host.service_ops = svc_ops - svc_ops0;

    if index == 0 && seed == PINNED_SEED && spec.workload == Workload::ChaosChecked {
        let got = pass.sim.digests[0];
        if got != PINNED_DIGEST {
            return Err(format!(
                "chaos digest for seed {PINNED_SEED} is {got:#018x}, pinned {PINNED_DIGEST:#018x}"
            ));
        }
    }
    Ok(pass)
}

fn prof_minus(a: ProfileSnapshot, b: ProfileSnapshot) -> ProfileSnapshot {
    ProfileSnapshot {
        tracer_locks: a.tracer_locks - b.tracer_locks,
        sched_ops: a.sched_ops - b.sched_ops,
        wheel_cascades: a.wheel_cascades - b.wheel_cascades,
        alloc_calls: a.alloc_calls - b.alloc_calls,
        alloc_bytes: a.alloc_bytes - b.alloc_bytes,
    }
}

/// Adds one reference world's deterministic counts to `c`.
fn count_layers(
    c: &mut LayerCounts,
    cl: &Cluster,
    r: &testbed::ClientResults,
    prof: ProfileSnapshot,
    harvest: &mut Harvest,
    stats0: &[HcStats],
    window_ns: u64,
) {
    c.events += cl.sim.events_processed();
    c.prof.accumulate(&prof);
    c.trace_events += cl.tracer().total_recorded();
    c.nacks += r.nacks;
    c.retries += r.retries;
    c.duplicates += r.duplicates;
    c.counter_window_ns += window_ns;
    let leader = cl.leader();
    let (mut fol_rx, mut fol_tx) = (0, 0);
    for (i, &s) in cl.servers.iter().enumerate() {
        let k = cl.sim.counters(s);
        c.rx_dropped_backlog += k.rx_dropped_backlog;
        if Some(s) == leader {
            c.leader_tx_bytes += k.tx_bytes;
            c.leader_tx_msgs += k.tx_msgs;
            c.leader_rx_msgs += k.rx_msgs;
        } else {
            fol_rx = fol_rx.max(k.rx_bytes);
            fol_tx = fol_tx.max(k.tx_msgs);
        }
        let now = cl.sim.agent::<ServerAgent>(s).node().stats();
        // A restarted replica's counters start again from zero.
        let base = if now.executed >= stats0[i].executed {
            stats0[i]
        } else {
            HcStats::default()
        };
        add_stats(&mut c.stats, now, base);
    }
    c.follower_max_rx_bytes += fol_rx;
    c.follower_max_tx_msgs += fol_tx;
    c.harvest_lost += harvest.lost;
    c.elections += harvest.elections;
    c.leader_changes += harvest.became_leader;
    c.append_sent += harvest.append_sent;
    c.commits += harvest.commits;
    c.spans += harvest.spans;
    c.order_to_exec_ns += harvest.order_to_exec_ns;
    c.exec_to_reply_ns += harvest.exec_to_reply_ns;
}

/// One timed `Cluster::check_invariants` call; a violation fails the pass.
fn check(cl: &mut Cluster, host: &mut HostTimes) -> Result<(), String> {
    let t = Instant::now();
    let r = cl.check_invariants();
    host.check_s += secs(t);
    host.check_calls += 1;
    r.map_err(|v| format!("invariant violated at {:?}: {v}", cl.sim.now()))
}

/// Every live replica must hold a byte-identical state machine at the same
/// applied index once the load has drained.
fn check_snapshots(cl: &Cluster) -> Result<(), String> {
    let mut first: Option<(u64, bytes::Bytes)> = None;
    for &s in &cl.servers {
        if !cl.sim.is_alive(s) {
            continue;
        }
        let node = cl.sim.agent::<ServerAgent>(s).node();
        let snap = (node.applied_index(), node.service().snapshot());
        match &first {
            None => first = Some(snap),
            Some(f) if *f == snap => {}
            Some(f) => {
                return Err(format!(
                    "replica n{s} diverged after the drain: applied {} ({} snapshot bytes) \
                     vs applied {} ({} bytes) on the first live replica",
                    snap.0,
                    snap.1.len(),
                    f.0,
                    f.1.len()
                ))
            }
        }
    }
    Ok(())
}

/// Every end-to-end metric, with its unit, in report order (see
/// [`Workload::reports`] for which workload reports which).
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("max_rps_slo", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("p999_us", "us"),
    ("reply_ratio", "ratio"),
    ("unavail_ms", "ms"),
];

/// Every per-layer metric, with its unit, in report order (see
/// [`Workload::reports`]).
pub const PER_LAYER: [(&str, &str); 43] = [
    ("simnet.run_ns_per_event", "ns"),
    ("simnet.run_excl_service_ns_per_event", "ns"),
    ("service.execute_ns_per_op", "ns"),
    ("service.execute_share", "ratio"),
    ("testbed.check_ns_per_call", "ns"),
    ("testbed.check_share", "ratio"),
    ("testbed.digest_ns_per_trace_event", "ns"),
    ("testbed.digest_share", "ratio"),
    ("testbed.settle_s", "s"),
    ("lancet.summarize_ms", "ms"),
    ("simnet.events", "count"),
    ("simnet.events_per_req", "count"),
    ("simnet.sched_ops_per_event", "count"),
    ("simnet.wheel_cascades_per_event", "count"),
    ("simnet.tracer_locks_per_event", "count"),
    ("simnet.trace_events_per_req", "count"),
    ("alloc.calls_per_event", "count"),
    ("alloc.bytes_per_event", "B"),
    ("bytes.arena_hit_ratio", "ratio"),
    ("simnet.leader_tx_bytes_per_req", "B"),
    ("simnet.leader_tx_msgs_per_req", "count"),
    ("simnet.leader_rx_msgs_per_req", "count"),
    ("simnet.leader_tx_link_util", "ratio"),
    ("simnet.follower_max_rx_bytes_per_req", "B"),
    ("simnet.follower_max_tx_msgs_per_req", "count"),
    ("simnet.rx_dropped_backlog", "count"),
    ("core.executed_per_req", "count"),
    ("core.ro_skipped_ratio", "ratio"),
    ("core.nacks_per_kreq", "count"),
    ("core.stage_order_to_exec_us_mean", "us"),
    ("core.stage_exec_to_reply_us_mean", "us"),
    ("raft.elections", "count"),
    ("raft.leader_changes", "count"),
    ("raft.append_sent_per_commit", "count"),
    ("core.recoveries_per_kreq", "count"),
    ("core.apply_stalls", "count"),
    ("testbed.retries_per_kreq", "count"),
    ("testbed.duplicates", "count"),
    ("bench.trace_overhead", "ratio"),
    ("bench.ladder_s", "s"),
    ("bench.harvest_share", "ratio"),
    ("bench.unaccounted_share", "ratio"),
    ("bench.harvest_lost", "count"),
];

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as declared in [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The run's simulated-time figures, pooled over its passes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimOutcome {
    /// Highest ladder rung whose pooled samples meet the SLO (0 if none).
    pub max_rps_slo: f64,
    /// Per rung: (offered, achieved, p99 ns), pooled over passes.
    pub rungs: Vec<(f64, f64, u64)>,
    /// Median over reference worlds of each world's latency percentiles,
    /// ns, misses ranked last.
    pub p50_ns: u64,
    /// See `p50_ns`.
    pub p99_ns: u64,
    /// See `p50_ns`.
    pub p999_ns: u64,
    /// Requests sent in the reference measured windows.
    pub sent: u64,
    /// Replies to them within the windows.
    pub replies: u64,
    /// Requests never answered.
    pub unanswered: u64,
    /// Median over reference worlds of the longest reply gap, ns.
    pub unavail_ns: u64,
}

impl SimOutcome {
    /// Pools the simulated-time samples of `passes`.
    pub fn pool(passes: &[Pass]) -> SimOutcome {
        let mut out = SimOutcome::default();
        let rungs = passes.first().map_or(0, |p| p.sim.rungs.len());
        for i in 0..rungs {
            let mut rec = LatencyRecorder::new();
            let (mut responses, mut window_ns) = (0, 0);
            let mut offered = 0.0;
            for p in passes {
                let r = &p.sim.rungs[i];
                offered = r.offered_rps;
                responses += r.responses;
                window_ns += r.measure_ns;
                r.latencies.iter().for_each(|&l| rec.record(l));
            }
            // The program's own SLO rule, applied to the pooled samples.
            let e = ExpResult {
                offered_rps: offered,
                achieved_rps: responses as f64 / (window_ns as f64 / 1e9),
                mean_ns: rec.mean(),
                p50_ns: rec.percentile(50.0).unwrap_or(0),
                p99_ns: rec.p99().unwrap_or(u64::MAX),
                max_ns: rec.max().unwrap_or(0),
                sent: 0,
                responses,
                nacks: 0,
                leader: None,
                server_counters: Vec::new(),
            };
            if e.meets_slo(SLO_NS) {
                out.max_rps_slo = out.max_rps_slo.max(offered);
            }
            out.rungs.push((offered, e.achieved_rps, e.p99_ns));
        }
        let mut gaps = Vec::new();
        let mut pcts: [Vec<u64>; 3] = Default::default();
        for p in passes {
            for w in &p.sim.percentiles {
                for (v, &x) in pcts.iter_mut().zip(w) {
                    v.push(x);
                }
            }
            gaps.extend(&p.sim.gaps);
            out.sent += p.sim.sent;
            out.replies += p.sim.replies;
            out.unanswered += p.sim.unanswered;
        }
        [out.p50_ns, out.p99_ns, out.p999_ns] = pcts.map(median_u64);
        out.unavail_ns = median_u64(gaps);
        out
    }
}

/// The outcome of one benchmark run.
#[derive(Clone, Debug)]
pub struct Report {
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Simulated-time figures pooled over the untraced passes.
    pub sim: SimOutcome,
    /// Untraced passes made.
    pub passes: Vec<Pass>,
    /// Traced passes made (traced runs only), one per untraced pass.
    pub traced: Vec<Pass>,
}

impl Report {
    /// Requests attempted in the measured windows of every pass.
    pub fn attempted(&self) -> u64 {
        self.all_passes().map(|p| p.sim.sent).sum()
    }

    /// Requests that were never answered, over every pass.
    pub fn failed(&self) -> u64 {
        self.all_passes().map(|p| p.sim.unanswered).sum()
    }

    fn all_passes(&self) -> impl Iterator<Item = &Pass> {
        self.passes.iter().chain(&self.traced)
    }

    /// The value of metric `name`, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Lower median of `v` (0 if empty): a value some world produced.
fn median_u64(mut v: Vec<u64>) -> u64 {
    v.sort_unstable();
    v.get(v.len().saturating_sub(1) / 2).copied().unwrap_or(0)
}

/// Median of `v` (mean of the middle two for an even count).
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process, MB (`VmHWM`; 0 where unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `passes` passes of `spec` for `seed`. A traced run makes a traced
/// pass right after each untraced one, over the same worlds, and fails
/// unless both produce identical simulated samples: the instruments must
/// not change what is simulated.
pub fn measure(
    spec: &Spec,
    seed: u64,
    passes: usize,
    trace: bool,
    service_spin: Duration,
) -> Result<Report, String> {
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    for i in 0..passes {
        let p = Probe {
            trace: false,
            service_spin,
        };
        plain.push(run_pass(spec, seed, i, p)?);
        if trace {
            let p = Probe {
                trace: true,
                service_spin,
            };
            let t = run_pass(spec, seed, i, p)?;
            if t.sim != plain[i].sim {
                return Err(format!(
                    "pass {i}: the traced run simulated something else than the untraced run"
                ));
            }
            traced.push(t);
        }
    }
    let sim = SimOutcome::pool(&plain);
    let metrics = if trace {
        per_layer(&plain, &traced)
    } else {
        end_to_end(&plain, &sim)
    };
    let metrics = metrics
        .into_iter()
        .filter(|m| spec.workload.reports(m.name))
        .collect();
    Ok(Report {
        metrics,
        sim,
        passes: plain,
        traced,
    })
}

fn metric(table: &[(&'static str, &'static str)], name: &str, value: f64) -> Metric {
    let &(name, unit) = table
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("undeclared metric {name}"));
    Metric { name, value, unit }
}

fn end_to_end(passes: &[Pass], s: &SimOutcome) -> Vec<Metric> {
    let host = |f: fn(&HostTimes) -> f64| median(passes.iter().map(|p| f(&p.host)).collect());
    let m = |name, value| metric(&END_TO_END, name, value);
    vec![
        m("setup_s", host(|h| h.setup_s)),
        m("wall_s", host(|h| h.wall_s)),
        m("peak_rss_mb", peak_rss_mb()),
        m("max_rps_slo", s.max_rps_slo),
        m("p50_us", s.p50_ns as f64 / 1e3),
        m("p99_us", s.p99_ns as f64 / 1e3),
        m("p999_us", s.p999_ns as f64 / 1e3),
        m("reply_ratio", s.replies as f64 / s.sent.max(1) as f64),
        m("unavail_ms", s.unavail_ns as f64 / 1e6),
    ]
}

fn per_layer(plain: &[Pass], traced: &[Pass]) -> Vec<Metric> {
    // Host-time figures: the median over traced passes of each pass's own
    // ratio. Counts: summed over traced passes.
    let host = |f: &dyn Fn(&HostTimes, &LayerCounts) -> f64| {
        median(traced.iter().map(|p| f(&p.host, &p.counts)).collect())
    };
    let mut c = LayerCounts::default();
    let (mut replies, mut sent) = (0, 0);
    for p in traced {
        let k = &p.counts;
        replies += p.sim.replies;
        sent += p.sim.sent;
        c.events += k.events;
        c.prof.accumulate(&k.prof);
        c.trace_events += k.trace_events;
        c.digest_events += k.digest_events;
        c.arena_hits += k.arena_hits;
        c.arena_misses += k.arena_misses;
        c.nacks += k.nacks;
        c.retries += k.retries;
        c.duplicates += k.duplicates;
        c.leader_tx_bytes += k.leader_tx_bytes;
        c.leader_tx_msgs += k.leader_tx_msgs;
        c.leader_rx_msgs += k.leader_rx_msgs;
        c.follower_max_rx_bytes += k.follower_max_rx_bytes;
        c.follower_max_tx_msgs += k.follower_max_tx_msgs;
        c.rx_dropped_backlog += k.rx_dropped_backlog;
        c.counter_window_ns += k.counter_window_ns;
        add_stats(&mut c.stats, k.stats, HcStats::default());
        c.harvest_lost += k.harvest_lost;
        c.elections += k.elections;
        c.leader_changes += k.leader_changes;
        c.append_sent += k.append_sent;
        c.commits += k.commits;
        c.spans += k.spans;
        c.order_to_exec_ns += k.order_to_exec_ns;
        c.exec_to_reply_ns += k.exec_to_reply_ns;
    }
    let events = c.events.max(1) as f64;
    let reqs = replies.max(1) as f64;
    let kreqs = sent.max(1) as f64 / 1e3;
    // Host time of the reference worlds: the denominator of every share.
    let world_s = |h: &HostTimes| (h.wall_s - h.ladder_s).max(1e-12);
    let per_event = |k: &LayerCounts| k.events.max(1) as f64;
    let overhead: Vec<f64> = plain
        .iter()
        .zip(traced)
        .map(|(u, t)| t.host.wall_s / u.host.wall_s)
        .collect();
    let m = |name, value| metric(&PER_LAYER, name, value);
    vec![
        m(
            "simnet.run_ns_per_event",
            host(&|h, k| h.run_s * 1e9 / per_event(k)),
        ),
        m(
            "simnet.run_excl_service_ns_per_event",
            host(&|h, k| (h.run_s - h.service_s) * 1e9 / per_event(k)),
        ),
        m(
            "service.execute_ns_per_op",
            host(&|h, _| h.service_s * 1e9 / h.service_ops.max(1) as f64),
        ),
        m(
            "service.execute_share",
            host(&|h, _| h.service_s / world_s(h)),
        ),
        m(
            "testbed.check_ns_per_call",
            host(&|h, _| h.check_s * 1e9 / h.check_calls.max(1) as f64),
        ),
        m("testbed.check_share", host(&|h, _| h.check_s / world_s(h))),
        m(
            "testbed.digest_ns_per_trace_event",
            host(&|h, k| h.digest_s * 1e9 / k.digest_events.max(1) as f64),
        ),
        m(
            "testbed.digest_share",
            host(&|h, _| h.digest_s / world_s(h)),
        ),
        m("testbed.settle_s", host(&|h, _| h.settle_s)),
        m("lancet.summarize_ms", host(&|h, _| h.summarize_s * 1e3)),
        m("simnet.events", c.events as f64),
        m("simnet.events_per_req", c.events as f64 / reqs),
        m(
            "simnet.sched_ops_per_event",
            c.prof.sched_ops as f64 / events,
        ),
        m(
            "simnet.wheel_cascades_per_event",
            c.prof.wheel_cascades as f64 / events,
        ),
        m(
            "simnet.tracer_locks_per_event",
            c.prof.tracer_locks as f64 / events,
        ),
        m("simnet.trace_events_per_req", c.trace_events as f64 / reqs),
        m("alloc.calls_per_event", c.prof.alloc_calls as f64 / events),
        m("alloc.bytes_per_event", c.prof.alloc_bytes as f64 / events),
        m(
            "bytes.arena_hit_ratio",
            c.arena_hits as f64 / (c.arena_hits + c.arena_misses).max(1) as f64,
        ),
        m(
            "simnet.leader_tx_bytes_per_req",
            c.leader_tx_bytes as f64 / reqs,
        ),
        m(
            "simnet.leader_tx_msgs_per_req",
            c.leader_tx_msgs as f64 / reqs,
        ),
        m(
            "simnet.leader_rx_msgs_per_req",
            c.leader_rx_msgs as f64 / reqs,
        ),
        m(
            "simnet.leader_tx_link_util",
            c.leader_tx_bytes as f64 * 8.0
                / (NicParams::default().link_bps as f64 * c.counter_window_ns.max(1) as f64 / 1e9),
        ),
        m(
            "simnet.follower_max_rx_bytes_per_req",
            c.follower_max_rx_bytes as f64 / reqs,
        ),
        m(
            "simnet.follower_max_tx_msgs_per_req",
            c.follower_max_tx_msgs as f64 / reqs,
        ),
        m("simnet.rx_dropped_backlog", c.rx_dropped_backlog as f64),
        m("core.executed_per_req", c.stats.executed as f64 / reqs),
        m(
            "core.ro_skipped_ratio",
            c.stats.ro_skipped as f64 / (c.stats.executed + c.stats.ro_skipped).max(1) as f64,
        ),
        m("core.nacks_per_kreq", c.nacks as f64 / kreqs),
        // Means, not percentiles: most spans take one of a few fixed
        // simulated path lengths, so a stage percentile repeats exactly
        // across seeds (order→exec p50 was 4.767 µs on two hcpp-ycsbe
        // seeds) and could not show a change smaller than a path step.
        m(
            "core.stage_order_to_exec_us_mean",
            c.order_to_exec_ns as f64 / 1e3 / c.spans.max(1) as f64,
        ),
        m(
            "core.stage_exec_to_reply_us_mean",
            c.exec_to_reply_ns as f64 / 1e3 / c.spans.max(1) as f64,
        ),
        m("raft.elections", c.elections as f64),
        m("raft.leader_changes", c.leader_changes as f64),
        m(
            "raft.append_sent_per_commit",
            c.append_sent as f64 / c.commits.max(1) as f64,
        ),
        m(
            "core.recoveries_per_kreq",
            c.stats.recoveries_sent as f64 / kreqs,
        ),
        m("core.apply_stalls", c.stats.apply_stalls as f64),
        m("testbed.retries_per_kreq", c.retries as f64 / kreqs),
        m("testbed.duplicates", c.duplicates as f64),
        m("bench.trace_overhead", median(overhead)),
        m("bench.ladder_s", host(&|h, _| h.ladder_s)),
        m(
            "bench.harvest_share",
            host(&|h, _| h.harvest_s / world_s(h)),
        ),
        m(
            "bench.unaccounted_share",
            host(&|h, _| {
                let seen =
                    h.settle_s + h.run_s + h.check_s + h.digest_s + h.summarize_s + h.harvest_s;
                (world_s(h) - seen) / world_s(h)
            }),
        ),
        m("bench.harvest_lost", c.harvest_lost as f64),
    ]
}
