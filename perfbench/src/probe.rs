//! Instruments the benchmark installs from outside the program: a timing
//! wrapper around the application [`Service`], and a harvester that reads
//! protocol events out of a world's shared [`Tracer`] ring.
//!
//! Neither changes what a world simulates: the wrapper forwards every call
//! unchanged, and the harvester only reads the ring. Both cost host time,
//! which the benchmark measures separately so that it can be left out of
//! the layer it would otherwise inflate.

use std::cell::Cell;
use std::collections::HashMap;
use std::time::{Duration, Instant};

use bytes::{ByteArena, Bytes};
use hovercraft::{EchoService, Executed, Service};
use simnet::Tracer;
use testbed::{Cluster, ServerAgent};

thread_local! {
    static EXEC_NS: Cell<u64> = const { Cell::new(0) };
    static EXEC_OPS: Cell<u64> = const { Cell::new(0) };
}

/// Host nanoseconds spent in wrapped `Service::execute` calls on this
/// thread, and the number of those calls.
pub fn service_totals() -> (u64, u64) {
    (EXEC_NS.with(Cell::get), EXEC_OPS.with(Cell::get))
}

/// Forwards every [`Service`] call to the wrapped service. When `timed`, it
/// adds each `execute`'s host time to this thread's totals; `spin` adds a
/// fixed busy-wait to every `execute` (the self-tests use it to show that a
/// slower service moves host-time metrics and nothing simulated).
pub struct TimedService {
    inner: Box<dyn Service>,
    timed: bool,
    spin: Duration,
}

impl Service for TimedService {
    fn execute(&mut self, body: &[u8], read_only: bool, arena: &mut ByteArena) -> Executed {
        let t0 = Instant::now();
        let out = self.inner.execute(body, read_only, arena);
        while t0.elapsed() < self.spin {
            std::hint::spin_loop();
        }
        if self.timed {
            let ns = t0.elapsed().as_nanos() as u64;
            EXEC_NS.with(|c| c.set(c.get() + ns));
            EXEC_OPS.with(|c| c.set(c.get() + 1));
        }
        out
    }

    fn snapshot(&self) -> Bytes {
        self.inner.snapshot()
    }

    fn restore(&mut self, snap: &[u8]) {
        self.inner.restore(snap)
    }
}

/// Wraps the service of every server in `cluster` whose incarnation
/// differs from `seen` (all of them on the first call), so replicas rebuilt
/// by a crash–restart are wrapped again. `seen` holds one restart count per
/// server.
pub fn wrap_services(cluster: &mut Cluster, seen: &mut Vec<u64>, timed: bool, spin: Duration) {
    seen.resize(cluster.servers.len(), u64::MAX);
    for (i, &s) in cluster.servers.clone().iter().enumerate() {
        let restarts = cluster.sim.restarts(s);
        if seen[i] == restarts {
            continue;
        }
        seen[i] = restarts;
        let svc = cluster
            .sim
            .agent_mut::<ServerAgent>(s)
            .node_mut()
            .service_mut();
        let inner = std::mem::replace(svc, Box::new(EchoService::default()));
        *svc = Box::new(TimedService { inner, timed, spin });
    }
}

/// Protocol events read from a world's trace ring, slice by slice.
#[derive(Default)]
pub struct Harvest {
    cursor: u64,
    /// Requests proposed at or after this virtual time feed the stage spans.
    pub measure_from_ns: u64,
    /// Events the ring evicted before they were read (0 when slices are
    /// short enough).
    pub lost: u64,
    /// `election_started` events.
    pub elections: u64,
    /// `became_leader` events.
    pub became_leader: u64,
    /// `append_sent` events.
    pub append_sent: u64,
    /// `commit_advance` events.
    pub commits: u64,
    proposed: HashMap<u64, u64>,
    executed: HashMap<(u32, u64), u64>,
    /// Replies whose request was ordered in the measured window.
    pub spans: u64,
    /// Summed over those replies: leader ordering → execution on the
    /// replier, ns.
    pub order_to_exec_ns: u64,
    /// Summed over those replies: execution on the replier → reply sent, ns.
    pub exec_to_reply_ns: u64,
}

impl Harvest {
    /// A harvester that reads the events `tracer` records from now on; its
    /// stage spans cover requests ordered at or after `measure_from_ns`.
    pub fn new(tracer: &Tracer, measure_from_ns: u64) -> Harvest {
        Harvest {
            cursor: tracer.total_recorded(),
            measure_from_ns,
            ..Harvest::default()
        }
    }

    /// Reads every event recorded since the previous call.
    pub fn absorb(&mut self, tracer: &Tracer) {
        let mut next = self.cursor;
        tracer.for_each_since(self.cursor, |e| {
            self.lost += e.seq - next;
            next = e.seq + 1;
            let at = e.at.as_nanos();
            match e.kind {
                "election_started" => self.elections += 1,
                "became_leader" => self.became_leader += 1,
                "append_sent" => self.append_sent += 1,
                "commit_advance" => self.commits += 1,
                "proposed" if at >= self.measure_from_ns => {
                    self.proposed.insert(e.key, at);
                }
                "executed" if self.proposed.contains_key(&e.key) => {
                    self.executed.insert((e.node, e.key), at);
                }
                "reply" => {
                    if let (Some(&p), Some(x)) = (
                        self.proposed.get(&e.key),
                        self.executed.remove(&(e.node, e.key)),
                    ) {
                        self.spans += 1;
                        self.order_to_exec_ns += x.saturating_sub(p);
                        self.exec_to_reply_ns += at.saturating_sub(x);
                    }
                }
                _ => {}
            }
        });
        self.cursor = next;
    }
}
