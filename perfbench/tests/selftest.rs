//! Self-tests of the benchmark: layer times reconcile with the traced wall
//! time, each metric family moves only with its own clock, and every
//! emitted name matches the declared schema.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::time::Duration;

use perfbench::{measure, median, Report, Spec, Workload, END_TO_END, PER_LAYER};

const SEED: u64 = 11;

fn quick(w: Workload, trace: bool, spin: Duration) -> Report {
    measure(&Spec::quick(w), SEED, 2, trace, spin).unwrap_or_else(|e| panic!("{}: {e}", w.name()))
}

#[test]
fn layer_times_reconcile_with_traced_wall_time() {
    for w in Workload::ALL {
        let r = quick(w, true, Duration::ZERO);
        for (i, p) in r.traced.iter().enumerate() {
            let h = &p.host;
            let layers = h.ladder_s
                + h.settle_s
                + h.run_s
                + h.check_s
                + h.digest_s
                + h.summarize_s
                + h.harvest_s;
            // What is left is the stepping loop itself: clock reads, counter
            // resets, incarnation checks.
            let unaccounted = h.wall_s - layers;
            assert!(
                unaccounted >= 0.0 && unaccounted <= 0.02 * h.wall_s + 0.005,
                "{} pass {i}: layers {layers:.4}s vs traced wall {:.4}s",
                w.name(),
                h.wall_s
            );
            assert!(
                h.service_s <= h.run_s,
                "{} pass {i}: service time lies inside the engine's run time",
                w.name()
            );
            assert!(
                h.service_ops > 0,
                "{}: the service wrapper saw no calls",
                w.name()
            );
        }
    }
}

#[test]
fn slower_service_moves_host_time_and_nothing_simulated() {
    let w = Workload::HcSynth;
    let spin = Duration::from_micros(5);
    let base = quick(w, true, Duration::ZERO);
    let slow = quick(w, true, spin);

    let exec = |r: &Report| r.get("service.execute_ns_per_op").unwrap();
    assert!(
        exec(&slow) >= exec(&base) + spin.as_nanos() as f64 * 0.9,
        "service.execute_ns_per_op {} -> {}",
        exec(&base),
        exec(&slow)
    );
    let wall = |r: &Report| median(r.passes.iter().map(|p| p.host.wall_s).collect());
    let executes = slow.traced[0].host.service_ops as f64;
    assert!(
        wall(&slow) > wall(&base) + 0.5 * executes * spin.as_secs_f64(),
        "wall_s {} -> {} for {executes} executes",
        wall(&base),
        wall(&slow)
    );

    // Every simulated-time figure is bit-identical.
    assert_eq!(base.sim, slow.sim);
    for (a, b) in base.passes.iter().zip(&slow.passes) {
        assert_eq!(a.sim, b.sim);
    }
    let e2e = |spin| measure(&Spec::quick(w), SEED, 2, false, spin).unwrap();
    let (a, b) = (e2e(Duration::ZERO), e2e(spin));
    let host_time = ["setup_s", "wall_s", "peak_rss_mb"];
    for m in a.metrics.iter().filter(|m| !host_time.contains(&m.name)) {
        assert_eq!(
            m.value.to_bits(),
            b.get(m.name).unwrap().to_bits(),
            "{} moved with host speed",
            m.name
        );
    }
    assert!(b.get("wall_s").unwrap() > a.get("wall_s").unwrap());
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`, in order.
fn declared(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let section = &json[start..];
    let section = &section[..section.find(']').expect("unterminated list")];
    let field = |obj: &str, f: &str| -> String {
        let at = obj.find(&format!("\"{f}\"")).expect("field") + f.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').unwrap() + 1;
        let close = open + rest[open..].find('"').unwrap();
        rest[open..close].to_string()
    };
    section
        .split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

/// The workloads `BENCHMARK.json` lists.
fn declared_workloads(json: &str) -> Vec<Workload> {
    let start = json
        .find("\"workloads\"")
        .expect("BENCHMARK.json has no workloads");
    let section = &json[start..];
    let section = &section[..section.find(']').expect("unterminated list")];
    Workload::ALL
        .into_iter()
        .filter(|w| section.contains(&format!("\"name\": \"{}\"", w.name())))
        .collect()
}

#[test]
fn emitted_metrics_match_the_declared_schema() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    let reported = |w: Workload, table: &[(&'static str, &'static str)]| -> Vec<(&str, &str)> {
        table
            .iter()
            .copied()
            .filter(|(n, _)| w.reports(n))
            .collect()
    };
    // Every workload the benchmark declares reports exactly the declared
    // metrics.
    let (e2e, layers) = (declared(&json, "end_to_end"), declared(&json, "per_layer"));
    let gated: Vec<Workload> = declared_workloads(&json);
    assert!(gated.len() >= 2, "BENCHMARK.json declares {gated:?}");
    for &w in &gated {
        assert_eq!(owned(&reported(w, &END_TO_END)), e2e, "{}", w.name());
        assert_eq!(owned(&reported(w, &PER_LAYER)), layers, "{}", w.name());
    }

    for (i, &(n, u)) in END_TO_END.iter().chain(&PER_LAYER).enumerate() {
        assert!(
            valid_name(n) && valid_unit(u),
            "bad name or unit: {n} [{u}]"
        );
        assert!(
            !END_TO_END
                .iter()
                .chain(&PER_LAYER)
                .skip(i + 1)
                .any(|(m, _)| *m == n),
            "{n} is declared twice"
        );
    }
    for w in Workload::ALL {
        for trace in [false, true] {
            let r = quick(w, trace, Duration::ZERO);
            let got: Vec<(&str, &str)> = r.metrics.iter().map(|m| (m.name, m.unit)).collect();
            let want = reported(w, if trace { &PER_LAYER } else { &END_TO_END });
            assert_eq!(got, want, "{} trace={trace}", w.name());
            for m in &r.metrics {
                assert!(m.value.is_finite(), "{} {} = {}", w.name(), m.name, m.value);
            }
            if !trace {
                for m in &r.metrics {
                    assert!(m.value > 0.0, "{}: {} is 0", w.name(), m.name);
                }
            }
        }
    }
}
