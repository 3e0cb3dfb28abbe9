//! The benchmark's own tests: every workload at tiny size reports every
//! named metric with a unit, a wrong reference is a counted failure, and
//! a seed fixes the `serve-mixed` arrival schedule.

use unsnap_perfbench::inproc::Reference;
use unsnap_perfbench::serve_mixed::{schedule, Request, MIN_ARRIVALS};
use unsnap_perfbench::{run, Options, Scale, Workload, END_TO_END, PER_LAYER};

fn tiny(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: 7,
        seconds: 0.5,
        trace,
        scale: Scale::Tiny,
        reference: None,
        trace_out: None,
    }
}

#[test]
fn tiny_pass_of_every_workload_prints_every_metric_with_its_unit() {
    for workload in Workload::ALL {
        for (trace, names) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let report = run(&tiny(workload, trace));
            assert!(
                report.correct(),
                "{}: {:?}",
                workload.name(),
                report.failures
            );
            let printed = report.render();
            let json = report.json_line();
            for name in names {
                let metric = report
                    .get(name)
                    .unwrap_or_else(|| panic!("{}: no {name}", workload.name()));
                assert!(!metric.unit.is_empty());
                assert!(
                    printed
                        .lines()
                        .any(|l| l.starts_with(name) && l.contains(metric.unit)),
                    "{}: {name} not printed with its unit",
                    workload.name()
                );
                assert!(json.contains(&format!("\"{name}\":{{\"value\":")));
            }
            assert_eq!(report.metrics.len(), names.len(), "{}", workload.name());
        }
    }
}

#[test]
fn a_wrong_reference_is_a_failed_operation_not_a_crash() {
    for workload in [Workload::SweepLinear, Workload::ServeMixed] {
        let mut opts = tiny(workload, false);
        opts.reference = Some(Reference {
            total: 1.0,
            rel_tol: 1e-9,
        });
        let report = run(&opts);
        assert!(!report.correct());
        assert!(report.failed > 0 && report.failed <= report.attempted);
        assert!(report.failures.iter().any(|f| f.contains("reference")));
        assert!(report.json_line().starts_with("{\"correct\":false,"));
    }
}

#[test]
fn a_seed_reproduces_the_serve_mixed_arrival_schedule() {
    let a = schedule(11, 30.0);
    assert_eq!(a, schedule(11, 30.0));
    assert_ne!(a, schedule(12, 30.0));
    assert!(a.len() > 1000, "about 40 req/s over 30 s, got {}", a.len());
    assert_eq!(
        schedule(11, 0.5).len(),
        MIN_ARRIVALS,
        "short runs still get the minimum"
    );
    assert!(a.windows(2).all(|w| w[0].due_s < w[1].due_s));
    assert!(a.iter().any(|x| x.request == Request::Tiny));
    assert!(a.iter().any(|x| matches!(x.request, Request::Inline(_))));
}

#[test]
fn the_committed_reference_holds_at_the_default_seed_only() {
    use unsnap_perfbench::{committed_reference, DEFAULT_SEED};
    for workload in Workload::ALL {
        let r = committed_reference(workload, DEFAULT_SEED).expect("reference committed");
        assert!(r.total.is_finite() && r.total > 0.0);
        assert_eq!(committed_reference(workload, DEFAULT_SEED + 1), None);
    }
}

#[test]
fn metric_names_and_units_match_benchmark_json() {
    use unsnap_obs::reader::{self, JsonValue};
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = reader::parse(&text).expect("BENCHMARK.json is JSON");
    for (key, names, trace) in [
        ("end_to_end", &END_TO_END[..], false),
        ("per_layer", &PER_LAYER[..], true),
    ] {
        let listed: Vec<(&str, &str)> = doc
            .get(key)
            .and_then(JsonValue::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(JsonValue::as_str).expect("name and unit");
                (field("name"), field("unit"))
            })
            .collect();
        let report = run(&tiny(Workload::SweepLinear, trace));
        assert_eq!(listed.len(), names.len(), "{key}");
        for (name, unit) in listed {
            assert!(names.contains(&name), "{key}: {name}");
            assert_eq!(
                report.get(name).map(|m| m.unit),
                Some(unit),
                "{key}: {name}"
            );
        }
    }
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(JsonValue::as_str))
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));
}
