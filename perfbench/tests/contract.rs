//! The benchmark's own checks, on tiny inputs: every workload passes its
//! checks, the correctness gate rejects a perturbed spectrum, the printed
//! metric names are those of `BENCHMARK.json`, dev-clock metrics and
//! counts repeat exactly for one seed, and another seed changes the
//! inputs.

use cusfft::ServeQos;
use cusfft_telemetry::{parse_json, JsonValue};
use fft::cplx::Cplx;
use perfbench::common::{gate, Miss};
use perfbench::{run, Opts, Outcome, Scale, END_TO_END, PER_LAYER, WORKLOADS};

fn tiny(workload: &str, seed: u64, trace: bool) -> Outcome {
    run(&Opts {
        workload: workload.into(),
        seed,
        seconds: 0.0,
        trace,
        scale: Scale::Tiny,
    })
    .expect("known workload")
}

#[test]
fn every_workload_passes_its_checks_at_tiny_size() {
    for w in WORKLOADS {
        for trace in [false, true] {
            let o = tiny(w, 3, trace);
            assert!(o.correct, "{w} trace={trace}: {:?}", o.errors);
            assert_eq!(o.failed, 0, "{w}");
            assert!(o.attempted >= 1, "{w}");
            let last = o.result_json();
            assert!(
                parse_json(&last).is_ok(),
                "{w}: result line is JSON: {last}"
            );
        }
    }
    let unknown = Opts {
        workload: "nope".into(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        scale: Scale::Tiny,
    };
    assert!(run(&unknown).is_err());
}

#[test]
fn gate_rejects_a_perturbed_spectrum() {
    let truth = vec![(3, Cplx::new(1.0, 0.0)), (17, Cplx::new(0.0, -1.0))];
    assert!(gate(&truth, &truth, ServeQos::Full).is_ok());

    let mut nudged = truth.clone();
    nudged[1].1 += Cplx::new(0.01, 0.0);
    assert!(matches!(
        gate(&truth, &nudged, ServeQos::Full),
        Err(Miss::L1(_))
    ));
    assert!(
        gate(&truth, &nudged, ServeQos::Degraded).is_ok(),
        "degraded: L1 is not gated"
    );

    let missing = vec![truth[0]];
    assert!(matches!(
        gate(&truth, &missing, ServeQos::Full),
        Err(Miss::Recall(_))
    ));
    assert!(matches!(
        gate(&truth, &missing, ServeQos::Degraded),
        Err(Miss::Recall(_))
    ));

    let spurious = vec![truth[0], truth[1], (40, Cplx::new(0.5, 0.0))];
    assert!(matches!(
        gate(&truth, &spurious, ServeQos::Full),
        Err(Miss::L1(_))
    ));
}

fn listed(doc: &JsonValue, section: &str) -> Vec<(String, String, String)> {
    doc.get(section)
        .and_then(JsonValue::as_array)
        .expect("section is an array")
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(JsonValue::as_str)
                    .expect("string field")
                    .to_string()
            };
            (s("name"), s("unit"), s("better"))
        })
        .collect()
}

#[test]
fn printed_metrics_are_exactly_those_of_benchmark_json() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let doc = parse_json(&text).expect("BENCHMARK.json parses");

    let e2e: Vec<_> = END_TO_END
        .iter()
        .map(|(n, u, _, b)| (n.to_string(), u.to_string(), b.to_string()))
        .collect();
    assert_eq!(listed(&doc, "end_to_end"), e2e);
    let layers: Vec<_> = PER_LAYER
        .iter()
        .map(|(n, u, _, b, _)| (n.to_string(), u.to_string(), b.to_string()))
        .collect();
    assert_eq!(listed(&doc, "per_layer"), layers);

    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, WORKLOADS);

    for w in WORKLOADS {
        for (trace, want) in [(false, &e2e), (true, &layers)] {
            let printed: Vec<&str> = tiny(w, 1, trace).metrics.iter().map(|m| m.0).collect();
            let want: Vec<&str> = want.iter().map(|m| m.0.as_str()).collect();
            assert_eq!(printed, want, "{w} trace={trace}");
        }
    }
}

/// Metrics on the device clock, exact counts and cost-model values.
fn fixed(o: &Outcome) -> Vec<(&'static str, u64)> {
    o.metrics
        .iter()
        .filter(|m| m.3 != "host")
        .map(|m| (m.0, m.1.to_bits()))
        .collect()
}

#[test]
fn one_seed_repeats_dev_metrics_and_counts_exactly() {
    for w in WORKLOADS {
        for trace in [false, true] {
            let (a, b) = (tiny(w, 5, trace), tiny(w, 5, trace));
            assert_eq!(a.input_hash, b.input_hash, "{w}");
            assert!(!fixed(&a).is_empty());
            assert_eq!(fixed(&a), fixed(&b), "{w} trace={trace}");
        }
    }
}

#[test]
fn another_seed_changes_the_inputs() {
    for w in WORKLOADS {
        assert_ne!(
            tiny(w, 1, false).input_hash,
            tiny(w, 2, false).input_hash,
            "{w}"
        );
    }
}
