//! The observability layer's cross-crate contracts (ISSUE 3):
//!
//! * the uninstrumented path ([`bfree_obs::NullRecorder`]) leaves every
//!   experiment CSV bit-identical to the checked-in goldens under
//!   `results/`;
//! * folding the event stream reproduces the aggregate energy/latency
//!   models (the `attribution` experiment's 1% bound — exactly 0 in
//!   practice);
//! * configuration JSON round-trips across crates;
//! * the builder + prelude public API works end to end.

use std::path::Path;

use bfree::prelude::*;
use bfree_experiments as exp;
use bfree_obs::Unit;
use bfree_serve::prelude::{SchedPolicy, ServeConfig, ServingSim, TenantSpec};
use pim_nn::request::NetworkKind;
use proptest::prelude::*;

#[test]
fn null_recorder_csvs_match_checked_in_goldens() {
    let dir = std::env::temp_dir().join("bfree_obs_golden_check");
    let written = exp::csv::write_all(&dir).expect("csv export succeeds");
    let golden_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../results");
    assert!(
        written.len() >= 10,
        "expected a full export, got {written:?}"
    );
    for name in &written {
        let fresh = std::fs::read_to_string(dir.join(name)).expect("fresh csv readable");
        let golden = std::fs::read_to_string(golden_dir.join(name))
            .unwrap_or_else(|e| panic!("golden results/{name} missing: {e}"));
        assert_eq!(
            fresh, golden,
            "results/{name} diverged from the regenerated export"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn event_stream_attribution_matches_aggregates_within_tolerance() {
    let result = exp::attribution::run().expect("attribution runs");
    let worst = result.max_relative_error();
    assert!(
        worst <= exp::attribution::TOLERANCE,
        "attribution divergence {worst:.2e}"
    );
    // The construction is order-exact, so the bound is not merely met —
    // the two accounting paths agree bit for bit.
    assert_eq!(worst, 0.0);
}

#[test]
fn bfree_config_json_round_trips_through_text() {
    let config = BfreeConfig::builder()
        .memory(MemoryTech::hbm())
        .conv_dataflow(ConvDataflow::Im2col)
        .build()
        .expect("valid config");
    let text = config.to_json_string();
    let back = BfreeConfig::from_json_str(&text).expect("round-trip parses");
    assert_eq!(back, config);
    // A recorded run under the deserialized config matches the original.
    let net = networks::lstm_timit();
    let a = BfreeSimulator::new(config).run(&net, 1);
    let b = BfreeSimulator::new(back).run(&net, 1);
    assert_eq!(
        a.total_latency().nanoseconds().to_bits(),
        b.total_latency().nanoseconds().to_bits()
    );
}

#[test]
fn serve_config_json_round_trips_and_drives_identically() {
    let config = ServeConfig::builder()
        .policy(SchedPolicy::Sjf)
        .max_batch(4)
        .batch_window_ns(100_000)
        .timeout_ns(Some(20_000_000))
        .build()
        .expect("valid serve config");
    let back = ServeConfig::from_json_str(&config.to_json_string()).expect("round-trip parses");
    assert_eq!(back, config);

    let drive = |config: ServeConfig| {
        let specs = vec![TenantSpec::new("lstm", NetworkKind::LstmTimit)];
        let mut sim = ServingSim::new(config, specs).expect("sim builds");
        for i in 0..10 {
            sim.submit(0, i * 25_000);
        }
        sim.run_to_idle().csv_rows().join("\n")
    };
    assert_eq!(drive(config), drive(back));
}

#[test]
fn builder_and_prelude_cover_the_quickstart_path() {
    // Everything below resolves through the two preludes alone.
    let config = BfreeConfig::builder().build().expect("defaults validate");
    let sim = BfreeSimulator::new(config);
    let recorder = AggRecorder::new();
    let report = sim.run_recorded(&networks::lstm_timit(), 1, &recorder);
    assert!(report.total_latency().nanoseconds() > 0.0);
    let energy: f64 = recorder.energy_by_component().values().sum();
    assert_eq!(
        energy.to_bits(),
        report.energy.total().picojoules().to_bits()
    );
}

#[test]
fn serving_recorder_exports_a_chrome_loadable_trace() {
    use bfree_obs::{to_chrome_trace, JsonValue, RingRecorder};

    let mut sim = ServingSim::with_recorder(
        ServeConfig::paper_default(),
        vec![TenantSpec::new("lstm", NetworkKind::LstmTimit)],
        RingRecorder::new(8192),
    )
    .expect("sim builds");
    for i in 0..5 {
        sim.submit(0, i * 50_000);
    }
    sim.run_to_idle();
    let events = sim.recorder().events();
    assert!(!events.is_empty());
    let trace = to_chrome_trace(&events).to_string();
    let parsed = JsonValue::parse(&trace).expect("trace is valid JSON");
    let entries = parsed
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents array");
    assert!(entries.len() >= events.len());
}

proptest! {
    /// Every sketch quantile lies within the recorded `[min, max]`: the
    /// log2 bucket edge is an upper bound on the bucket, not a value
    /// that was ever observed, so it must never escape the extrema.
    #[test]
    fn approx_percentiles_stay_within_min_and_max(
        exponents in proptest::collection::vec(-2.0f64..30.0, 1..200),
        p in 0.0f64..100.0,
    ) {
        // Log-uniform values spread the samples over many buckets.
        let rec = AggRecorder::new();
        for &e in &exponents {
            rec.histogram(Subsystem::Serve, "lat", e.exp2(), Unit::Nanoseconds);
        }
        let entry = &rec.snapshot()[0];
        for q in [p, 50.0, 95.0, 99.0, 100.0] {
            let got = entry.approx_percentile(q);
            prop_assert!(
                (entry.min..=entry.max).contains(&got),
                "p{q} = {got} outside [{}, {}]",
                entry.min,
                entry.max
            );
        }
    }
}
