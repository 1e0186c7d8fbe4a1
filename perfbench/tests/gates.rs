//! Tests of the benchmark itself: seeds move inputs but not verdicts,
//! the traced replay is bit-identical to the untraced pass, the golden
//! gate catches a one-byte change, and the realtime configuration
//! completes every request.

use std::fs;
use std::path::PathBuf;

use perfbench::eval_regen::{self, CSVS};
use perfbench::spans::Spans;
use perfbench::{golden_dir, lut_infer, model_reload, serve_oracle, serve_rt, Outcome, Setup};

/// 50 ms of virtual time: ~100 requests, enough to exercise both
/// tenants while keeping the test quick.
const SHORT_NS: u64 = 50_000_000;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("temporary directory");
    dir
}

/// Sets `inputs` up and runs two untraced ops and one traced op.
fn run_ops(inputs: &dyn Setup) -> Outcome {
    let mut off = Spans::disabled();
    let (mut workload, _) = inputs.setup(&mut off).expect("set-up passes its gates");
    let first = workload.op(&mut off).expect("first op passes its gates");
    let again = workload.op(&mut off).expect("second op passes its gates");
    assert_eq!(first, again, "ops of one seed repeat");
    let mut spans = Spans::new();
    spans.next_op();
    workload.op(&mut spans).expect("traced op passes its gates");
    assert!(!spans.spans().is_empty(), "the traced op recorded spans");
    first
}

#[test]
fn a_different_seed_changes_the_inputs_but_not_the_verdicts() {
    let (a, b) = (
        serve_rt::Inputs::with_horizon(1, SHORT_NS),
        serve_rt::Inputs::with_horizon(2, SHORT_NS),
    );
    assert_ne!(
        format!("{:?}", a.trace().events()),
        format!("{:?}", b.trace().events()),
        "seeds 1 and 2 generate different traces"
    );
    run_ops(&a);
    run_ops(&b);

    let oracle_a = run_ops(&serve_oracle::Inputs::with_horizon(1, SHORT_NS));
    let oracle_b = run_ops(&serve_oracle::Inputs::with_horizon(2, SHORT_NS));
    assert_ne!(
        oracle_a, oracle_b,
        "seeds 1 and 2 offer different request counts"
    );

    let (a, b) = (
        lut_infer::Inputs::generate(1).expect("seed 1 passes the reference gate"),
        lut_infer::Inputs::generate(2).expect("seed 2 passes the reference gate"),
    );
    assert_ne!(a.inputs()[0].data(), b.inputs()[0].data());
    run_ops(&a);
    run_ops(&b);

    let (a, b) = (
        model_reload::Inputs::generate(1),
        model_reload::Inputs::generate(2),
    );
    assert_ne!(
        a.next().bytes(),
        b.next().bytes(),
        "seeds 1 and 2 reload different weights"
    );
    run_ops(&a);
    run_ops(&b);
}

#[test]
fn the_layer_by_layer_replay_equals_run_sequential_lut() {
    let inputs = lut_infer::Inputs::generate(lut_infer::DEFAULT_SEED).expect("inputs");
    let (mut workload, _) = inputs.setup(&mut Spans::disabled()).expect("set-up");
    // Every op compares its output bit for bit with `run_sequential_lut`'s
    // on the same input; a traced op takes the layer-by-layer replay.
    let mut spans = Spans::new();
    for _ in 0..lut_infer::POOL {
        spans.next_op();
        workload.op(&mut spans).expect("replay is bit-identical");
    }
    for layer in [
        "nn.conv1",
        "nn.conv2",
        "nn.fc",
        "nn.pool",
        "nn.act",
        "nn.softmax",
    ] {
        assert_eq!(
            spans.self_ms(layer).len(),
            lut_infer::POOL,
            "{layer} timed once per op"
        );
    }
}

#[test]
fn a_one_byte_change_fails_the_golden_comparison() {
    let goldens = eval_regen::load_goldens(&golden_dir()).expect("goldens load");
    let dir = tmp_dir("golden-altered");
    let name = "chaos.csv";
    let mut bytes = fs::read(golden_dir().join(name)).expect("golden");
    fs::write(dir.join(name), &bytes).expect("copy");
    eval_regen::compare(&dir, &goldens, &[name]).expect("an exact copy passes");

    let at = bytes.len() / 2;
    bytes[at] ^= 0x01;
    fs::write(dir.join(name), &bytes).expect("altered copy");
    let failure = eval_regen::compare(&dir, &goldens, &[name]).expect_err("one altered byte fails");
    assert_eq!(failure.check, "eval-regen.golden");
    assert!(
        failure.detail.contains(&format!("at byte {at}")),
        "{failure}"
    );
}

#[test]
fn regeneration_matches_every_golden() {
    let inputs = eval_regen::Inputs {
        golden_dir: golden_dir(),
        dir: tmp_dir("regen").join("out"),
    };
    let (mut workload, _) = inputs.setup(&mut Spans::disabled()).expect("goldens load");
    assert_eq!(CSVS.len(), 13);
    workload
        .op(&mut Spans::disabled())
        .expect("all 13 CSVs match");
}

#[test]
fn the_realtime_config_completes_every_request_on_a_short_trace() {
    let inputs = serve_rt::Inputs::with_horizon(serve_rt::DEFAULT_SEED, SHORT_NS);
    let outcome = run_ops(&inputs);
    assert_eq!(outcome.attempted, inputs.trace().submissions());
    assert!(outcome.attempted > 0);
    assert_eq!(
        outcome.completed, outcome.attempted,
        "completed_frac is 1.0"
    );
}
