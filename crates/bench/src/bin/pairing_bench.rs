//! Pairing-path microbenchmarks: fixed-width backend vs the bigint
//! reference, on the paper's 512-bit parameters, plus the client side
//! of one (2, 3) quorum token.
//!
//! Run with `cargo run --release -p sempair-bench --bin pairing_bench`.
//! Prints a markdown summary to stdout and writes `BENCH_pairing.json`
//! to the current directory with a stable schema:
//!
//! ```json
//! {
//!   "schema": "sempair-bench-pairing/1",
//!   "params": "paper_512_160",
//!   "results": [{"name": "...", "median_us": 0.0, "min_us": 0.0, "iters": 0}],
//!   "speedups": {"pairing_single": 0.0, "gdh_batch_verify_32": 0.0}
//! }
//! ```
//!
//! `results` names are append-only; `speedups` keys are the two
//! acceptance targets (single pairing ≥ 5×, 32-signature GDH batch
//! ≥ 8×) plus same-host ratios, among them `subgroup_check_vs_mul_r`,
//! the membership test's cost as a fraction of the `[r]P` it replaced
//! (target ≤ 0.6).

use rand::rngs::StdRng;
use rand::SeedableRng;
use sempair_bench::report::{markdown_table, time, Timing};
use sempair_core::gdh;
use sempair_core::threshold::{DecryptionShare, ShareVerifier, ThresholdPkg};
use sempair_pairing::{CurveParams, G1Affine};

struct Entry {
    name: &'static str,
    timing: Timing,
}

fn record(results: &mut Vec<Entry>, name: &'static str, timing: Timing) -> Timing {
    results.push(Entry { name, timing });
    timing
}

fn main() {
    let fast = CurveParams::paper_default();
    assert!(
        fast.fp().has_fixed_backend(),
        "paper params must activate the fixed-width backend"
    );
    let mut slow = CurveParams::paper_default();
    slow.force_bigint_backend();

    let mut rng = StdRng::seed_from_u64(20030725);
    let mut results: Vec<Entry> = Vec::new();

    // Shared inputs (generated on the fast context; points are
    // backend-independent).
    let p = fast.mul_generator(&fast.random_scalar(&mut rng));
    let q = fast.mul_generator(&fast.random_scalar(&mut rng));
    let pts: Vec<(G1Affine, G1Affine)> = (0..8)
        .map(|_| {
            (
                fast.mul_generator(&fast.random_scalar(&mut rng)),
                fast.mul_generator(&fast.random_scalar(&mut rng)),
            )
        })
        .collect();
    let pairs: Vec<(&G1Affine, &G1Affine)> = pts.iter().map(|(a, b)| (a, b)).collect();

    // --- single pairing --------------------------------------------------
    let single_new = record(
        &mut results,
        "pairing_single_fixed",
        time(3, 15, || fast.pairing(&p, &q)),
    );
    let single_old = record(
        &mut results,
        "pairing_single_bigint",
        time(1, 9, || slow.pairing(&p, &q)),
    );

    // --- prepared pairing (fixed first argument) -------------------------
    let prep = fast.prepare_g1(&p);
    let prepared_new = record(
        &mut results,
        "pairing_prepared_fixed",
        time(3, 15, || fast.pairing_prepared(&prep, &q)),
    );

    // --- 8-way multi-pairing vs 8 singles --------------------------------
    let multi_new = record(
        &mut results,
        "multi_pairing_8_fixed",
        time(2, 9, || fast.multi_pairing(&pairs)),
    );
    let eight_singles = record(
        &mut results,
        "pairing_8_singles_fixed",
        time(1, 9, || {
            let mut acc = fast.gt_one();
            for (a, b) in &pairs {
                acc = fast.gt_mul(&acc, &fast.pairing(a, b));
            }
            acc
        }),
    );

    // --- 32-signature GDH batch verification -----------------------------
    let (sk, pk) = gdh::keygen(&mut rng, &fast);
    let messages: Vec<Vec<u8>> = (0..32u32)
        .map(|i| format!("benchmark message {i}").into_bytes())
        .collect();
    let sigs: Vec<gdh::Signature> = messages.iter().map(|m| gdh::sign(&fast, &sk, m)).collect();
    let entries: Vec<(&[u8], &gdh::Signature)> = messages
        .iter()
        .map(Vec::as_slice)
        .zip(sigs.iter())
        .collect();
    let batch_new = record(
        &mut results,
        "gdh_batch_verify_32_fixed",
        time(1, 9, || gdh::batch_verify(&fast, &pk, &entries).unwrap()),
    );
    let batch_old = record(
        &mut results,
        "gdh_batch_verify_32_bigint",
        time(1, 5, || gdh::batch_verify(&slow, &pk, &entries).unwrap()),
    );
    // The batch acceptance target compares against the pre-batch shape:
    // 32 individual verifications, one pairing equation each.
    let indiv_new = record(
        &mut results,
        "gdh_verify_32_individual_fixed",
        time(1, 5, || {
            for (m, s) in &entries {
                gdh::verify(&fast, &pk, m, s).unwrap();
            }
        }),
    );
    let indiv_old = record(
        &mut results,
        "gdh_verify_32_individual_bigint",
        time(0, 3, || {
            for (m, s) in &entries {
                gdh::verify(&slow, &pk, m, s).unwrap();
            }
        }),
    );

    // --- (2, 3) quorum client: verify every partial, then combine --------
    // What `QuorumClient::token` does per token once the identity's
    // verifier is cached: prepare `U`, check the three robust partials
    // of a hedged (2, 3) wave, Lagrange-combine the first two.
    let tpkg = ThresholdPkg::setup(&mut rng, fast.clone(), 2, 3).unwrap();
    let sys = tpkg.system();
    let tct = sys.params().encrypt_basic(&mut rng, "vault", b"quorum");
    let partials: Vec<DecryptionShare> = tpkg
        .keygen("vault")
        .iter()
        .map(|ks| sys.decryption_share_robust(&mut rng, ks, &tct.u))
        .collect();
    let verifier = ShareVerifier::new(sys, "vault");
    record(
        &mut results,
        "threshold_quorum_verify_2of3_fixed",
        time(2, 15, || {
            let check = verifier.for_ciphertext(sys, &tct.u);
            for partial in &partials {
                check.verify(partial).unwrap();
            }
            sys.combine_token(&partials).unwrap()
        }),
    );

    // --- decoding U and its subgroup check --------------------------------
    // The membership test `[r]P = O` against the full `[r]P` it
    // replaced; the checked decode runs the test once after the square
    // root, the token decode not at all.
    let mul_r = record(
        &mut results,
        "mul_r_fixed",
        time(5, 51, || fast.mul(fast.order(), &q).is_infinity()),
    );
    let subgroup = record(
        &mut results,
        "subgroup_check_fixed",
        time(5, 51, || fast.is_in_group(&q)),
    );
    let q_bytes = fast.point_to_bytes(&q);
    record(
        &mut results,
        "point_decode_fixed",
        time(5, 51, || fast.point_from_bytes(&q_bytes).unwrap()),
    );
    // The wire token's decode: the same minus the subgroup check,
    // which its pairing makes redundant (`r ∤ h` on this set).
    record(
        &mut results,
        "point_decode_token_fixed",
        time(5, 51, || {
            fast.point_from_bytes_for_pairing(&q_bytes).unwrap()
        }),
    );
    let subgroup_ratio = subgroup.micros() / mul_r.micros();

    // --- summary ---------------------------------------------------------
    // The issue's single-pairing target is stated against the recorded
    // seed baseline (EXPERIMENTS.md E5: 5.3 ms per pairing at 512-bit
    // p, measured before the shared Miller kernels landed). The live
    // bigint backend on this machine also benefits from the kernel
    // rewrite, so both ratios are reported.
    const RECORDED_BASELINE_US: f64 = 5300.0;
    let single_speedup = RECORDED_BASELINE_US / single_new.micros();
    let single_live_speedup = single_old.micros() / single_new.micros();
    // Batch target: new batch path vs the old shape (individual
    // verifies on the bigint backend); same-backend ratio alongside.
    let batch_speedup = indiv_old.micros() / batch_new.micros();
    let batch_live_speedup = indiv_new.micros() / batch_new.micros();
    let batch_backend_speedup = batch_old.micros() / batch_new.micros();

    println!("# pairing benchmark (paper_512_160)\n");
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|e| {
            vec![
                e.name.to_string(),
                format!("{:.1}", e.timing.micros()),
                format!("{:.1}", e.timing.min.as_secs_f64() * 1e6),
                e.timing.iters.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        markdown_table(&["benchmark", "median (µs)", "min (µs)", "iters"], &rows)
    );
    println!(
        "single pairing speedup vs recorded 5.3 ms baseline: {single_speedup:.1}x (target >= 5x)"
    );
    println!("single pairing speedup vs live bigint backend: {single_live_speedup:.1}x");
    println!(
        "32-sig GDH batch vs 32 individual bigint verifies: {batch_speedup:.1}x (target >= 8x)"
    );
    println!(
        "32-sig GDH batch vs 32 individual fixed verifies: {batch_live_speedup:.1}x; \
         vs bigint batch: {batch_backend_speedup:.1}x"
    );
    println!("subgroup check / [r]P: {subgroup_ratio:.2} (target <= 0.6)");
    println!(
        "prepared vs single: {:.1}x, multi(8) vs 8 singles: {:.1}x",
        single_new.micros() / prepared_new.micros(),
        eight_singles.micros() / multi_new.micros()
    );

    // --- JSON artifact ---------------------------------------------------
    let mut json = String::from("{\n  \"schema\": \"sempair-bench-pairing/1\",\n");
    json.push_str("  \"params\": \"paper_512_160\",\n  \"results\": [\n");
    for (i, e) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"median_us\": {:.2}, \"min_us\": {:.2}, \"iters\": {}}}{}\n",
            e.name,
            e.timing.micros(),
            e.timing.min.as_secs_f64() * 1e6,
            e.timing.iters,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"recorded_baseline\": {{\"pairing_single_us\": {RECORDED_BASELINE_US:.1}, \"source\": \"EXPERIMENTS.md E5 seed measurement\"}},\n"
    ));
    json.push_str("  \"speedups\": {\n");
    json.push_str(&format!(
        "    \"pairing_single\": {single_speedup:.2},\n    \"pairing_single_vs_live_bigint\": {single_live_speedup:.2},\n    \"gdh_batch_verify_32\": {batch_speedup:.2},\n    \"gdh_batch_vs_individual_fixed\": {batch_live_speedup:.2},\n    \"gdh_batch_vs_bigint_batch\": {batch_backend_speedup:.2},\n    \"subgroup_check_vs_mul_r\": {subgroup_ratio:.2}\n"
    ));
    json.push_str("  }\n}\n");
    std::fs::write("BENCH_pairing.json", &json).expect("write BENCH_pairing.json");
    eprintln!("wrote BENCH_pairing.json");
}
