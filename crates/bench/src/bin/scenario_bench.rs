//! Scenario runner: the four scripted chaos scenarios from
//! `sempair_net::scenario`, graded against their SLO specs.
//!
//! Run with `cargo run --release -p sempair-bench --bin scenario_bench`
//! (`--smoke` for the CI gate's quick pass; `--seed N` to replay a
//! specific schedule). Writes `BENCH_scenarios.json` to the current
//! directory with a stable schema:
//!
//! ```json
//! {
//!   "schema": "sempair-bench-scenarios/1",
//!   "mode": "smoke",
//!   "seed": 1558712848,
//!   "scenarios": [
//!     {"name": "mass_revocation_storm", "passed": true,
//!      "observation": {...}, "slos": [{"name": "p99_ratio", ...}]}
//!   ],
//!   "all_passed": true,
//!   "all_deterministic_passed": true
//! }
//! ```
//!
//! Per-SLO margins are printed and recorded for every scenario. The
//! **deterministic** objectives (error rate, duplicate executions,
//! cheat events) are the contract — they also gate the library's unit
//! tests. The timing objectives (p99 ratios) are load-sensitive, so
//! `all_passed` is recorded but CI gates only on the schema being
//! present (the `serving_bench` precedent: a loaded host must not turn
//! a perf report into a flaky gate).

use sempair_net::scenario::{run_all, ScenarioConfig, ScenarioOutcome};

fn json_scenario(outcome: &ScenarioOutcome) -> String {
    let slos = outcome
        .slos
        .iter()
        .map(|m| {
            format!(
                "        {{\"name\": \"{}\", \"limit\": {:.4}, \"actual\": {:.4}, \
                 \"margin\": {:.4}, \"pass\": {}, \"timing\": {}}}",
                m.name, m.limit, m.actual, m.margin, m.pass, m.timing
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let obs = &outcome.observation;
    format!(
        "    {{\n      \"name\": \"{}\",\n      \"seed\": {},\n      \
         \"passed\": {},\n      \"deterministic_passed\": {},\n      \
         \"observation\": {{\n        \
         \"quiet_p99_us\": {:.1},\n        \"loaded_p99_us\": {:.1},\n        \
         \"p99_ratio\": {:.3},\n        \"requests\": {},\n        \
         \"failures\": {},\n        \"duplicate_executions\": {},\n        \
         \"cheat_events\": {}\n      }},\n      \"slos\": [\n{}\n      ]\n    }}",
        outcome.name,
        outcome.seed,
        outcome.passed,
        outcome.deterministic_pass(),
        obs.quiet_p99_us,
        obs.loaded_p99_us,
        obs.p99_ratio(),
        obs.requests,
        obs.failures,
        obs.duplicate_executions,
        obs.cheat_events,
        slos
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|arg| arg == "--smoke");
    let seed = args
        .iter()
        .position(|arg| arg == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<u64>().ok());
    let mut config = if smoke {
        ScenarioConfig::smoke()
    } else {
        ScenarioConfig::full()
    };
    if let Some(seed) = seed {
        config.seed = seed;
    }

    println!(
        "# scenario suite ({}) seed={} hot={} requests={} chunk={}",
        if smoke { "smoke" } else { "full" },
        config.seed,
        config.hot,
        config.requests,
        config.rollover_chunk
    );

    let outcomes = match run_all(&config) {
        Ok(outcomes) => outcomes,
        Err(err) => {
            eprintln!("scenario harness failed: {err}");
            std::process::exit(1);
        }
    };

    for outcome in &outcomes {
        println!(
            "\n{} — {} (quiet p99 {:.0} µs, loaded p99 {:.0} µs)",
            outcome.name,
            if outcome.passed { "PASS" } else { "FAIL" },
            outcome.observation.quiet_p99_us,
            outcome.observation.loaded_p99_us
        );
        for m in &outcome.slos {
            println!(
                "  {:<22} {} actual {:>10.4} limit {:>10.4} margin {:>+10.4}{}",
                m.name,
                if m.pass { "ok  " } else { "FAIL" },
                m.actual,
                m.limit,
                m.margin,
                if m.timing { "  (timing, recorded)" } else { "" }
            );
        }
    }

    let all_passed = outcomes.iter().all(|o| o.passed);
    let all_deterministic = outcomes.iter().all(|o| o.deterministic_pass());
    let rows = outcomes
        .iter()
        .map(json_scenario)
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"schema\": \"sempair-bench-scenarios/1\",\n  \"mode\": \"{}\",\n  \
         \"seed\": {},\n  \"scenarios\": [\n{rows}\n  ],\n  \
         \"all_passed\": {all_passed},\n  \
         \"all_deterministic_passed\": {all_deterministic}\n}}\n",
        if smoke { "smoke" } else { "full" },
        config.seed
    );
    std::fs::write("BENCH_scenarios.json", &json).expect("write BENCH_scenarios.json");
    println!("\nwrote BENCH_scenarios.json (all_passed={all_passed})");

    // Deterministic objectives are a hard gate even for the bench
    // binary: a duplicate execution or a cheat event is a correctness
    // bug, not a perf regression.
    if !all_deterministic {
        std::process::exit(1);
    }
}
