//! The SEM benchmark: three seeded workloads against the real
//! `TcpSemServer` / `SemCluster` over loopback, on the paper's 512-bit
//! parameters, in one process.
//!
//! ```text
//! sembench --workload <token_hot|sign_churn|quorum_decrypt> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`, with
//! the end-to-end metrics when `--trace 0` and the per-layer metrics
//! when `--trace 1`. Lines before it start with `#`: provenance, notes
//! and (traced `token_hot`) the token path side by side. Each result is
//! also written with its provenance under `out/`, and a traced run
//! writes its spans there. See README.md for the workloads and metrics.

mod common;
mod inputs;
mod layers;
mod loadgen;
mod phases;
mod probe;
mod quorum;
mod sign_churn;
mod stats;
mod token_hot;
mod trace;

use common::{Report, Run, Scale};
use std::path::{Path, PathBuf};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    TokenHot,
    SignChurn,
    QuorumDecrypt,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "token_hot" => Some(Workload::TokenHot),
            "sign_churn" => Some(Workload::SignChurn),
            "quorum_decrypt" => Some(Workload::QuorumDecrypt),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::TokenHot => "token_hot",
            Workload::SignChurn => "sign_churn",
            Workload::QuorumDecrypt => "quorum_decrypt",
        }
    }

    fn run(self, run: &Run) -> Result<Report, String> {
        match self {
            Workload::TokenHot => token_hot::run(run),
            Workload::SignChurn => sign_churn::run(run),
            Workload::QuorumDecrypt => quorum::run(run),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: sembench --workload <token_hot|sign_churn|quorum_decrypt> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value {value:?} for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(1.0..=600.0).contains(&s) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?,
        seed: seed.ok_or_else(|| format!("--seed is required\n{USAGE}"))?,
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

/// The commit the benchmark was built from, read from the repository's
/// `.git` when there is one (a source export has none).
fn git_commit(repo: &Path) -> String {
    let git = repo.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (hash, name) = line.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn provenance(args: &Args, repo: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"params\": \"paper_512_160\", \"server_config\": \"default\", \"git_commit\": \"{}\", \
         \"profile\": \"{}\", \"lockdep\": {}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        git_commit(repo),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        sempair_core::lockdep::enabled(),
    )
}

/// The result object: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
fn result_json(report: &Report, trace: bool) -> Result<String, String> {
    let metrics = if trace {
        &report.layers
    } else {
        &report.metrics
    };
    let mut rows = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not a number: {}", m.name, m.value));
        }
        rows.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        rows.join(", ")
    ))
}

fn real_main() -> Result<i32, String> {
    let args = parse_args(std::env::args().skip(1))?;
    if sempair_core::lockdep::enabled() {
        return Err(
            "refusing to run: built with the lockdep feature, which adds bookkeeping \
                    to every lock acquisition"
                .to_string(),
        );
    }
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let repo = bench_dir.parent().unwrap_or(bench_dir);
    let out_dir = bench_dir.join("out");
    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: Scale::full(),
        state_dir: out_dir.join(format!("state-{tag}-{}", std::process::id())),
        plant_wrong: false,
    };
    std::fs::create_dir_all(&run.state_dir).map_err(|e| format!("state dir: {e}"))?;
    let outcome = args.workload.run(&run);
    let _ = std::fs::remove_dir_all(&run.state_dir);
    let mut report = outcome?;

    let provenance = provenance(&args, repo);
    println!("# provenance {provenance}");
    for note in &report.notes {
        println!("# {note}");
    }
    if let Some(tracer) = report.tracer.take() {
        let path: PathBuf = out_dir.join(format!("spans-{tag}.json"));
        tracer
            .write_json(&path)
            .map_err(|e| format!("writing spans: {e}"))?;
        println!("# wrote {} spans to {}", tracer.len(), path.display());
    }
    let result = result_json(&report, args.trace)?;
    std::fs::write(
        out_dir.join(format!("result-{tag}.json")),
        format!("{{\"provenance\": {provenance}, \"result\": {result}}}\n"),
    )
    .map_err(|e| format!("writing result: {e}"))?;
    println!("{result}");
    Ok(if report.correct { 0 } else { 1 })
}

fn main() {
    match real_main() {
        Ok(code) => std::process::exit(code),
        Err(message) => {
            eprintln!("sembench: {message}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small `token_hot` that still meets every percentile rule:
    /// 1,200-odd open-loop samples in 4 s.
    fn small_run(plant_wrong: bool, tag: &str) -> Run {
        Run {
            seed: 11,
            seconds: 4.0,
            trace: false,
            scale: Scale {
                token_ids: 64,
                u_pool: 4,
                token_setups: 1,
                token_rate: 600.0,
                light_revocations: 100,
                verify_sample: 8,
            },
            state_dir: std::env::temp_dir()
                .join(format!("sembench-selftest-{tag}-{}", std::process::id())),
            plant_wrong,
        }
    }

    #[test]
    fn a_planted_wrong_expected_value_fails_the_run() {
        let clean = token_hot::run(&small_run(false, "clean")).expect("clean run");
        assert!(clean.correct, "{:?}", clean.notes);
        assert_eq!(clean.failed, 0);
        let planted = token_hot::run(&small_run(true, "planted")).expect("planted run");
        assert!(!planted.correct, "a wrong expected token must fail the run");
        assert_eq!(planted.failed, 1);
        let json = result_json(&planted, false).unwrap();
        assert!(json.starts_with("{\"correct\": false,"), "{json}");
    }

    /// Keys, `U` points, signer keys and ciphertexts: one seed gives
    /// byte-identical inputs, two seeds give different ones.
    fn input_bytes(seed: u64) -> Vec<u8> {
        let tokens = token_hot::TokenInputs::generate(seed, 4, 2, 3);
        let curve = tokens.params.curve();
        let mut out = curve.point_to_bytes(tokens.params.p_pub());
        for key in &tokens.keys {
            out.extend(key.id.as_bytes());
            out.extend(curve.point_to_bytes(&key.point));
        }
        tokens.u_bytes.iter().for_each(|u| out.extend(u));
        let signers = sign_churn::SignInputs::generate(seed, 3);
        for user in &signers.users {
            out.extend(user.to_bytes(curve));
        }
        let quorum = quorum::QuorumInputs::generate(seed, 2, 3, 1);
        for (id, ciphertext, plaintext) in &quorum.ciphertexts {
            out.extend(id.as_bytes());
            out.extend(ciphertext.to_bytes(quorum.pkg.params()));
            out.extend(plaintext);
        }
        out
    }

    #[test]
    fn seeded_inputs_repeat_exactly() {
        assert_eq!(input_bytes(5), input_bytes(5));
        assert_ne!(input_bytes(5), input_bytes(6));
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let ok = args("--workload sign_churn --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(ok.workload, Workload::SignChurn);
        assert_eq!((ok.seed, ok.seconds, ok.trace), (3, 10.0, true));
        assert!(args("--workload nope --seed 3").is_err());
        assert!(args("--seed 3").is_err());
        assert!(args("--workload token_hot --seed 3 --trace 2").is_err());
        assert!(args("--workload token_hot --seed 3 --bogus 1").is_err());
    }
}
