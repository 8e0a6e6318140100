//! Seeded inputs. Everything the server receives — identities, keys,
//! `U` points, messages, ciphertexts, arrival times and the revocation
//! schedule — is a pure function of the workload seed.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use sempair_net::proto::{Op, Request};
use sempair_net::scenario::{ident, Zipf};
use std::time::Duration;

/// Independent generator for one purpose (`tag`) under one seed:
/// splitmix64 of the pair, so neighbouring seeds and tags do not
/// produce related streams.
pub fn rng(seed: u64, tag: u64) -> StdRng {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// A generator for one named item (an identity's key, say), so items
/// can be generated in any order or on any thread.
pub fn rng_for(seed: u64, tag: u64, name: &str) -> StdRng {
    let fnv = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    });
    rng(seed ^ fnv, tag)
}

/// `f` over `items` on two threads, results in order. Input generation
/// is not measured; this only shortens a run.
pub fn parallel_map<I: Sync, T: Send>(items: &[I], f: impl Fn(&I) -> T + Sync) -> Vec<T> {
    let half = items.len().div_ceil(2).max(1);
    let f = &f;
    std::thread::scope(|scope| {
        let parts: Vec<_> = items
            .chunks(half)
            .map(|chunk| scope.spawn(move || chunk.iter().map(f).collect::<Vec<T>>()))
            .collect();
        parts
            .into_iter()
            .flat_map(|part| part.join().expect("input generation thread"))
            .collect()
    })
}

/// Tags naming the seeded streams.
pub mod tag {
    pub const PKG: u64 = 1;
    pub const KEYS: u64 = 2;
    pub const U_POOL: u64 = 3;
    pub const ARRIVALS: u64 = 4;
    pub const STREAM: u64 = 5;
    pub const CHURN: u64 = 6;
    pub const SAMPLE: u64 = 7;
    pub const CIPHERTEXTS: u64 = 8;
    pub const ENROLL: u64 = 9;
    pub const PROBE: u64 = 10;
}

/// Poisson arrival offsets at `rate` per second over `span`.
pub fn poisson_offsets(seed: u64, rate: f64, span: Duration) -> Vec<Duration> {
    let mut rng = rng(seed, tag::ARRIVALS);
    let mut offsets = Vec::with_capacity((rate * span.as_secs_f64() * 1.1) as usize + 16);
    let mut at = 0.0f64;
    loop {
        // Uniform in (0, 1]: never ln(0).
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        at += -(1.0 - u).ln() / rate;
        if at >= span.as_secs_f64() {
            return offsets;
        }
        offsets.push(Duration::from_secs_f64(at));
    }
}

/// What one request asks for, before encoding. Kept so replies can be
/// checked against the exact input that produced them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ask {
    /// An IBE token for identity rank `rank` on pooled point `u`.
    Token { rank: usize, u: usize },
    /// A half-signature for signer `rank` on a 64-byte message.
    Sign { rank: usize, message: Vec<u8> },
}

impl Ask {
    pub fn rank(&self) -> usize {
        match self {
            Ask::Token { rank, .. } | Ask::Sign { rank, .. } => *rank,
        }
    }

    /// The wire request the server receives for this ask.
    pub fn request(&self, u_pool: &[Vec<u8>]) -> Request {
        match self {
            Ask::Token { rank, u } => Request {
                op: Op::IbeToken,
                id: ident(*rank),
                body: u_pool[*u].clone(),
            },
            Ask::Sign { rank, message } => Request {
                op: Op::GdhHalfSign,
                id: ident(*rank),
                body: message.clone(),
            },
        }
    }
}

/// One seeded request stream: Zipf(s = 1) identity ranks, plus a pooled
/// `U` point (tokens) or a unique 64-byte message (signatures).
pub struct Stream {
    rng: StdRng,
    zipf: Zipf,
    kind: Op,
    u_pool: usize,
    stream_id: u64,
    next: u64,
}

impl Stream {
    /// Stream number `stream_id` of a workload: the open-loop phase and
    /// each saturation connection draw from their own stream.
    pub fn new(seed: u64, stream_id: u64, kind: Op, ranks: usize, u_pool: usize) -> Self {
        Stream {
            rng: rng(
                seed ^ stream_id.wrapping_mul(0xA24B_AED4_963E_E407),
                tag::STREAM,
            ),
            zipf: Zipf::new(ranks),
            kind,
            u_pool,
            stream_id,
            next: 0,
        }
    }

    pub fn next_ask(&mut self) -> Ask {
        let rank = self.zipf.sample(&mut self.rng);
        let index = self.next;
        self.next += 1;
        match self.kind {
            Op::IbeToken => Ask::Token {
                rank,
                u: (self.rng.next_u64() % self.u_pool as u64) as usize,
            },
            _ => {
                // Stream and index make every message unique; the
                // random tail makes it look like a document digest.
                let mut message = Vec::with_capacity(64);
                message.extend_from_slice(&self.stream_id.to_be_bytes());
                message.extend_from_slice(&index.to_be_bytes());
                while message.len() < 64 {
                    message.extend_from_slice(&self.rng.next_u64().to_be_bytes());
                }
                Ask::Sign { rank, message }
            }
        }
    }
}

/// One revocation of the churn schedule: `target` is revoked at `at`
/// and reinstated `hold` later.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Revocation {
    pub at: Duration,
    pub target: String,
}

/// A fixed-rate revocation schedule over `span`, cycling through a
/// seeded permutation of `targets` (long enough that an identity is
/// always reinstated before it comes round again).
pub fn churn_schedule(
    seed: u64,
    targets: &[String],
    period: Duration,
    span: Duration,
) -> Vec<Revocation> {
    let mut order: Vec<usize> = (0..targets.len()).collect();
    let mut rng = rng(seed, tag::CHURN);
    for i in (1..order.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    let count = (span.as_secs_f64() / period.as_secs_f64()) as usize;
    (0..count)
        .map(|k| Revocation {
            at: period * k as u32,
            target: targets[order[k % order.len()]].clone(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sempair_net::proto::encode_request;

    /// The bytes the server would receive on the open-loop connection
    /// plus the arrival and revocation schedules, for a token and a
    /// signing stream.
    fn stream_bytes(seed: u64) -> Vec<u8> {
        let u_pool: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 65]).collect();
        let mut out = Vec::new();
        for kind in [Op::IbeToken, Op::GdhHalfSign] {
            let mut stream = Stream::new(seed, 0, kind, 2048, u_pool.len());
            for _ in 0..256 {
                out.extend(encode_request(&stream.next_ask().request(&u_pool)).unwrap());
            }
        }
        for offset in poisson_offsets(seed, 500.0, Duration::from_secs(1)) {
            out.extend(offset.as_nanos().to_be_bytes());
        }
        let targets: Vec<String> = (0..32).map(ident).collect();
        for event in churn_schedule(
            seed,
            &targets,
            Duration::from_millis(10),
            Duration::from_secs(1),
        ) {
            out.extend(event.at.as_nanos().to_be_bytes());
            out.extend(event.target.as_bytes());
        }
        out
    }

    #[test]
    fn one_seed_gives_one_request_stream() {
        assert_eq!(stream_bytes(7), stream_bytes(7));
        assert_ne!(stream_bytes(7), stream_bytes(8));
    }

    #[test]
    fn messages_are_unique_and_64_bytes() {
        let mut stream = Stream::new(1, 3, Op::GdhHalfSign, 16, 1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let Ask::Sign { message, .. } = stream.next_ask() else {
                unreachable!()
            };
            assert_eq!(message.len(), 64);
            assert!(seen.insert(message));
        }
    }

    #[test]
    fn poisson_rate_is_close_to_target() {
        let n = poisson_offsets(3, 400.0, Duration::from_secs(10)).len();
        assert!((3700..4300).contains(&n), "{n} arrivals");
    }
}
