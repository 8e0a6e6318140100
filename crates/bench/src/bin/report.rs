//! Regenerates the paper-vs-measured tables recorded in EXPERIMENTS.md.
//!
//! Run with `cargo run --release -p sempair-bench --bin report`.
//! Prints markdown to stdout; redirect to refresh EXPERIMENTS.md data.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sempair_bench::report::{markdown_table, time, Timing};
use sempair_core::bf_ibe::Pkg;
use sempair_core::gdh::{self, GdhSem};
use sempair_core::mediated::Sem;
use sempair_core::threshold::{DecryptionShare, ThresholdPkg};
use sempair_mrsa::ib::IbMrsaSystem;
use sempair_net::audit::AuditConfig;
use sempair_net::revocation::ValidityPeriodPkg;
use sempair_net::tcp::{drive_throughput, ServerConfig, TcpSemServer};
use sempair_net::wire;
use sempair_pairing::CurveParams;
use std::time::Duration;

fn us(t: Timing) -> String {
    format!("{:.1} µs", t.micros())
}

fn ms(t: Timing) -> String {
    format!("{:.2} ms", t.millis())
}

fn main() {
    println!("# sempair experiment report\n");
    println!("Generated by `cargo run --release -p sempair-bench --bin report`.\n");

    let paper_curve = CurveParams::paper_default();
    let mut rng = StdRng::seed_from_u64(20030725);

    // ------------------------------------------------------------------ E1-E3
    println!("## E1 — key material sizes (paper §4: \"512 or even 160 bits … against 1024 for IB-mRSA\")\n");
    let pkg = Pkg::setup(&mut rng, paper_curve.clone());
    let ibe_sizes = wire::mediated_ibe_sizes(pkg.params(), 128);
    let gdh_sizes = wire::mediated_gdh_sizes(&paper_curve);
    let rsa_sizes = wire::ib_mrsa_sizes(1024);
    println!(
        "{}",
        markdown_table(
            &["scheme", "user private key (bits)", "paper claim"],
            &[
                vec![
                    "mediated BF-IBE (compressed point, 512-bit p)".into(),
                    ibe_sizes.user_private.to_string(),
                    "~512".into()
                ],
                vec![
                    "mediated GDH (scalar mod 160-bit r)".into(),
                    gdh_sizes.user_private.to_string(),
                    "~160".into()
                ],
                vec![
                    "IB-mRSA (d_user mod φ(n), 1024-bit n)".into(),
                    rsa_sizes.user_private.to_string(),
                    "1024".into()
                ],
            ],
        )
    );

    println!("## E2 — ciphertext sizes for a 128-byte message\n");
    println!(
        "{}",
        markdown_table(
            &["scheme", "ciphertext (bits)", "note"],
            &[
                vec![
                    "mediated BF-IBE <U,V,W>".into(),
                    ibe_sizes.ciphertext.to_string(),
                    "point + 256-bit σ + |m| (+len)".into()
                ],
                vec![
                    "IB-mRSA-OAEP".into(),
                    rsa_sizes.ciphertext.to_string(),
                    "one modulus-sized block".into()
                ],
            ],
        )
    );

    println!("## E3 — SEM→user bandwidth per operation (paper §5: \"160 bits … with respect to 1024\")\n");
    let ibe_x = wire::mediated_ibe_decrypt(&paper_curve, 16);
    let gdh_x = wire::mediated_gdh_sign(&paper_curve, 16);
    let rsa_x = wire::mrsa_half_op(1024, 16);
    println!(
        "{}",
        markdown_table(
            &[
                "operation",
                "user→SEM (bits)",
                "SEM→user (bits)",
                "paper claim (SEM→user)"
            ],
            &[
                vec![
                    "mediated IBE decrypt token".into(),
                    ibe_x.request.to_string(),
                    ibe_x.response.to_string(),
                    "≈1000".into()
                ],
                vec![
                    "mediated GDH half-signature".into(),
                    gdh_x.request.to_string(),
                    gdh_x.response.to_string(),
                    "160 (on a 160-bit curve)".into()
                ],
                {
                    let short = CurveParams::gdh_short_insecure();
                    let x = wire::mediated_gdh_sign(&short, 16);
                    vec![
                        "mediated GDH half-signature ([6]-sized 176-bit curve)".into(),
                        x.request.to_string(),
                        x.response.to_string(),
                        "160".into(),
                    ]
                },
                vec![
                    "mRSA half-operation".into(),
                    rsa_x.request.to_string(),
                    rsa_x.response.to_string(),
                    "1024".into()
                ],
            ],
        )
    );

    // ------------------------------------------------------------------ E4
    println!("## E4 — encryption cost (paper: IB-mRSA \"significantly more efficient\")\n");
    let msg64 = vec![0xa5u8; 64];
    let t_ibe_512 = time(2, 9, || {
        pkg.params()
            .encrypt_full(&mut rng, "alice", &msg64)
            .unwrap()
    });
    let ib_mrsa_1024 =
        IbMrsaSystem::setup_with_plain_primes(&mut rng, 1024, 160, 32).expect("1024-bit setup");
    let mrsa_params = ib_mrsa_1024.public_params();
    let msg14 = vec![0xa5u8; 14];
    let t_rsa_enc = time(2, 9, || {
        mrsa_params.encrypt(&mut rng, "alice", &msg14).unwrap()
    });
    println!(
        "{}",
        markdown_table(
            &["scheme", "encrypt (median)", "expected shape"],
            &[
                vec![
                    "BF-IBE FullIdent (512-bit p)".into(),
                    ms(t_ibe_512),
                    "slower: 1 pairing + 1 G2 exp + 1 scalar mult".into()
                ],
                vec![
                    "IB-mRSA-OAEP (1024-bit n, ~160-bit e)".into(),
                    ms(t_rsa_enc),
                    "faster: one modexp with short exponent".into()
                ],
            ],
        )
    );

    // ------------------------------------------------------------------ E5
    println!("## E5 — mediated decryption cost per party\n");
    let (alice, alice_sem) = pkg.extract_split(&mut rng, "alice");
    let mut sem = Sem::new();
    sem.install(alice_sem);
    let ct = pkg
        .params()
        .encrypt_full(&mut rng, "alice", &msg64)
        .unwrap();
    let t_sem = time(2, 9, || {
        sem.decrypt_token(pkg.params(), "alice", &ct.u).unwrap()
    });
    let token = sem.decrypt_token(pkg.params(), "alice", &ct.u).unwrap();
    let t_user = time(2, 9, || {
        alice.finish_decrypt(pkg.params(), &ct, &token).unwrap()
    });

    let (rsa_user, rsa_sem_key) = ib_mrsa_1024.keygen(&mut rng, "alice").expect("keygen");
    let mut rsa_sem = ib_mrsa_1024.new_sem();
    rsa_sem.install(rsa_sem_key);
    let rsa_ct = mrsa_params.encrypt(&mut rng, "alice", &msg14).unwrap();
    let t_rsa_sem = time(2, 9, || rsa_sem.half_decrypt("alice", &rsa_ct).unwrap());
    let rsa_token = rsa_sem.half_decrypt("alice", &rsa_ct).unwrap();
    let t_rsa_user = time(2, 9, || {
        rsa_user.finish_decrypt(&rsa_ct, &rsa_token).unwrap()
    });
    println!(
        "{}",
        markdown_table(
            &["scheme", "SEM step", "user step", "shape"],
            &[
                vec![
                    "mediated BF-IBE (512-bit p)".into(),
                    ms(t_sem),
                    ms(t_user),
                    "one pairing each (+FO check user-side)".into()
                ],
                vec![
                    "IB-mRSA (1024-bit n)".into(),
                    ms(t_rsa_sem),
                    ms(t_rsa_user),
                    "one half-modexp each".into()
                ],
            ],
        )
    );

    // ------------------------------------------------------------------ E6
    println!("## E6 — signing cost (paper §5: one scalar mult per side; verify = 2 pairings)\n");
    let (signer, signer_sem, signer_pk) = gdh::mediated_keygen(&mut rng, &paper_curve, "signer");
    let mut gsem = GdhSem::new();
    gsem.install(signer_sem);
    let t_gdh_sem = time(2, 9, || {
        gsem.half_sign(&paper_curve, "signer", b"doc").unwrap()
    });
    let half = gsem.half_sign(&paper_curve, "signer", b"doc").unwrap();
    let t_gdh_user = time(2, 9, || {
        signer.finish_sign(&paper_curve, b"doc", &half).unwrap()
    });
    let sig = signer.finish_sign(&paper_curve, b"doc", &half).unwrap();
    let t_gdh_verify = time(2, 9, || {
        gdh::verify(&paper_curve, &signer_pk, b"doc", &sig).unwrap()
    });

    let t_rsa_half_sign = time(2, 9, || rsa_sem.half_sign("alice", b"doc").unwrap());
    let rsa_sig_token = rsa_sem.half_sign("alice", b"doc").unwrap();
    let t_rsa_finish = time(2, 9, || {
        rsa_user.finish_sign(b"doc", &rsa_sig_token).unwrap()
    });
    let rsa_sig = rsa_user.finish_sign(b"doc", &rsa_sig_token).unwrap();
    let t_rsa_verify = time(2, 9, || {
        mrsa_params.verify("alice", b"doc", &rsa_sig).unwrap()
    });
    println!(
        "{}",
        markdown_table(
            &[
                "scheme",
                "SEM half-sign",
                "user finish(+verify)",
                "public verify"
            ],
            &[
                vec![
                    "mediated GDH (512-bit p)".into(),
                    ms(t_gdh_sem),
                    ms(t_gdh_user),
                    ms(t_gdh_verify)
                ],
                vec![
                    "IB-mRSA FDH (1024-bit n)".into(),
                    ms(t_rsa_half_sign),
                    ms(t_rsa_finish),
                    ms(t_rsa_verify)
                ],
            ],
        )
    );

    // ------------------------------------------------------------------ E7
    println!("## E7 — threshold IBE sweep (t, n = 2t−1), 256-bit test curve\n");
    let fast = CurveParams::fast_insecure();
    let mut rows = Vec::new();
    for t in [2usize, 3, 5, 8] {
        let n = 2 * t - 1;
        let tpkg = ThresholdPkg::setup(&mut rng, fast.clone(), t, n).unwrap();
        let sys = tpkg.system();
        let shares = tpkg.keygen("vault");
        let tct = sys.params().encrypt_basic(&mut rng, "vault", &msg64);
        let t_share = time(1, 5, || sys.decryption_share(&shares[0], &tct.u));
        let t_share_robust = time(1, 5, || {
            sys.decryption_share_robust(&mut rng, &shares[0], &tct.u)
        });
        let plain: Vec<DecryptionShare> = shares
            .iter()
            .map(|ks| sys.decryption_share(ks, &tct.u))
            .collect();
        let t_recombine = time(1, 5, || sys.recombine_basic(&tct, &plain).unwrap());
        let robust: Vec<DecryptionShare> = shares
            .iter()
            .map(|ks| sys.decryption_share_robust(&mut rng, ks, &tct.u))
            .collect();
        let t_rec_robust = time(1, 3, || {
            sys.recombine_basic_robust("vault", &tct, &robust).unwrap()
        });
        rows.push(vec![
            format!("({t}, {n})"),
            us(t_share),
            us(t_share_robust),
            us(t_recombine),
            us(t_rec_robust),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &[
                "(t, n)",
                "share",
                "share+NIZK",
                "recombine",
                "verify-all+recombine"
            ],
            &rows,
        )
    );

    // ------------------------------------------------------------------ E8
    println!("## E8 — revocation: SEM vs validity periods\n");
    let mut rows = Vec::new();
    for n_users in [8usize, 64, 256] {
        let pkg8 = Pkg::setup(&mut rng, fast.clone());
        let mut sem8 = Sem::new();
        for i in 0..n_users {
            let (_, k) = pkg8.extract_split(&mut rng, &format!("u{i}"));
            sem8.install(k);
        }
        let t_revoke = time(2, 9, || {
            sem8.revoke("u0");
            sem8.unrevoke("u0");
        });
        let pkg9 = Pkg::setup(&mut rng, fast.clone());
        let users: Vec<String> = (0..n_users).map(|i| format!("u{i}")).collect();
        let mut vp = ValidityPeriodPkg::new(pkg9, Duration::from_secs(86_400), users);
        let t_epoch = time(0, 3, || vp.rotate_epoch());
        rows.push(vec![
            n_users.to_string(),
            us(t_revoke),
            ms(t_epoch),
            "0 (next request)".into(),
            "up to 1 epoch".into(),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &[
                "users",
                "SEM revoke+unrevoke",
                "VP epoch re-key (all users)",
                "SEM revocation latency",
                "VP revocation latency"
            ],
            &rows,
        )
    );

    // ------------------------------------------------------------------ E9
    println!("## E9 — SEM daemon token throughput (loopback TCP, 256-bit curve)\n");
    let pkg_t = Pkg::setup(&mut rng, fast.clone());
    let (_, load_sem) = pkg_t.extract_split(&mut rng, "load");
    let load_ct = pkg_t
        .params()
        .encrypt_full(&mut rng, "load", &msg64)
        .unwrap();
    // Run the load through a deliberately small audit ring so the
    // report doubles as a check that metering stays bounded and the
    // latency histograms see every request.
    let audit = AuditConfig {
        audit_cap: 256,
        identity_cap: 32,
    };
    let mut rows = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let config = ServerConfig {
            workers,
            audit: audit.clone(),
            ..ServerConfig::default()
        };
        let server = TcpSemServer::bind_with("127.0.0.1:0", pkg_t.params().clone(), config)
            .expect("daemon binds");
        server.install_ibe(load_sem.clone());
        let result = drive_throughput(&server, "load", &load_ct.u, 4, 256, 1)
            .expect("throughput driver failed");
        let metrics = server.metrics();
        let (_, ibe_latency) = &metrics.latency_us[0];
        rows.push(vec![
            workers.to_string(),
            format!("{:.0} tokens/s", result.ops_per_sec()),
            format!("{} µs", ibe_latency.quantile(0.5)),
            format!("{} µs", ibe_latency.quantile(0.95)),
            format!(
                "{}/{} (+{} dropped)",
                metrics.records_len, metrics.audit_cap, metrics.records_dropped
            ),
        ]);
        server.shutdown();
    }
    println!(
        "{}",
        markdown_table(
            &[
                "SEM workers",
                "throughput",
                "token p50",
                "token p95",
                "audit ring"
            ],
            &rows
        )
    );

    // ------------------------------------------------------------------ E11
    println!("## E11 — replicated SEM quorum token latency (t-of-n over TCP, 256-bit curve)\n");
    use sempair_net::cluster::SemCluster;
    let mut rows = Vec::new();
    for n in [3usize, 5, 7] {
        let t = n / 2 + 1;
        for crashed in [0usize, 1] {
            let dir = std::env::temp_dir().join(format!(
                "sempair-bench-e11-{n}-{crashed}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let pkg_q = Pkg::setup(&mut rng, fast.clone());
            let mut cluster =
                SemCluster::start(pkg_q, t, n, Default::default(), &dir).expect("cluster boots");
            cluster.enroll(&mut rng, "vault").unwrap();
            for i in 0..crashed {
                cluster.kill(i);
            }
            let client = cluster.client().unwrap();
            let qct = cluster.params().encrypt_basic(&mut rng, "vault", &msg64);
            // Warm-up: dial every replica and let the client's latency
            // EWMA learn which ones answer (and which are dead).
            for _ in 0..2 {
                client.token("vault", &qct.u).unwrap();
            }
            let mut samples: Vec<Duration> = (0..15)
                .map(|_| {
                    let started = std::time::Instant::now();
                    client.token("vault", &qct.u).unwrap();
                    started.elapsed()
                })
                .collect();
            samples.sort_unstable();
            let p50 = samples[samples.len() / 2];
            let p95 = samples[((samples.len() - 1) as f64 * 0.95).round() as usize];
            rows.push(vec![
                format!("({t}, {n})"),
                crashed.to_string(),
                format!("{:.1} ms", p50.as_secs_f64() * 1e3),
                format!("{:.1} ms", p95.as_secs_f64() * 1e3),
            ]);
            cluster.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    println!(
        "{}",
        markdown_table(&["(t, n)", "crashed SEMs", "token p50", "token p95"], &rows)
    );

    // ------------------------------------------------------------------ E12
    println!("## E12 — simulated end-to-end latency under load (DES model)\n");
    use sempair_net::latency::LinkModel;
    use sempair_net::sim::{run as sim_run, SimConfig};
    let mut rows = Vec::new();
    for (label, link) in [
        ("LAN", LinkModel::lan()),
        ("DSL-2003", LinkModel::dsl_2003()),
    ] {
        for clients in [4usize, 32, 128] {
            let mut config = SimConfig::mediated_ibe(clients, 4, link);
            config.requests_per_client = 40;
            let result = sim_run(&config);
            rows.push(vec![
                label.to_string(),
                clients.to_string(),
                format!("{:.1} ms", result.p50.as_secs_f64() * 1e3),
                format!("{:.1} ms", result.p95.as_secs_f64() * 1e3),
                format!("{:.0}%", result.worker_utilization * 100.0),
            ]);
        }
    }
    println!(
        "{}",
        markdown_table(&["link", "clients", "p50", "p95", "SEM utilization"], &rows)
    );

    println!("report complete");
}
