//! The standalone Laminar server binary: deploys the full stack and
//! serves it over TCP (the server container of the paper's Dockerised
//! architecture, Fig. 4).
//!
//! ```text
//! cargo run -p laminar-core --bin laminar-server -- 0.0.0.0:7878
//! # tune the serving path:
//! cargo run -p laminar-core --bin laminar-server -- 0.0.0.0:7878 \
//!     --max-connections 64 --request-timeout-secs 60
//! # durable registry (survives restarts):
//! cargo run -p laminar-core --bin laminar-server -- 0.0.0.0:7878 \
//!     --data-dir /var/lib/laminar --snapshot-every 1024
//! # then, from anywhere:
//! cargo run -p laminar-core --bin laminar -- --connect 127.0.0.1:7878
//! ```

use laminar_core::{
    FaultKind, FaultMode, FaultSpec, IoSite, Laminar, LaminarConfig, NetServer, NetServerConfig,
};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: laminar-server [ADDR] [--max-connections N] \
         [--request-timeout-secs N] [--drain-timeout-secs N] \
         [--data-dir PATH] [--snapshot-every N] [--wal-fsync] \
         [--reco-retrieve-n N] [--reco-rerank-keep N] \
         [--reco-cluster-sim F] [--probe-interval-ms N] \
         [--io-fault-kind enospc|short-write|fsync-error] \
         [--io-fault-mode nth:N|from:N|random:PCT] \
         [--io-fault-site SITE]... [--io-fault-seed N]\n\
         \n\
         --snapshot-every N (default 1024; 0 disables) is auto-compaction's\n\
         floor: the WAL folds into snapshot.json once it holds at least N\n\
         records and at least as many bytes as the last snapshot.\n\
         \n\
         Disk chaos (testing only): --io-fault-kind arms a deterministic\n\
         fault injector on the registry's WAL/snapshot IO. --io-fault-mode\n\
         picks when it fires (nth:N = the Nth matching op, from:N = every\n\
         op from the Nth on, random:PCT = each op with PCT percent\n\
         probability). --io-fault-site limits it to named sites (wal_append,\n\
         wal_batch_append, wal_fsync, wal_truncate, snapshot_write,\n\
         snapshot_fsync, snapshot_rename; default all). The same seed and\n\
         spec replay a bit-identical fault schedule. A persist failure\n\
         flips the server into read-only degraded mode; the recovery\n\
         probe (--probe-interval-ms, 0 disables) restores it."
    );
    std::process::exit(2);
}

fn parse_site(name: &str) -> IoSite {
    *IoSite::ALL
        .iter()
        .find(|s| s.name() == name)
        .unwrap_or_else(|| usage())
}

fn parse_fault_mode(s: &str) -> FaultMode {
    let (kind, n) = s.split_once(':').unwrap_or_else(|| usage());
    let n: u64 = n.parse().unwrap_or_else(|_| usage());
    match kind {
        "nth" => FaultMode::Nth(n),
        "from" => FaultMode::From(n),
        "random" => FaultMode::Random(n as u32),
        _ => usage(),
    }
}

fn parse_args() -> (String, NetServerConfig, LaminarConfig) {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut config = NetServerConfig::default();
    let mut deploy = LaminarConfig::default();
    // The standalone server probes degraded storage every second by
    // default; unit-test deployments keep the library default of 0.
    deploy.server.probe_interval_ms = 1000;
    let mut fault_kind: Option<FaultKind> = None;
    let mut fault_mode = FaultMode::Nth(1);
    let mut fault_sites: Vec<IoSite> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut numeric = || -> u64 {
            args.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage())
        };
        match arg.as_str() {
            "--max-connections" => {
                let n = numeric();
                config.max_connections = n as usize;
            }
            "--request-timeout-secs" => {
                let n = numeric();
                config.request_timeout = Duration::from_secs(n);
            }
            "--drain-timeout-secs" => {
                let n = numeric();
                config.drain_timeout = Duration::from_secs(n);
            }
            "--data-dir" => {
                deploy.data_dir = Some(args.next().unwrap_or_else(|| usage()).into());
            }
            "--snapshot-every" => {
                deploy.snapshot_every = numeric();
            }
            "--wal-fsync" => deploy.wal_fsync = true,
            "--reco-retrieve-n" => {
                deploy.server.reco_retrieve_n = numeric() as usize;
            }
            "--reco-rerank-keep" => {
                deploy.server.reco_rerank_keep = numeric() as usize;
            }
            "--reco-cluster-sim" => {
                deploy.server.reco_cluster_sim = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--probe-interval-ms" => {
                deploy.server.probe_interval_ms = numeric();
            }
            "--io-fault-kind" => {
                fault_kind = Some(match args.next().as_deref() {
                    Some("enospc") => FaultKind::Enospc,
                    Some("short-write") => FaultKind::ShortWrite,
                    Some("fsync-error") => FaultKind::FsyncError,
                    _ => usage(),
                });
            }
            "--io-fault-mode" => {
                fault_mode = parse_fault_mode(&args.next().unwrap_or_else(|| usage()));
            }
            "--io-fault-site" => {
                fault_sites.push(parse_site(&args.next().unwrap_or_else(|| usage())));
            }
            "--io-fault-seed" => {
                deploy.io_fault_seed = numeric();
            }
            "--help" | "-h" => usage(),
            flag if flag.starts_with("--") => usage(),
            positional => addr = positional.to_string(),
        }
    }
    if config.max_connections == 0 {
        usage();
    }
    if let Some(kind) = fault_kind {
        if deploy.data_dir.is_none() {
            eprintln!("--io-fault-* needs --data-dir (the injector hooks the registry's disk IO)");
            std::process::exit(2);
        }
        deploy.io_fault = Some(FaultSpec {
            sites: fault_sites,
            mode: fault_mode,
            kind,
            short_cut: None,
        });
    }
    (addr, config, deploy)
}

fn main() {
    let (addr, config, deploy) = parse_args();
    let data_dir = deploy.data_dir.clone();
    let laminar = Laminar::try_deploy(deploy).unwrap_or_else(|e| {
        eprintln!("cannot open registry data directory: {e}");
        std::process::exit(1);
    });
    laminar
        .seed_stock_registry()
        .expect("stock registry seeding (fresh or recovered deployment)");
    let net = NetServer::bind_with(&addr, laminar.server(), config.clone()).unwrap_or_else(|e| {
        eprintln!("cannot bind {addr}: {e}");
        std::process::exit(1);
    });
    println!("laminar server listening on {}", net.addr());
    println!(
        "serving path: max {} concurrent connections, {}s request deadline",
        config.max_connections,
        config.request_timeout.as_secs()
    );
    match data_dir {
        Some(dir) => println!("registry: durable at {} (WAL + snapshots)", dir.display()),
        None => println!("registry: in-memory (pass --data-dir to persist across restarts)"),
    }
    if laminar.fault_injector().is_some() {
        println!("io fault injector ARMED (chaos testing — expect degraded mode)");
    }
    println!("stock workflows registered: isprime_wf, anomaly_wf, wordcount_wf, doubler_wf");
    // Serve until killed.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
