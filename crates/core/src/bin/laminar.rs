//! The `laminar` CLI binary (paper Fig. 5).
//!
//! Deploys an in-process Laminar 2.0 stack, auto-registers a demo user, and
//! drops into the interactive prompt:
//!
//! ```text
//! $ cargo run -p laminar-core --bin laminar
//! Welcome to the Laminar CLI
//! (laminar) help
//! ```

use laminar_client::{Cli, LaminarClient};
use laminar_core::{Laminar, LaminarConfig};
use std::io::{BufRead, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    // `--connect host:port` talks to a remote laminar-server over TCP;
    // otherwise an in-process stack is deployed. `--data-dir PATH` makes
    // the in-process registry durable: quit, relaunch with the same path,
    // and every registered PE and workflow is still there.
    //
    // Any remaining positional words are executed as ONE command and the
    // process exits with the command's status — so
    // `laminar --connect server:7878 health` works directly as a
    // container healthcheck (nonzero exit when the server is degraded).
    let args: Vec<String> = std::env::args().collect();
    let value_flags = ["--connect", "--data-dir"];
    let mut oneshot: Vec<String> = Vec::new();
    let mut i = 1;
    while i < args.len() {
        let a = args[i].as_str();
        if value_flags.contains(&a) {
            i += 2;
        } else if a.starts_with("--") {
            i += 1;
        } else {
            oneshot.push(args[i].clone());
            i += 1;
        }
    }
    let connect = args
        .iter()
        .position(|a| a == "--connect")
        .and_then(|i| args.get(i + 1).cloned());
    let data_dir = args
        .iter()
        .position(|a| a == "--data-dir")
        .and_then(|i| args.get(i + 1).cloned());

    let (_local, mut cli) = match connect {
        Some(addr) => {
            use std::net::ToSocketAddrs;
            let sockaddr = addr
                .to_socket_addrs()
                .ok()
                .and_then(|mut it| it.next())
                .unwrap_or_else(|| {
                    eprintln!("cannot resolve address '{addr}'");
                    std::process::exit(1);
                });
            (None, Cli::new(LaminarClient::connect_tcp(sockaddr)))
        }
        None => {
            let config = LaminarConfig {
                data_dir: data_dir.map(Into::into),
                ..LaminarConfig::default()
            };
            let laminar = Laminar::try_deploy(config).unwrap_or_else(|e| {
                eprintln!("cannot open registry data directory: {e}");
                std::process::exit(1);
            });
            let cli = laminar.cli();
            (Some(laminar), cli)
        }
    };
    // The paper's CLI sessions assume an authenticated user; mirror that:
    // register the demo user, or log in when it already exists (remote).
    // Not fatal: a degraded (read-only) server rejects registration, but
    // tokenless commands — health in particular — must still work.
    if cli.client().register("demo", "demo").is_err() {
        if let Err(e) = cli.client().login("demo", "demo") {
            eprintln!("warning: cannot authenticate as demo ({e}); tokenless commands still work");
        }
    }

    if !oneshot.is_empty() {
        let out = cli.execute(&oneshot.join(" "));
        if !out.is_empty() {
            println!("{out}");
        }
        return ExitCode::from(cli.exit_code());
    }

    println!("Welcome to the Laminar CLI");
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    loop {
        print!("{}", cli.prompt());
        stdout.flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {
                let out = cli.execute(line.trim());
                if !out.is_empty() {
                    println!("{out}");
                }
                if cli.done {
                    break;
                }
            }
            Err(e) => {
                eprintln!("input error: {e}");
                break;
            }
        }
    }
    // Scripted sessions (`laminar < commands.txt`) exit nonzero when any
    // command failed, instead of swallowing errors into stdout text.
    ExitCode::from(cli.exit_code())
}
