//! The TriggerMan console (§3): "a special application program that lets a
//! user directly interact with the system to create triggers, drop
//! triggers, start the system, shut it down, etc."
//!
//! ```sh
//! cargo run --example console
//! ```
//!
//! Commands: any TriggerMan command (`create trigger ...`, `define data
//! source ...`), any SQL statement (`create table ...`, `insert ...`,
//! `select ...`), plus console built-ins:
//!
//! ```text
//! .start            start driver threads    .stop         stop them
//! .drain            process pending tokens   .list         triggers
//! .connections      connections
//! .serve ADDR       accept remote sources and subscribers over TCP
//! .serve-http ADDR  HTTP exposition (/metrics /healthz /tracez)
//! .quit
//! ```
//!
//! Counters are `show stats [<subsystem>]`, a TriggerMan command: the
//! metrics registry's text exposition, the lines `/metrics` serves.
//!
//! `.serve 127.0.0.1:7070` starts the wire tier
//! ([`tman_wire::WireServer`]); remote processes can then feed tokens with
//! [`tman_wire::RemoteClient`] and receive trigger firings with durable
//! watermark acks. Remember to `.start` the drivers so queued tokens are
//! actually processed.
//!
//! `.serve-http 127.0.0.1:9100` starts the engine's HTTP exposition
//! endpoint: `GET /metrics` (Prometheus text), `/metrics.json`,
//! `/healthz`, and `/tracez` (Chrome trace JSON of retained span trees).
//!
//! `show stats [<subsystem>]` is a TriggerMan command, not a built-in: it
//! prints the metrics registry's text exposition, the lines `GET /metrics`
//! serves, limited to one subsystem's families when one is named (engine,
//! queue, driver, index, cache, storage, actions, trace, wire).
//!
//! `.serve` on a running server reports the open wire connections, read
//! from the wire tier's `tman_wire_connections` gauge.

use std::io::{BufRead, Write};
use triggerman::{Config, TriggerMan};

fn main() {
    let tman = TriggerMan::open_memory(Config::default()).expect("open");
    let inbox = tman.events().subscribe_all();
    let mut drivers = None;
    let mut server: Option<tman_wire::WireServer> = None;
    let stdin = std::io::stdin();
    println!("TriggerMan console. '.quit' to exit, '.help' for commands.");
    loop {
        print!("tman> ");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match line {
            ".quit" | ".exit" => break,
            ".help" => {
                println!(".start .stop .list .connections .drain .serve ADDR .serve-http ADDR .quit — or any TriggerMan/SQL command; counters are 'show stats [<subsystem>]'");
                continue;
            }
            ".start" => {
                if drivers.is_none() {
                    let pool = tman.start_drivers();
                    println!("started {} driver thread(s)", pool.len());
                    drivers = Some(pool);
                } else {
                    println!("drivers already running");
                }
                continue;
            }
            ".stop" => {
                if let Some(pool) = drivers.take() {
                    pool.stop();
                    println!("drivers stopped");
                } else {
                    println!("no drivers running");
                }
                continue;
            }
            ".drain" => {
                tman.run_until_quiescent().ok();
                println!("queue drained");
                continue;
            }
            ".list" => {
                for name in tman.trigger_names() {
                    println!("  {name}");
                }
                continue;
            }
            ".connections" => {
                match tman.connections() {
                    Ok(conns) => {
                        for c in conns {
                            println!(
                                "  {} (type={}{}{})",
                                c.name,
                                c.dbtype,
                                c.host.map(|h| format!(", host={h}")).unwrap_or_default(),
                                if c.is_default { ", default" } else { "" }
                            );
                        }
                    }
                    Err(e) => println!("error: {e}"),
                }
                continue;
            }
            _ => {}
        }
        // Matched before `.serve`, which is a prefix of this command.
        if let Some(addr) = line.strip_prefix(".serve-http") {
            let addr = addr.trim();
            let addr = if addr.is_empty() {
                "127.0.0.1:9100"
            } else {
                addr
            };
            match tman.serve_http(addr) {
                Ok(local) => println!(
                    "http exposition on http://{local} (/metrics /metrics.json /healthz /tracez)"
                ),
                Err(e) => println!("error: {e}"),
            }
            continue;
        }
        if let Some(addr) = line.strip_prefix(".serve") {
            if let Some(s) = &server {
                println!(
                    "already serving on {} ({} connection(s))",
                    s.local_addr(),
                    tman.metrics_registry()
                        .gauge("tman_wire_connections", &[])
                        .get()
                );
                continue;
            }
            let addr = addr.trim();
            let addr = if addr.is_empty() {
                "127.0.0.1:7070"
            } else {
                addr
            };
            match tman_wire::WireServer::start(tman.clone(), addr) {
                Ok(s) => {
                    println!("wire server listening on {}", s.local_addr());
                    server = Some(s);
                }
                Err(e) => println!("error: {e}"),
            }
            continue;
        }
        if line.starts_with('.') {
            println!("unknown console command; try .help");
            continue;
        }
        // Try TriggerMan command first, then SQL.
        let result = tman
            .execute_command(line)
            .map(|out| match out {
                triggerman::CommandOutput::Stats(report) => report,
                other => format!("{other:?}"),
            })
            .or_else(|cmd_err| {
                tman.run_sql(line)
                    .map(|r| match r {
                        tman_sql::ExecResult::Rows(rows) => {
                            let mut s = String::new();
                            for row in &rows {
                                s.push_str(&format!("{:?}\n", row.values()));
                            }
                            s.push_str(&format!("{} row(s)", rows.len()));
                            s
                        }
                        other => format!("{other:?}"),
                    })
                    .map_err(|sql_err| {
                        // A console-only command's own error, not SQL's.
                        let lower = line.to_lowercase();
                        let console_only = ["create trigger", "define", "show ", "trace "];
                        if console_only.iter().any(|p| lower.starts_with(p)) {
                            cmd_err
                        } else {
                            sql_err
                        }
                    })
            });
        match result {
            Ok(msg) => println!("{msg}"),
            Err(e) => println!("error: {e}"),
        }
        // Show any notifications that arrived.
        for n in inbox.try_iter() {
            match n.message {
                Some(m) => println!("  [notify:{}] {}", n.trigger, m),
                None => println!("  [event:{} from {}] {:?}", n.event, n.trigger, n.values),
            }
        }
    }
    if let Some(pool) = drivers {
        pool.stop();
    }
}
