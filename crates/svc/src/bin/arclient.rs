//! `arclient` — interactive client for an Accelerated Ring daemon
//! (the `spuser` analog).
//!
//! Speaks the flow-controlled service-tier protocol.
//!
//! Dropped connections are redialed automatically with jittered
//! backoff and the session resumed (exactly-once delivery across the
//! seam); `--no-resume` restores the old exit-on-disconnect behavior.
//!
//! ```text
//! usage: arclient [--no-resume] [--uds PATH] [<daemon-host:port>] <name>
//!
//! commands:
//!   join <group>
//!   leave <group>
//!   send <group>[,<group>...] <text>        (agreed delivery)
//!   sends <group>[,<group>...] <text>       (safe delivery)
//!   credits                                 (show flow-control state)
//!   quit
//! ```
//!
//! Incoming messages print with their delivery level and global ring
//! sequence as they arrive.

use std::io::{BufRead, Write};
use std::process::ExitCode;
use std::time::Duration;

use ar_core::ServiceType;
use ar_svc::{PublishError, ResumePolicy, SvcClient, SvcEvent};
use bytes::Bytes;

const USAGE: &str = "usage: arclient [--no-resume] [--uds PATH] [<daemon-host:port>] <name>";

fn main() -> ExitCode {
    let mut no_resume = false;
    let mut uds: Option<String> = None;
    let mut positional: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--no-resume" {
            no_resume = true;
        } else if arg == "--uds" {
            match args.next() {
                Some(p) => uds = Some(p),
                None => {
                    eprintln!("arclient: --uds requires a path\n{USAGE}");
                    return ExitCode::from(2);
                }
            }
        } else if let Some(p) = arg.strip_prefix("--uds=") {
            uds = Some(p.to_string());
        } else if arg.starts_with("--") {
            eprintln!("arclient: unknown option '{arg}'\n{USAGE}");
            return ExitCode::from(2);
        } else {
            positional.push(arg);
        }
    }

    let (addr, name) = match (&uds, positional.as_slice()) {
        (Some(_), [name]) => (None, name.clone()),
        (None, [addr, name]) => (Some(addr.clone()), name.clone()),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let client = if let Some(path) = &uds {
        SvcClient::connect_uds(path, &name)
    } else {
        let addr = match addr.as_deref().unwrap().parse() {
            Ok(a) => a,
            Err(_) => {
                eprintln!("arclient: invalid address");
                return ExitCode::from(2);
            }
        };
        SvcClient::connect_tcp(addr, &name)
    };
    let mut client = match client {
        Ok(c) => c,
        Err(e) => {
            eprintln!("arclient: cannot connect: {e}");
            return ExitCode::FAILURE;
        }
    };
    if no_resume {
        client.set_resume_policy(ResumePolicy::disabled());
    }
    run_svc(client, &name)
}

fn run_svc(mut client: SvcClient, name: &str) -> ExitCode {
    println!(
        "connected as {name} to daemon {} ({} publish credits, delivery window {})",
        client.daemon(),
        client.credits(),
        client.delivery_window(),
    );

    let stdin = std::io::stdin();
    print_prompt();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        for ev in client.drain() {
            print_svc_event(&ev);
        }
        if client.evicted_reason().is_some() {
            break;
        }
        let line = line.trim();
        if line.is_empty() {
            print_prompt();
            continue;
        }
        let mut parts = line.splitn(3, ' ');
        let verb = parts.next().unwrap_or("");
        match verb {
            "quit" | "exit" => break,
            "credits" => {
                println!(
                    "[flow] {}/{} publish credits, delivery window {}",
                    client.credits(),
                    client.initial_credits(),
                    client.delivery_window(),
                );
            }
            "join" => match parts.next() {
                Some(g) => {
                    if let Err(e) = client.join(g) {
                        eprintln!("join failed: {e}");
                    }
                }
                None => eprintln!("usage: join <group>"),
            },
            "leave" => match parts.next() {
                Some(g) => {
                    if let Err(e) = client.leave(g) {
                        eprintln!("leave failed: {e}");
                    }
                }
                None => eprintln!("usage: leave <group>"),
            },
            "send" | "sends" => {
                let service = if verb == "sends" {
                    ServiceType::Safe
                } else {
                    ServiceType::Agreed
                };
                match (parts.next(), parts.next()) {
                    (Some(groups), Some(text)) => {
                        let gs: Vec<&str> = groups.split(',').collect();
                        match client.publish(
                            &gs,
                            service,
                            Bytes::from(text.to_string()),
                            Duration::from_secs(5),
                        ) {
                            Ok(id) => {
                                println!("[publish #{id}, {} credits left]", client.credits())
                            }
                            Err(PublishError::NoCredits) => {
                                eprintln!("send failed: no publish credits (daemon backpressured)")
                            }
                            Err(e) => eprintln!("send failed: {e}"),
                        }
                    }
                    _ => eprintln!("usage: {verb} <group>[,<group>...] <text>"),
                }
            }
            other => eprintln!("unknown command '{other}' (join/leave/send/sends/credits/quit)"),
        }
        // Give events a moment to arrive, then print them.
        std::thread::sleep(Duration::from_millis(100));
        for ev in client.drain() {
            print_svc_event(&ev);
        }
        if let Some(reason) = client.evicted_reason() {
            eprintln!("arclient: evicted by server: {reason}");
            return ExitCode::FAILURE;
        }
        print_prompt();
    }
    println!("bye");
    ExitCode::SUCCESS
}

fn print_prompt() {
    print!("> ");
    let _ = std::io::stdout().flush();
}

fn print_svc_event(ev: &SvcEvent) {
    match ev {
        SvcEvent::Deliver {
            ring_seq,
            service,
            sender,
            groups,
            payload,
            ..
        } => {
            println!(
                "[{service} @{ring_seq}] {sender} -> {}: {}",
                groups.join(","),
                String::from_utf8_lossy(payload)
            );
        }
        SvcEvent::Membership { group, members } => {
            let names: Vec<String> = members.iter().map(|m| m.to_string()).collect();
            println!("[membership] {group}: {{{}}}", names.join(", "));
        }
        SvcEvent::NetworkChange { daemons } => {
            let names: Vec<String> = daemons.iter().map(|d| d.to_string()).collect();
            println!("[network] daemons: {{{}}}", names.join(", "));
        }
        SvcEvent::PublishOrdered { id } => {
            println!("[ordered #{id}: credit returned]");
        }
        SvcEvent::PublishRejected { id, reason } => {
            eprintln!("[rejected #{id}: {reason}]");
        }
        SvcEvent::GroupRejected {
            join,
            group,
            reason,
        } => {
            let verb = if *join { "join" } else { "leave" };
            eprintln!("[{verb} {group} rejected: {reason}]");
        }
        SvcEvent::Evicted { reason } => {
            eprintln!("[evicted: {reason}]");
        }
        SvcEvent::Reconnected { resumed } => {
            if *resumed {
                println!("[reconnected: session resumed]");
            } else {
                println!("[reconnected: session lost, started fresh (groups re-joined)]");
            }
        }
    }
}
