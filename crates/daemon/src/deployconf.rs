//! Deployment configuration files (the `spread.conf` analog).
//!
//! A deployment file names every daemon in the data center segment with
//! its protocol socket addresses and optional client-listener address,
//! plus protocol tuning options:
//!
//! ```text
//! # ar.conf — one ring, three daemons
//! protocol accelerated
//! personal_window 30
//! accelerated_window 20
//!
//! daemon 0 token=192.168.1.10:7400 data=192.168.1.10:7401 clients=192.168.1.10:7500
//! daemon 1 token=192.168.1.11:7400 data=192.168.1.11:7401 clients=192.168.1.11:7500
//! daemon 2 token=192.168.1.12:7400 data=192.168.1.12:7401
//! ```
//!
//! `#` starts a comment; blank lines are ignored; daemons may appear in
//! any order but identifiers must be unique.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;

use ar_core::{ParticipantId, ProtocolConfig, ProtocolVariant};
use ar_net::{PeerAddrs, PeerMap};

/// One daemon's entry in a deployment file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DaemonEntry {
    /// The daemon's participant identifier.
    pub pid: ParticipantId,
    /// Protocol socket addresses (token + data).
    pub addrs: PeerAddrs,
    /// Optional TCP address where this daemon serves the `ar-svc`
    /// client protocol (`ard --client-addr` overrides it).
    pub client_addr: Option<SocketAddr>,
}

/// A parsed deployment configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Deployment {
    daemons: BTreeMap<ParticipantId, DaemonEntry>,
    /// The protocol configuration the ring runs.
    pub protocol: ProtocolConfig,
}

/// Errors parsing a deployment file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending input (0 for file-level errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl core::fmt::Display for ParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

impl Deployment {
    /// Parses a deployment from text.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] naming the offending line.
    pub fn parse(text: &str) -> Result<Deployment, ParseError> {
        let mut daemons: BTreeMap<ParticipantId, DaemonEntry> = BTreeMap::new();
        let mut protocol = ProtocolConfig::accelerated();
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut words = line.split_whitespace();
            let key = words.next().expect("non-empty line");
            match key {
                "protocol" => {
                    let v = words
                        .next()
                        .ok_or_else(|| err(lineno, "protocol needs a value"))?;
                    protocol = match v {
                        "accelerated" => ProtocolConfig::accelerated(),
                        "original" => ProtocolConfig::original(),
                        other => {
                            return Err(err(
                                lineno,
                                format!("unknown protocol '{other}' (accelerated|original)"),
                            ))
                        }
                    };
                }
                "personal_window" | "global_window" | "accelerated_window" | "max_seq_gap" => {
                    let v: u64 = words
                        .next()
                        .ok_or_else(|| err(lineno, format!("{key} needs a value")))?
                        .parse()
                        .map_err(|_| err(lineno, format!("{key} must be a number")))?;
                    match key {
                        "personal_window" => protocol.personal_window = v as u32,
                        "global_window" => protocol.global_window = v as u32,
                        "accelerated_window" => {
                            protocol.accelerated_window = v as u32;
                            if v > 0 {
                                protocol.variant = ProtocolVariant::Accelerated;
                            }
                        }
                        "max_seq_gap" => protocol.max_seq_gap = v,
                        _ => unreachable!(),
                    }
                }
                "daemon" => {
                    let id: u16 = words
                        .next()
                        .ok_or_else(|| err(lineno, "daemon needs an id"))?
                        .parse()
                        .map_err(|_| err(lineno, "daemon id must be a small integer"))?;
                    let pid = ParticipantId::new(id);
                    let mut token = None;
                    let mut data = None;
                    let mut clients = None;
                    for opt in words {
                        let (k, v) = opt.split_once('=').ok_or_else(|| {
                            err(lineno, format!("expected key=value, got '{opt}'"))
                        })?;
                        let addr: SocketAddr = v
                            .parse()
                            .map_err(|_| err(lineno, format!("invalid address '{v}'")))?;
                        match k {
                            "token" => token = Some(addr),
                            "data" => data = Some(addr),
                            "clients" => clients = Some(addr),
                            other => return Err(err(lineno, format!("unknown option '{other}'"))),
                        }
                    }
                    let token = token.ok_or_else(|| err(lineno, "daemon needs token=host:port"))?;
                    let data = data.ok_or_else(|| err(lineno, "daemon needs data=host:port"))?;
                    let entry = DaemonEntry {
                        pid,
                        addrs: PeerAddrs { token, data },
                        client_addr: clients,
                    };
                    if daemons.insert(pid, entry).is_some() {
                        return Err(err(lineno, format!("duplicate daemon id {id}")));
                    }
                }
                other => return Err(err(lineno, format!("unknown directive '{other}'"))),
            }
        }
        if daemons.is_empty() {
            return Err(err(0, "no daemons defined"));
        }
        protocol
            .validate()
            .map_err(|e| err(0, format!("invalid protocol configuration: {e}")))?;
        Ok(Deployment { daemons, protocol })
    }

    /// Loads and parses a deployment file.
    ///
    /// # Errors
    ///
    /// Returns an I/O error (as a [`ParseError`]) or a parse error.
    pub fn load(path: impl AsRef<Path>) -> Result<Deployment, ParseError> {
        let text = std::fs::read_to_string(path.as_ref())
            .map_err(|e| err(0, format!("cannot read {}: {e}", path.as_ref().display())))?;
        Deployment::parse(&text)
    }

    /// The daemons, in identifier order.
    pub fn daemons(&self) -> impl Iterator<Item = &DaemonEntry> {
        self.daemons.values()
    }

    /// Looks up one daemon.
    pub fn daemon(&self, pid: ParticipantId) -> Option<&DaemonEntry> {
        self.daemons.get(&pid)
    }

    /// The ring member list.
    pub fn members(&self) -> Vec<ParticipantId> {
        self.daemons.keys().copied().collect()
    }

    /// The protocol peer map for the UDP transport.
    pub fn peer_map(&self) -> PeerMap {
        let mut map = PeerMap::new();
        for d in self.daemons.values() {
            map.insert(d.pid, d.addrs);
        }
        map
    }

    /// The peer map for ring shard `shard` of a multi-ring daemon:
    /// every token and data port in the file is offset by
    /// `shard * stride`, so each shard gets its own sockets from one
    /// deployment file. Shard 0 is the file's own addresses. The
    /// operator picks a stride wider than the port span the file uses
    /// on any one host so shards never collide.
    ///
    /// Returns `None` when an offset port would overflow the 16-bit
    /// port space.
    pub fn peer_map_for_shard(&self, shard: usize, stride: u16) -> Option<PeerMap> {
        let offset = u16::try_from(shard).ok()?.checked_mul(stride)?;
        let mut map = PeerMap::new();
        for d in self.daemons.values() {
            let mut addrs = d.addrs;
            let mut token = addrs.token;
            token.set_port(token.port().checked_add(offset)?);
            let mut data = addrs.data;
            data.set_port(data.port().checked_add(offset)?);
            addrs.token = token;
            addrs.data = data;
            map.insert(d.pid, addrs);
        }
        Some(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# comment
protocol accelerated
personal_window 25
accelerated_window 15

daemon 0 token=127.0.0.1:7400 data=127.0.0.1:7401 clients=127.0.0.1:7500
daemon 1 token=127.0.0.1:7402 data=127.0.0.1:7403   # trailing comment
";

    #[test]
    fn parses_sample() {
        let d = Deployment::parse(SAMPLE).unwrap();
        assert_eq!(d.members().len(), 2);
        assert_eq!(d.protocol.personal_window, 25);
        assert_eq!(d.protocol.accelerated_window, 15);
        let d0 = d.daemon(ParticipantId::new(0)).unwrap();
        assert_eq!(d0.addrs.token.port(), 7400);
        assert_eq!(d0.client_addr.unwrap().port(), 7500);
        let d1 = d.daemon(ParticipantId::new(1)).unwrap();
        assert_eq!(d1.client_addr, None);
        let map = d.peer_map();
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn shard_peer_maps_offset_ports() {
        let d = Deployment::parse(SAMPLE).unwrap();
        let m0 = d.peer_map_for_shard(0, 100).unwrap();
        for pid in d.members() {
            assert_eq!(m0.get(pid), d.peer_map().get(pid));
        }
        let m2 = d.peer_map_for_shard(2, 100).unwrap();
        let a = m2.get(ParticipantId::new(0)).unwrap();
        assert_eq!(a.token.port(), 7600);
        assert_eq!(a.data.port(), 7601);
        assert_eq!(
            a.token.ip(),
            "127.0.0.1".parse::<std::net::IpAddr>().unwrap()
        );
        // Port overflow is a clean None, not a wrap.
        assert!(d.peer_map_for_shard(600, 100).is_none());
    }

    #[test]
    fn original_protocol_directive() {
        let text = "protocol original\ndaemon 0 token=127.0.0.1:1 data=127.0.0.1:2\n";
        let d = Deployment::parse(text).unwrap();
        assert_eq!(d.protocol.variant, ProtocolVariant::Original);
        assert_eq!(d.protocol.accelerated_window, 0);
    }

    #[test]
    fn rejects_unknown_directive() {
        let e = Deployment::parse("bogus 1\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("bogus"));
    }

    #[test]
    fn rejects_duplicate_daemon() {
        let text = "daemon 0 token=127.0.0.1:1 data=127.0.0.1:2\n\
                    daemon 0 token=127.0.0.1:3 data=127.0.0.1:4\n";
        let e = Deployment::parse(text).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("duplicate"));
    }

    #[test]
    fn rejects_missing_addresses() {
        let e = Deployment::parse("daemon 0 token=127.0.0.1:1\n").unwrap_err();
        assert!(e.message.contains("data="));
    }

    #[test]
    fn rejects_bad_address() {
        let e = Deployment::parse("daemon 0 token=nonsense data=127.0.0.1:2\n").unwrap_err();
        assert!(e.message.contains("invalid address"));
    }

    #[test]
    fn rejects_empty_file() {
        let e = Deployment::parse("# nothing\n").unwrap_err();
        assert!(e.message.contains("no daemons"));
    }

    #[test]
    fn rejects_invalid_protocol_combination() {
        // original protocol + non-zero accelerated window ordered later
        // flips the variant back to accelerated, so construct the
        // reverse: accelerated_window after original is fine; zero
        // personal_window is not.
        let text = "personal_window 0\ndaemon 0 token=127.0.0.1:1 data=127.0.0.1:2\n";
        let e = Deployment::parse(text).unwrap_err();
        assert!(e.message.contains("invalid protocol"));
    }

    #[test]
    fn parse_error_display() {
        let e = err(3, "boom");
        assert_eq!(e.to_string(), "line 3: boom");
    }
}
