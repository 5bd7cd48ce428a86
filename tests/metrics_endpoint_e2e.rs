//! End-to-end test of the live metrics endpoint: a real (loopback)
//! daemon ring configured with a [`TelemetryHub`], served over HTTP
//! exactly as `ard --metrics-addr` does, and scraped with raw TCP GETs.
//! Checks Prometheus exposition validity on `/metrics`, JSON
//! well-formedness and content on `/snapshot`, and the `/flight` event
//! dump.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use accelerated_ring::core::{Participant, ParticipantId, ProtocolConfig, RingId, ServiceType};
use accelerated_ring::daemon::{spawn_daemon_with, ClientEvent, DaemonConfig, TelemetryHub};
use accelerated_ring::net::LoopbackNet;
use accelerated_ring::telemetry::json::Value;
use bytes::Bytes;

fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to metrics endpoint");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    (head.to_string(), body.to_string())
}

/// Every non-comment, non-blank exposition line must be
/// `name{optional labels} <number>`.
fn assert_valid_exposition(body: &str) {
    for line in body.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("exposition line without a value: {line:?}");
        });
        assert!(
            value.parse::<f64>().is_ok(),
            "non-numeric sample value in {line:?}"
        );
        let name_end = series.find('{').unwrap_or(series.len());
        let name = &series[..name_end];
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "invalid metric name in {line:?}"
        );
        if name_end < series.len() {
            assert!(series.ends_with('}'), "unterminated label set in {line:?}");
        }
    }
}

#[test]
fn daemon_ring_serves_metrics_snapshot_and_flight() {
    let net = LoopbackNet::new();
    let members: Vec<ParticipantId> = (0..2).map(ParticipantId::new).collect();
    let ring_id = RingId::new(members[0], 1);

    // Daemon 0 carries the telemetry hub and serves it, exactly as
    // `ard --metrics-addr 127.0.0.1:0` wires things up.
    let hub = TelemetryHub::shared();
    let daemons: Vec<_> = members
        .iter()
        .map(|&p| {
            let part = Participant::new(p, ProtocolConfig::accelerated(), ring_id, members.clone())
                .unwrap();
            let mut config = DaemonConfig::default();
            if p == members[0] {
                config.telemetry = Some(hub.clone());
            }
            spawn_daemon_with(part, net.endpoint(p), config)
        })
        .collect();
    let server = accelerated_ring::daemon::serve_metrics("127.0.0.1:0", hub.clone())
        .expect("bind metrics endpoint");
    let addr = server.local_addr();

    // Push traffic through the ring until daemon 0 has delivered it.
    let alice = daemons[0].connect("alice").unwrap();
    let bob = daemons[1].connect("bob").unwrap();
    alice.join("g").unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut joined = false;
    while !joined && Instant::now() < deadline {
        if let Some(ClientEvent::Membership { .. }) = alice.recv(Duration::from_millis(50)) {
            joined = true;
        }
    }
    assert!(joined, "group join did not complete");
    bob.multicast(&["g"], ServiceType::Agreed, Bytes::from_static(b"ping"))
        .unwrap();
    let mut got = false;
    while !got && Instant::now() < deadline {
        if let Some(ClientEvent::Message { .. }) = alice.recv(Duration::from_millis(50)) {
            got = true;
        }
    }
    assert!(got, "message did not deliver");
    // One more loop iteration guarantees a post-delivery stats refresh.
    while hub.stats().messages_delivered == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }

    // /metrics: valid exposition carrying both the runtime series and
    // the participant counters.
    let (head, body) = http_get(addr, "/metrics");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(head.contains("text/plain"), "{head}");
    assert_valid_exposition(&body);
    for series in [
        "ar_node_tokens_rx_total",
        "ar_node_token_rotation_ns",
        "ar_node_queue_depth",
        "ar_node_token_holds_total{release=\"submit\"}",
        "ar_node_token_holds_total{release=\"cancel\"}",
        "ar_node_token_holds_total{release=\"message\"}",
        "ar_node_token_holds_total{release=\"deadline\"}",
        "ar_node_token_hold_ns_count",
        "ar_participant_tokens_handled_total",
        "ar_participant_messages_delivered_total",
    ] {
        assert!(body.contains(series), "missing {series} in:\n{body}");
    }

    // /snapshot: parseable JSON with metrics, stats, and flight info.
    let (head, body) = http_get(addr, "/snapshot");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let v = Value::parse(&body).expect("snapshot is valid JSON");
    assert!(v.get("metrics").is_some(), "{body}");
    let delivered = v
        .get("stats")
        .and_then(|s| s.get("messages_delivered_total"))
        .and_then(Value::as_f64)
        .expect("stats carry delivery counter");
    assert!(delivered >= 1.0, "delivered = {delivered}");
    // The recovery hardening counters ride along in the same stats
    // object even when zero, so dashboards can rely on the keys.
    for key in [
        "recovery_burst_truncated_total",
        "recovery_pending_dropped_total",
    ] {
        assert!(
            v.get("stats")
                .and_then(|s| s.get(key))
                .and_then(Value::as_f64)
                .is_some(),
            "missing {key} in stats: {body}"
        );
    }
    assert!(
        v.get("flight")
            .and_then(|f| f.get("total"))
            .and_then(Value::as_f64)
            .is_some_and(|t| t > 0.0),
        "flight recorder saw events: {body}"
    );

    // /flight: a JSON array of timestamped events.
    let (head, body) = http_get(addr, "/flight");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let v = Value::parse(&body).expect("flight dump is valid JSON");
    let events = v.as_array().expect("flight dump is an array");
    assert!(!events.is_empty());
    assert!(events[0].get("event").and_then(Value::as_str).is_some());

    // Unknown paths 404.
    let (head, _) = http_get(addr, "/nope");
    assert!(head.starts_with("HTTP/1.1 404"), "{head}");

    drop(alice);
    drop(bob);
    for d in daemons {
        d.shutdown().expect("clean shutdown");
    }
}

#[test]
fn service_tier_metrics_are_exported() {
    use accelerated_ring::svc::{serve_clients, SvcClient, SvcConfig, SvcEvent, SvcListeners};

    let net = LoopbackNet::new();
    let members = vec![ParticipantId::new(0)];
    let ring_id = RingId::new(members[0], 1);
    let part = Participant::new(
        members[0],
        ProtocolConfig::accelerated(),
        ring_id,
        members.clone(),
    )
    .unwrap();
    let hub = TelemetryHub::shared();
    let config = DaemonConfig {
        telemetry: Some(hub.clone()),
        ..Default::default()
    };
    let daemon = spawn_daemon_with(part, net.endpoint(members[0]), config);
    let server = accelerated_ring::daemon::serve_metrics("127.0.0.1:0", hub.clone())
        .expect("bind metrics endpoint");
    let addr = server.local_addr();

    let mut svc_config = SvcConfig::default();
    svc_config.flow.publish_credits = 2;
    svc_config.telemetry = Some(hub.clone());
    let svc = serve_clients(
        &daemon,
        SvcListeners {
            tcp: Some("127.0.0.1:0".parse().unwrap()),
            uds: None,
        },
        svc_config,
    )
    .expect("service tier");
    let svc_addr = svc.tcp_addr().unwrap();

    // Real tier traffic: a consumer joins, a publisher exhausts its
    // credits (forcing at least one reject) and a delivery lands.
    let mut consumer = SvcClient::connect_tcp(svc_addr, "cons").expect("connect");
    consumer.join("g").expect("join");
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut joined = false;
    while !joined && Instant::now() < deadline {
        if let Some(SvcEvent::Membership { .. }) = consumer.recv(Duration::from_millis(50)) {
            joined = true;
        }
    }
    assert!(joined, "svc group join did not complete");
    let mut publisher = SvcClient::connect_tcp(svc_addr, "pub").expect("connect");
    for _ in 0..2 {
        publisher
            .try_publish(&["g"], ServiceType::Agreed, Bytes::from_static(b"m"))
            .expect("publish within credits");
    }
    // A third publish with zero client-side credits never leaves the
    // client; hand-roll the frame to make the *server* reject it.
    use accelerated_ring::svc::wire::{encode_client, frame, ClientFrame};
    publisher
        .send_raw(&frame(&encode_client(&ClientFrame::Publish {
            id: 999,
            service: ServiceType::Agreed,
            groups: vec!["g".into()],
            payload: Bytes::from_static(b"over"),
        })))
        .expect("raw publish");
    let mut delivered = 0;
    let mut rejected = false;
    while (delivered < 2 || !rejected) && Instant::now() < deadline {
        if let Some(SvcEvent::Deliver { .. }) = consumer.recv(Duration::from_millis(20)) {
            delivered += 1;
        }
        for ev in publisher.drain() {
            if let SvcEvent::PublishRejected { .. } = ev {
                rejected = true;
            }
        }
    }
    assert!(delivered >= 2, "svc deliveries did not land");
    assert!(rejected, "credit-less publish was not rejected");

    // Kill the consumer's connection and pump until the session
    // resumes, so the resumption series carry real samples.
    consumer.sever();
    let mut resumed = false;
    while !resumed && Instant::now() < deadline {
        if let Some(SvcEvent::Reconnected { resumed: r }) = consumer.recv(Duration::from_millis(20))
        {
            assert!(r, "sever within grace must resume");
            resumed = true;
        }
    }
    assert!(resumed, "session did not resume after sever");

    // /metrics: the tier's series are present in the exposition.
    let (head, body) = http_get(addr, "/metrics");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_valid_exposition(&body);
    for series in [
        "ar_svc_clients_connected",
        "ar_svc_clients_evicted_total",
        "ar_svc_publish_rejects_total",
        "ar_svc_credit_grants_total",
        "ar_svc_credits_deferred",
        "ar_svc_publishes_total",
        "ar_svc_deliveries_total",
        "ar_svc_write_calls_total",
        "ar_svc_read_calls_total",
        "ar_svc_refused_total",
        "ar_svc_sessions_resumed_total",
        "ar_svc_sessions_parked",
        "ar_svc_resume_rejected_total",
        "ar_svc_retained_bytes",
        "ar_svc_loop_passes_total{cause=\"wake\"}",
        "ar_svc_loop_passes_total{cause=\"socket\"}",
        "ar_svc_loop_passes_total{cause=\"tick\"}",
        "ar_svc_wake_delay_ns_count",
    ] {
        assert!(body.contains(series), "missing {series} in:\n{body}");
    }
    let sample = |name: &str| -> f64 {
        body.lines()
            .find(|l| l.starts_with(name) && !l.starts_with('#'))
            .and_then(|l| l.rsplit_once(' '))
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or_else(|| panic!("no sample for {name}"))
    };
    assert_eq!(sample("ar_svc_clients_connected"), 2.0);
    assert!(sample("ar_svc_publishes_total") >= 2.0);
    assert!(sample("ar_svc_deliveries_total") >= 2.0);
    // The frames above left in vectored writes, each one counted.
    assert!(sample("ar_svc_write_calls_total") >= 1.0);
    // The client frames above arrived through counted reads.
    assert!(sample("ar_svc_read_calls_total") >= 1.0);
    assert!(sample("ar_svc_publish_rejects_total") >= 1.0);
    assert!(sample("ar_svc_sessions_resumed_total") >= 1.0);
    assert_eq!(
        sample("ar_svc_sessions_parked"),
        0.0,
        "the severed session resumed, so nothing stays parked"
    );
    assert_eq!(sample("ar_svc_resume_rejected_total"), 0.0);
    // The deliveries above reached the tier through the ring thread's
    // wake, each wake timed; the client frames through the sockets.
    assert!(sample("ar_svc_loop_passes_total{cause=\"wake\"}") >= 1.0);
    assert!(sample("ar_svc_loop_passes_total{cause=\"socket\"}") >= 1.0);
    assert!(sample("ar_svc_wake_delay_ns_count") >= 1.0);

    // /snapshot: the same series ride in the JSON metrics dump.
    let (head, body) = http_get(addr, "/snapshot");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let v = Value::parse(&body).expect("snapshot is valid JSON");
    let metrics = v.get("metrics").expect("snapshot carries metrics");
    for key in [
        "ar_svc_clients_connected",
        "ar_svc_publishes_total",
        "ar_svc_write_calls_total",
        "ar_svc_read_calls_total",
        "ar_svc_sessions_resumed_total",
        "ar_svc_sessions_parked",
        "ar_svc_resume_rejected_total",
        "ar_svc_retained_bytes",
        "ar_svc_loop_passes_total{cause=\"wake\"}",
        "ar_svc_loop_passes_total{cause=\"socket\"}",
        "ar_svc_loop_passes_total{cause=\"tick\"}",
    ] {
        assert!(
            metrics.get(key).and_then(Value::as_f64).is_some(),
            "missing {key} in snapshot metrics: {body}"
        );
    }
    assert!(
        metrics
            .get("ar_svc_wake_delay_ns")
            .and_then(|h| h.get("count"))
            .and_then(Value::as_f64)
            .is_some_and(|n| n >= 1.0),
        "wake delay histogram has samples in snapshot metrics: {body}"
    );

    drop(consumer);
    drop(publisher);
    svc.shutdown().expect("svc shutdown");
    daemon.shutdown().expect("clean shutdown");
}
