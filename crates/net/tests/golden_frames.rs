//! Golden encodings: the exact bytes of one or more instances of every
//! frame type, pinned as hex. The protocol documented in DESIGN.md is these
//! bytes — a codec change that moves any of them is a wire break, not a
//! refactor, and must bump [`rnet::VERSION`].
//!
//! Coverage beyond "one per frame type": every `WireArg` kind, `fn_name`
//! present and absent, the heartbeat telemetry flag both ways, empty and
//! non-empty repeated fields, and content hashes above 2^64.

use rnet::{Blob, Frame, LeaderRow, WireArg};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
}

fn blob(tag: &str, bytes: &[u8]) -> Blob {
    Blob { tag: tag.into(), bytes: bytes.to_vec() }
}

/// `(label, frame, expected hex of frame.encode())`.
fn golden() -> Vec<(&'static str, Frame, &'static str)> {
    vec![
        (
            "hello",
            Frame::Hello { name: "w0".into(), cores: 4, gpus: 1, mem_gib: 300 },
            "524e0101070277300401ac02",
        ),
        (
            "submit/all-arg-kinds",
            Frame::Submit {
                exec_id: 42,
                task_id: 7,
                attempt: 2,
                node: 1,
                fn_id: 3,
                fn_name: Some("exp".into()),
                variant: 0,
                cores: vec![0, 1],
                gpus: vec![],
                args: vec![
                    WireArg::Inline { key: (9 << 32) | 1, blob: blob("cfg", &[1, 2, 3]) },
                    WireArg::Cached { key: (10 << 32) | 4 },
                    WireArg::Block {
                        key: (11 << 32) | 2,
                        hash: (0xdead_beef_u128 << 64) | 0x0123_4567_89ab_cdef,
                    },
                ],
            },
            concat!(
                "524e01023b2a0702010301036578700002000100030081808080900103636667",
                "030102030184808080a0010282808080b001effdb6f50def9bafcdf8acd19101"
            ),
        ),
        (
            "submit/no-name-no-args",
            Frame::Submit {
                exec_id: 43,
                task_id: 8,
                attempt: 1,
                node: 0,
                fn_id: 3,
                fn_name: None,
                variant: 1,
                cores: vec![],
                gpus: vec![0],
                args: vec![],
            },
            "524e01020b2b08010003000100010000",
        ),
        (
            "done",
            Frame::Done {
                exec_id: 42,
                recv_us: 10_000,
                start_us: 10_050,
                end_us: 25_000,
                outputs: vec![blob("t", &[0xab, 0xcd]), blob("", &[])],
            },
            "524e0103102a904ec24ea8c30102017402abcd0000",
        ),
        (
            "done/empty",
            Frame::Done { exec_id: 44, recv_us: 0, start_us: 0, end_us: 0, outputs: vec![] },
            "524e0103052c00000000",
        ),
        ("failed", Frame::Failed { exec_id: 43, message: "boom".into() }, "524e0104062b04626f6f6d"),
        (
            "heartbeat/telemetry",
            Frame::Heartbeat { seq: 9, t_send_us: 123_456, telemetry: true },
            "524e01050509c0c40701",
        ),
        (
            "heartbeat/quiet",
            Frame::Heartbeat { seq: 10, t_send_us: 123_789, telemetry: false },
            "524e0105050a8dc70700",
        ),
        (
            "heartbeat-ack",
            Frame::HeartbeatAck { seq: 9, t_send_us: 123_456, recv_us: 99_000, reply_us: 99_004 },
            "524e01060a09c0c407b88506bc8506",
        ),
        ("fetch", Frame::Fetch { key: 1 << 40 }, "524e010706808080808020"),
        (
            "data",
            Frame::Data { key: 1 << 40, blob: blob("u64", &[5]) },
            "524e01080c808080808020037536340105",
        ),
        (
            "trace-chunk",
            Frame::TraceChunk { bytes: vec![0xde, 0xad, 0xbe, 0xef] },
            "524e010a0504deadbeef",
        ),
        ("trace-chunk/empty", Frame::TraceChunk { bytes: vec![] }, "524e010a0100"),
        (
            "stats-snapshot",
            Frame::StatsSnapshot {
                wall_us: 5_000_000,
                counters: vec![("tasks".into(), 42), ("bytes".into(), 1 << 33)],
                gauges: vec![("depth".into(), 2.5), ("neg".into(), -1.0)],
            },
            concat!(
                "524e010b32c096b10202057461736b732a056279746573808080802002056465",
                "7074680000000000000440036e6567000000000000f0bf"
            ),
        ),
        (
            "stats-snapshot/empty",
            Frame::StatsSnapshot { wall_us: 0, counters: vec![], gauges: vec![] },
            "524e010b03000000",
        ),
        (
            "block-put",
            Frame::BlockPut { hash: u128::MAX - 3, blob: blob("ds", &[0x5a; 4]) },
            concat!("524e010c1cffffffffffffffffff01fcffffffffffffffff01026473045a5a5a", "5a"),
        ),
        ("block-request", Frame::BlockRequest { hash: 1 }, "524e010d020001"),
        (
            "block-data",
            Frame::BlockData { hash: 1 << 100, blob: blob("ds", &[]) },
            "524e010e0b8080808080020002647300",
        ),
        (
            "block-evict",
            Frame::BlockEvict { hash: 0x0123_4567_89ab_cdef_u128 << 64 },
            "524e010f0aef9bafcdf8acd1910100",
        ),
        (
            "client-hello",
            Frame::ClientHello { tenant: "acme".into(), proto: 1 },
            "524e0110060461636d6501",
        ),
        (
            "submit-sweep",
            Frame::SubmitSweep {
                name: "nightly".into(),
                space_json: r#"{"b":[32]}"#.into(),
                algo: "grid".into(),
                trials: 0,
                seed: 42,
                wave: 200,
            },
            "524e01111c076e696768746c790a7b2262223a5b33325d7d0467726964002ac801",
        ),
        (
            "sweep-reject",
            Frame::SweepReject { code: 1, message: "full".into() },
            "524e011206010466756c6c",
        ),
        (
            "sweep-status",
            Frame::SweepStatus {
                sweep_id: 3,
                state: 1,
                done: 5,
                failed: 1,
                total: 8,
                best_acc: 0.91,
                best_label: "lr=1".into(),
                throttled: 4,
                follow: 0,
            },
            "524e01131403010501081f85eb51b81eed3f046c723d310400",
        ),
        (
            "leaderboard-chunk",
            Frame::LeaderboardChunk {
                sweep_id: 3,
                rows: vec![
                    LeaderRow { label: "a".into(), accuracy: 0.91, epochs: 2, task_us: 123_456 },
                    LeaderRow { label: "b".into(), accuracy: 0.5, epochs: 1, task_us: 60 },
                ],
            },
            "524e01141c030201611f85eb51b81eed3f02c0c4070162000000000000e03f013c",
        ),
        (
            "leaderboard-chunk/empty",
            Frame::LeaderboardChunk { sweep_id: 9, rows: vec![] },
            "524e0114020900",
        ),
        ("cancel-sweep", Frame::CancelSweep { sweep_id: 3 }, "524e01150103"),
        (
            "sweep-done",
            Frame::SweepDone { sweep_id: 4, state: 3, wall_us: 1, message: "parse".into() },
            "524e011609040301057061727365",
        ),
        ("shutdown", Frame::Shutdown, "524e010900"),
    ]
}

#[test]
fn every_frame_encodes_to_its_golden_bytes() {
    let mut drift = Vec::new();
    for (label, frame, want) in golden() {
        let got = hex(&frame.encode());
        if got != want {
            drift.push(format!("{label}: got {got}, pinned {want}"));
        }
    }
    assert!(drift.is_empty(), "wire encoding drifted:\n{}", drift.join("\n"));
}

#[test]
fn golden_bytes_decode_to_their_frames() {
    for (label, frame, want) in golden() {
        let wire = unhex(want);
        let (decoded, used) = Frame::decode(&wire).unwrap().expect(label);
        assert_eq!(decoded, frame, "{label}");
        assert_eq!(used, wire.len(), "{label}");
    }
}

#[test]
fn golden_set_covers_every_frame_type() {
    let mut types: Vec<u8> = golden().iter().map(|(_, f, _)| f.encode()[3]).collect();
    types.sort_unstable();
    types.dedup();
    assert_eq!(types, (1..=22).collect::<Vec<u8>>());
}
