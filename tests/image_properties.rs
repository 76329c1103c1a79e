//! Property tests on the checkpoint image codec: arbitrary images
//! round-trip exactly, and corruption is always detected.

use cruz_repro::simnet::addr::{IpAddr, MacAddr, SockAddr};
use cruz_repro::zap::image::{
    AreaImage, DescImage, GroupImage, ImageError, MacMode, PipeImage, PodImage, ProcImage,
    RunStateImage, SemImage, ShmImage, SockImage, TcpConnImage,
};
use proptest::prelude::*;

fn arb_sockaddr() -> impl Strategy<Value = SockAddr> {
    (any::<u32>(), any::<u16>()).prop_map(|(ip, port)| SockAddr::new(IpAddr::from_bits(ip), port))
}

fn arb_conn() -> impl Strategy<Value = TcpConnImage> {
    (
        arb_sockaddr(),
        arb_sockaddr(),
        0u8..=9,
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        any::<bool>(),
        any::<bool>(),
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 0..4),
        proptest::collection::vec(any::<u8>(), 0..64),
    )
        .prop_map(
            |(
                local,
                remote,
                state,
                snd_una,
                rcv_nxt,
                peer_window,
                nodelay,
                cork,
                inflight,
                unsent,
            )| {
                TcpConnImage {
                    local,
                    remote,
                    state,
                    snd_una,
                    rcv_nxt,
                    peer_window,
                    nodelay,
                    cork,
                    inflight,
                    unsent,
                }
            },
        )
}

fn arb_sock() -> impl Strategy<Value = SockImage> {
    prop_oneof![
        (
            arb_sockaddr(),
            1u32..16,
            proptest::collection::vec(
                (arb_conn(), proptest::collection::vec(any::<u8>(), 0..32)),
                0..3
            )
        )
            .prop_map(|(local, backlog, pending)| SockImage::Listen {
                local,
                backlog,
                pending
            }),
        (arb_conn(), proptest::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(snap, alt_recv)| SockImage::Conn { snap, alt_recv }),
        (
            proptest::option::of(arb_sockaddr()),
            proptest::collection::vec(
                (
                    arb_sockaddr(),
                    proptest::collection::vec(any::<u8>(), 0..32)
                ),
                0..3
            )
        )
            .prop_map(|(bound, queue)| SockImage::Udp { bound, queue }),
        proptest::option::of(arb_sockaddr()).prop_map(|bound| SockImage::Fresh { bound }),
    ]
}

fn arb_desc() -> impl Strategy<Value = DescImage> {
    prop_oneof![
        Just(DescImage::Console),
        ("[a-z/]{1,12}", any::<u64>()).prop_map(|(path, offset)| DescImage::File { path, offset }),
        (0u32..4, any::<bool>())
            .prop_map(|(index, write_end)| DescImage::Pipe { index, write_end }),
        (0u32..4).prop_map(|index| DescImage::Socket { index }),
    ]
}

fn arb_group() -> impl Strategy<Value = GroupImage> {
    (
        proptest::collection::vec(
            (
                0u64..1u64 << 20,
                1u64..16,
                "[a-z]{1,8}",
                proptest::option::of(0u32..2),
            )
                .prop_map(|(page, pages, tag, shm_index)| AreaImage {
                    start: page * 4096,
                    len: pages * 4096,
                    tag,
                    shm_index,
                }),
            0..4,
        ),
        proptest::collection::vec(
            (
                0u64..1u64 << 20,
                proptest::collection::vec(any::<u8>(), 1..64),
            )
                .prop_map(|(page, data)| (page * 4096, data)),
            0..4,
        ),
        proptest::collection::vec((0u32..16, arb_desc()), 0..5),
    )
        .prop_map(|(areas, pages, fds)| GroupImage { areas, pages, fds })
}

fn arb_proc() -> impl Strategy<Value = ProcImage> {
    (
        1u32..100,
        0u32..100,
        0u32..4,
        proptest::array::uniform16(any::<u64>()),
        any::<u64>(),
        any::<bool>(),
        proptest::option::of((any::<u64>(), proptest::array::uniform5(any::<u64>()))),
        prop_oneof![
            Just(RunStateImage::Ready),
            any::<u64>().prop_map(RunStateImage::SleepUntil),
            any::<u64>().prop_map(RunStateImage::Zombie),
        ],
        proptest::collection::vec("[ -~]{0,20}", 0..3),
    )
        .prop_map(
            |(vpid, parent_vpid, group, regs, pc, halted, pending, run_state, console)| ProcImage {
                vpid,
                parent_vpid,
                group,
                regs,
                pc,
                halted,
                pending,
                run_state,
                console,
            },
        )
}

fn arb_image() -> impl Strategy<Value = PodImage> {
    (
        "[a-z0-9:]{1,16}",
        any::<u32>(),
        prop_oneof![
            proptest::array::uniform6(any::<u8>())
                .prop_map(|m| MacMode::Dedicated(MacAddr::new(m))),
            proptest::array::uniform6(any::<u8>()).prop_map(|m| MacMode::SharedPhysical {
                fake_mac: MacAddr::new(m)
            }),
        ],
        1u32..1000,
        proptest::collection::vec(
            (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..64))
                .prop_map(|(key, data)| ShmImage { key, data }),
            0..3,
        ),
        proptest::collection::vec(
            (any::<u64>(), proptest::collection::vec(any::<i64>(), 1..4))
                .prop_map(|(key, values)| SemImage { key, values }),
            0..3,
        ),
        proptest::collection::vec(
            (
                proptest::collection::vec(any::<u8>(), 0..64),
                0u32..4,
                0u32..4,
            )
                .prop_map(|(data, readers, writers)| PipeImage {
                    data,
                    readers,
                    writers,
                }),
            0..3,
        ),
        proptest::collection::vec(arb_sock(), 0..4),
        proptest::collection::vec(arb_group(), 0..3),
        proptest::collection::vec(arb_proc(), 0..4),
    )
        .prop_map(
            |(name, ip, mac_mode, next_vpid, shm, sems, pipes, sockets, groups, procs)| PodImage {
                name,
                ip: IpAddr::from_bits(ip),
                mac_mode,
                next_vpid,
                shm,
                sems,
                pipes,
                sockets,
                groups,
                procs,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn arbitrary_images_round_trip(img in arb_image()) {
        let bytes = img.encode();
        let back = PodImage::decode(&bytes).expect("valid image decodes");
        prop_assert_eq!(img, back);
    }

    #[test]
    fn single_byte_corruption_is_always_detected(
        img in arb_image(),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let mut bytes = img.encode();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= flip;
        // Either the checksum catches it, or (if the flip is in the
        // checksum itself) the mismatch is still an error. A silent wrong
        // decode is the only forbidden outcome.
        match PodImage::decode(&bytes) {
            Err(_) => {}
            Ok(decoded) => prop_assert_eq!(decoded, img, "decode must not silently differ"),
        }
    }

    #[test]
    fn truncation_is_always_detected(img in arb_image(), cut_frac in 0.0f64..1.0) {
        let bytes = img.encode();
        let keep = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        let r = PodImage::decode(&bytes[..keep]);
        prop_assert!(r.is_err(), "truncated image must not decode");
        let _ = matches!(r, Err(ImageError::Truncated) | Err(ImageError::BadChecksum));
    }
}
