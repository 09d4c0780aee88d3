//! Property tests for the packed flow key a [`nettrace::FlowTable`]
//! stores: packing is lossless, the packed words order keys exactly as
//! `FlowKey`'s `Ord` does (the table sorts and breaks LRU ties on the
//! words), and no key a packet can carry packs to the empty-slot
//! marker `[0, 0]`.

use nettrace::{FlowKey, Micros, PacketRecord, Protocol};
use proptest::prelude::*;

fn tuple(protocol: u8, src_port: u16, dst_port: u16, src_net: u16, dst_net: u16) -> FlowKey {
    FlowKey::Tuple {
        protocol,
        src_port,
        dst_port,
        src_net,
        dst_net,
    }
}

/// Nonzero ids (`u32::MAX` and a small colliding range among them) and
/// tuples: all-zero, all-ones, fields from `{0, 1}` so pairs often tie
/// on a prefix, and arbitrary fields.
fn key() -> impl Strategy<Value = FlowKey> {
    let fields = (any::<u16>(), any::<u16>(), any::<u16>(), any::<u16>());
    (0u8..7, any::<u32>(), any::<u8>(), fields).prop_map(|(shape, id, protocol, (a, b, c, d))| {
        match shape {
            0 => FlowKey::Id(u32::MAX),
            1 => FlowKey::Id(id.max(1)),
            2 => FlowKey::Id(id % 4 + 1),
            3 => tuple(0, 0, 0, 0, 0),
            4 => tuple(u8::MAX, u16::MAX, u16::MAX, u16::MAX, u16::MAX),
            5 => tuple(protocol % 2, a % 2, b % 2, c % 2, d % 2),
            _ => tuple(protocol, a, b, c, d),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn unpack_inverts_pack(k in key()) {
        prop_assert_eq!(FlowKey::unpack(k.pack()), k);
        prop_assert!(k.pack() != [0, 0], "{k:?} packs to the empty-slot marker");
    }

    #[test]
    fn packed_words_order_like_keys(a in key(), b in key()) {
        prop_assert_eq!(a.pack().cmp(&b.pack()), a.cmp(&b), "{:?} vs {:?}", a, b);
        prop_assert_eq!(b.pack().cmp(&a.pack()), b.cmp(&a));
        prop_assert_eq!(a.pack().cmp(&a.pack()), std::cmp::Ordering::Equal);
    }

    #[test]
    fn packet_keys_never_pack_empty(
        flow_id in any::<u32>(),
        protocol in any::<u8>(),
        ports in (any::<u16>(), any::<u16>()),
        nets in (any::<u16>(), any::<u16>()),
        zero_id in any::<bool>(),
    ) {
        let p = PacketRecord::new(Micros(0), 40)
            .with_protocol(Protocol::from_number(protocol))
            .with_ports(ports.0, ports.1)
            .with_nets(nets.0, nets.1)
            .with_flow(if zero_id { 0 } else { flow_id }, false);
        let k = FlowKey::of(&p);
        prop_assert!(k.pack() != [0, 0], "{:?} packs to the empty-slot marker", k);
        prop_assert_eq!(FlowKey::unpack(k.pack()), k);
    }
}
