//! Bounded-memory flow aggregation.
//!
//! A [`FlowTable`] groups packets into flows — by synthetic flow id
//! when one is present, by 5-tuple otherwise — and accumulates per-flow
//! packet/byte counts, SYN observation, and first/last timestamps. It
//! is the aggregation substrate of the flow-statistics inversion suite:
//! run it over the *sampled* packet stream and the resulting sampled
//! flow sizes feed `statkit::inversion`; run it over the full trace and
//! the sizes are the ground truth the estimators are scored against.
//!
//! Two properties matter and are pinned by tests:
//!
//! * **Determinism** — storage is a hash map under a fixed (never
//!   randomized) in-tree hasher, every ordered read ([`FlowTable::flows`],
//!   [`FlowTable::sizes`]) sorts by key before returning, and batch
//!   construction is defined as the left fold of [`FlowTable::offer`],
//!   so batch and streaming aggregation are bit-identical.
//! * **Bounded memory** — a capacity-limited table evicts the least
//!   -recently-updated flow (smallest key on ties) when a new flow
//!   would exceed the cap, counting what it dropped; surviving flows
//!   are never corrupted by an eviction.
//!
//! The hot path is `O(1)` per packet: an unbounded table is one hash
//! probe per offer (no eviction index at all), which is what lets the
//! streaming windower aggregate flows per bucket at line rate — in runs,
//! via [`FlowTable::offer_slice`] — and enforce its budget once per
//! window via [`FlowTable::truncate_lru`].
//!
//! A bounded table keeps an LRU order index beside the map. Offers to a
//! table created bounded maintain it as they go; [`FlowTable::truncate_lru`]
//! only marks it stale, and the next bounded [`FlowTable::offer`] or
//! [`FlowTable::merge`] rebuilds it. A table truncated and then only
//! read — the windower's case — never builds the index at all.

use crate::histogram::{BinSpec, Histogram};
use crate::packet::{PacketRecord, Protocol};
use crate::time::Micros;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// Deterministic multiply-xor hasher (FxHash-style) for flow keys.
///
/// `std`'s default hasher is seeded per process; flow aggregation must
/// hash identically on every run, so the table pins this fixed-key
/// folding instead. Not DoS-hardened — flow keys come from decoded
/// captures we already bound elsewhere, not from an open network
/// socket.
#[derive(Debug, Default)]
pub struct FlowHasher {
    state: u64,
}

impl FlowHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        const K: u64 = 0x517c_c1b7_2722_0a95;
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FlowHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.fold(word);
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

type FlowMap = HashMap<FlowKey, FlowRecord, BuildHasherDefault<FlowHasher>>;

/// Flow identity: synthetic id when assigned, 5-tuple otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FlowKey {
    /// Synthetic flow id (nonzero), as set by the flow generators.
    Id(u32),
    /// Classic 5-tuple for packets without a synthetic id.
    Tuple {
        /// IP protocol number.
        protocol: u8,
        /// Source port.
        src_port: u16,
        /// Destination port.
        dst_port: u16,
        /// Source network number.
        src_net: u16,
        /// Destination network number.
        dst_net: u16,
    },
}

impl FlowKey {
    /// The key a packet aggregates under.
    #[must_use]
    pub fn of(p: &PacketRecord) -> FlowKey {
        if p.flow_id != 0 {
            FlowKey::Id(p.flow_id)
        } else {
            FlowKey::Tuple {
                protocol: p.protocol.number(),
                src_port: p.src_port,
                dst_port: p.dst_port,
                src_net: p.src_net,
                dst_net: p.dst_net,
            }
        }
    }
}

impl std::hash::Hash for FlowKey {
    /// Pack the whole identity into two words (variant tag in the low
    /// bit) so hashing is two folds, not one per field.
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        match *self {
            FlowKey::Id(id) => {
                state.write_u64(u64::from(id) << 1);
                state.write_u64(0);
            }
            FlowKey::Tuple {
                protocol,
                src_port,
                dst_port,
                src_net,
                dst_net,
            } => {
                state.write_u64(
                    (u64::from(protocol) << 33)
                        | (u64::from(src_port) << 17)
                        | (u64::from(dst_port) << 1)
                        | 1,
                );
                state.write_u64((u64::from(src_net) << 16) | u64::from(dst_net));
            }
        }
    }
}

impl std::fmt::Display for FlowKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowKey::Id(id) => write!(f, "flow#{id}"),
            FlowKey::Tuple {
                protocol,
                src_port,
                dst_port,
                src_net,
                dst_net,
            } => write!(
                f,
                "{}:{src_net}.{src_port}>{dst_net}.{dst_port}",
                Protocol::from_number(*protocol)
            ),
        }
    }
}

/// Accumulated state of one flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowRecord {
    /// Packets observed.
    pub packets: u64,
    /// Bytes observed (sum of packet sizes).
    pub bytes: u64,
    /// Whether a SYN-flagged packet was observed.
    pub syn_seen: bool,
    /// Timestamp of the first observed packet.
    pub first_ts: Micros,
    /// Timestamp of the most recent observed packet.
    pub last_ts: Micros,
}

impl FlowRecord {
    /// The state of a flow that has seen exactly `p`.
    #[inline]
    fn of(p: &PacketRecord) -> FlowRecord {
        FlowRecord {
            packets: 1,
            bytes: u64::from(p.size),
            syn_seen: p.syn(),
            first_ts: p.timestamp,
            last_ts: p.timestamp,
        }
    }

    /// The per-flow update rule: counters add, SYN ors, first/last
    /// timestamps widen.
    #[inline]
    fn absorb(&mut self, other: &FlowRecord) {
        self.packets += other.packets;
        self.bytes += other.bytes;
        self.syn_seen |= other.syn_seen;
        self.first_ts = self.first_ts.min(other.first_ts);
        self.last_ts = self.last_ts.max(other.last_ts);
    }
}

/// Bounded, deterministic flow aggregator. See the module docs.
#[derive(Debug, Clone)]
pub struct FlowTable {
    map: FlowMap,
    /// Eviction index mirroring `map`: one `(last_ts, key)` entry per
    /// live flow, so the LRU victim is `O(log n)` to find instead of a
    /// full scan — at capacity every new flow evicts, and a linear
    /// scan there turns streaming aggregation quadratic. Unbounded
    /// tables never evict, so they skip the index entirely.
    order: BTreeSet<(Micros, FlowKey)>,
    /// Set by [`FlowTable::truncate_lru`] on a bounded table: `order` is
    /// empty and must be rebuilt before the next bounded offer or merge.
    order_stale: bool,
    cap: usize,
    evicted_flows: u64,
    evicted_packets: u64,
    offered: u64,
}

impl FlowTable {
    /// A table evicting past `cap` live flows.
    ///
    /// # Panics
    /// Panics when `cap == 0` — a table that can hold nothing cannot
    /// aggregate anything.
    #[must_use]
    pub fn with_capacity(cap: usize) -> FlowTable {
        assert!(cap > 0, "flow table capacity must be positive");
        FlowTable {
            map: FlowMap::default(),
            order: BTreeSet::new(),
            order_stale: false,
            cap,
            evicted_flows: 0,
            evicted_packets: 0,
            offered: 0,
        }
    }

    /// An effectively unbounded table (capacity `usize::MAX`).
    #[must_use]
    pub fn unbounded() -> FlowTable {
        FlowTable::with_capacity(usize::MAX)
    }

    /// Pre-size the storage for about `flows` live flows, so a burst of
    /// distinct flows does not pay a chain of rehashes. A hint, not a
    /// bound: the table still grows past it.
    pub fn reserve(&mut self, flows: usize) {
        self.map.reserve(flows.saturating_sub(self.map.len()));
    }

    /// Aggregate every packet of a slice: exactly the left fold of
    /// [`FlowTable::offer`], so it is bit-identical to streaming the
    /// same packets one at a time.
    #[must_use]
    pub fn from_packets(cap: usize, packets: &[PacketRecord]) -> FlowTable {
        let mut t = FlowTable::with_capacity(cap);
        t.offer_slice(packets);
        t
    }

    /// Offer one packet. A packet for a new flow when the table is at
    /// capacity first evicts the least-recently-updated flow (smallest
    /// key on ties).
    pub fn offer(&mut self, p: &PacketRecord) {
        self.offer_slice(std::slice::from_ref(p));
    }

    /// Offer a run of packets in order: exactly the left fold of
    /// [`FlowTable::offer`]. On an unbounded table it is one tight loop
    /// of hash probes and updates with no eviction or index work, so
    /// the lookups of consecutive packets can overlap their cache
    /// misses.
    pub fn offer_slice(&mut self, pkts: &[PacketRecord]) {
        self.offered += pkts.len() as u64;
        if self.cap == usize::MAX {
            // The update is spelled out here rather than through `fold`:
            // with `fold`'s index branches in the body the loop ran the
            // soak windower at about half the rate.
            for p in pkts {
                let rec = FlowRecord::of(p);
                match self.map.entry(FlowKey::of(p)) {
                    Entry::Occupied(mut e) => e.get_mut().absorb(&rec),
                    Entry::Vacant(e) => {
                        e.insert(rec);
                    }
                }
            }
            return;
        }
        self.refresh_order();
        for p in pkts {
            let key = FlowKey::of(p);
            if self.map.len() >= self.cap && !self.map.contains_key(&key) {
                self.evict_one();
            }
            self.fold(key, &FlowRecord::of(p));
        }
    }

    /// Fold `rec` into flow `key` (no eviction) by
    /// [`FlowRecord::absorb`], keeping the LRU index in step on a
    /// bounded table. Shared by offers and merges.
    fn fold(&mut self, key: FlowKey, rec: &FlowRecord) {
        let indexed = self.cap != usize::MAX;
        match self.map.entry(key) {
            Entry::Occupied(mut e) => {
                let r = e.get_mut();
                let last = r.last_ts;
                r.absorb(rec);
                if indexed && r.last_ts != last {
                    self.order.remove(&(last, key));
                    self.order.insert((r.last_ts, key));
                }
            }
            Entry::Vacant(e) => {
                e.insert(*rec);
                if indexed {
                    self.order.insert((rec.last_ts, key));
                }
            }
        }
    }

    /// Rebuild the LRU index if [`FlowTable::truncate_lru`] left it
    /// stale; a no-op otherwise.
    fn refresh_order(&mut self) {
        if self.order_stale {
            self.order = self.map.iter().map(|(k, r)| (r.last_ts, *k)).collect();
            self.order_stale = false;
        }
    }

    /// Evict the least-recently-updated flow; ties broken by smallest
    /// key, so eviction is fully deterministic.
    fn evict_one(&mut self) {
        if let Some((_, key)) = self.order.pop_first() {
            if let Some(rec) = self.map.remove(&key) {
                self.evicted_flows += 1;
                self.evicted_packets += rec.packets;
            }
        }
    }

    /// Merge another table's flows into this one (first/last timestamps
    /// widen, counters add, SYN ors). The merged table keeps *this*
    /// table's capacity and may evict to respect it.
    ///
    /// A bounded merge processes `other`'s flows in key order so the
    /// interleaving of insertions and evictions — and therefore the
    /// surviving set — is deterministic. An unbounded merge never
    /// evicts, so every per-flow update commutes and the flows are
    /// folded in storage order directly.
    pub fn merge(&mut self, other: &FlowTable) {
        if self.cap == usize::MAX {
            for (key, rec) in &other.map {
                self.fold(*key, rec);
            }
        } else {
            self.refresh_order();
            let mut keys: Vec<&FlowKey> = other.map.keys().collect();
            keys.sort_unstable();
            for key in keys {
                if self.map.len() >= self.cap && !self.map.contains_key(key) {
                    self.evict_one();
                }
                self.fold(*key, &other.map[key]);
            }
        }
        self.evicted_flows += other.evicted_flows;
        self.evicted_packets += other.evicted_packets;
        self.offered += other.offered;
    }

    /// Enforce a capacity bound in one shot: keep the `cap`
    /// most-recently-updated flows (largest key on ties) and evict the
    /// rest, counting them exactly like incremental eviction. The
    /// table's capacity becomes `cap`, so later offers keep the bound.
    ///
    /// This is the windower's merge-time budget: buckets aggregate
    /// unbounded (one hash probe per packet), and the survivor set is
    /// chosen once per window — `O(flows)` to select — instead of
    /// maintaining an eviction index on every packet.
    ///
    /// The LRU index is not rebuilt here: a bounded result only marks it
    /// stale, and the next [`FlowTable::offer`] or [`FlowTable::merge`]
    /// rebuilds it before its first bounded step, so eviction after a
    /// truncate is unchanged. A truncated table that is only read never
    /// pays for the index.
    ///
    /// # Panics
    /// Panics when `cap == 0`.
    pub fn truncate_lru(&mut self, cap: usize) {
        assert!(cap > 0, "flow table capacity must be positive");
        self.cap = cap;
        if self.map.len() > cap {
            let mut ranks: Vec<(Micros, FlowKey)> =
                self.map.iter().map(|(k, r)| (r.last_ts, *k)).collect();
            // Partition around the cap'th most-recent entry: everything
            // below the pivot is evicted. O(flows), no full sort.
            let cut = ranks.len() - cap;
            ranks.select_nth_unstable(cut - 1);
            for &(_, key) in &ranks[..cut] {
                if let Some(rec) = self.map.remove(&key) {
                    self.evicted_flows += 1;
                    self.evicted_packets += rec.packets;
                }
            }
        }
        self.order.clear();
        self.order_stale = self.cap != usize::MAX;
    }

    /// Live flows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no flows are live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Packets offered (including any later evicted).
    #[must_use]
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Flows evicted by the capacity bound.
    #[must_use]
    pub fn evicted_flows(&self) -> u64 {
        self.evicted_flows
    }

    /// Packets inside evicted flows at their eviction instants.
    #[must_use]
    pub fn evicted_packets(&self) -> u64 {
        self.evicted_packets
    }

    /// Iterate live flows in key order.
    pub fn flows(&self) -> impl Iterator<Item = (&FlowKey, &FlowRecord)> {
        let mut v: Vec<(&FlowKey, &FlowRecord)> = self.map.iter().collect();
        v.sort_unstable_by_key(|&(k, _)| *k);
        v.into_iter()
    }

    /// Live flow sizes (packets per flow) in key order.
    #[must_use]
    pub fn sizes(&self) -> Vec<u64> {
        self.flows().map(|(_, r)| r.packets).collect()
    }

    /// Live flows that saw a SYN.
    #[must_use]
    pub fn syn_flows(&self) -> u64 {
        self.map.values().filter(|r| r.syn_seen).count() as u64
    }

    /// Packets held by live flows.
    #[must_use]
    pub fn live_packets(&self) -> u64 {
        self.map.values().map(|r| r.packets).sum()
    }

    /// Histogram of live flow sizes under `spec`.
    #[must_use]
    pub fn size_histogram(&self, spec: &BinSpec) -> Histogram {
        Histogram::from_values(spec.clone(), self.map.values().map(|r| r.packets))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(t: u64, flow: u32, first: bool) -> PacketRecord {
        PacketRecord::new(Micros(t), 100).with_flow(flow, first)
    }

    #[test]
    fn groups_by_flow_id_and_tuple() {
        let mut t = FlowTable::unbounded();
        t.offer(&pkt(0, 1, true));
        t.offer(&pkt(10, 1, false));
        t.offer(&pkt(20, 2, true));
        // No flow id: keyed by 5-tuple.
        t.offer(&PacketRecord::new(Micros(30), 40).with_ports(53, 53));
        t.offer(&PacketRecord::new(Micros(40), 40).with_ports(53, 53));
        t.offer(&PacketRecord::new(Micros(50), 40).with_ports(80, 80));
        assert_eq!(t.len(), 4);
        assert_eq!(t.sizes(), vec![2, 1, 2, 1]);
        assert_eq!(t.syn_flows(), 2);
        assert_eq!(t.offered(), 6);
        assert_eq!(t.live_packets(), 6);
        let rec = t.flows().next().unwrap().1;
        assert_eq!(rec.packets, 2);
        assert_eq!(rec.bytes, 200);
        assert!(rec.syn_seen);
        assert_eq!(rec.first_ts, Micros(0));
        assert_eq!(rec.last_ts, Micros(10));
    }

    #[test]
    fn eviction_is_lru_with_key_tiebreak_and_counts() {
        let mut t = FlowTable::with_capacity(2);
        t.offer(&pkt(0, 1, true));
        t.offer(&pkt(5, 2, true));
        t.offer(&pkt(5, 2, false));
        // Flow 3 arrives at capacity: flow 1 (oldest last_ts) goes.
        t.offer(&pkt(10, 3, true));
        assert_eq!(t.len(), 2);
        assert_eq!(t.evicted_flows(), 1);
        assert_eq!(t.evicted_packets(), 1);
        let keys: Vec<FlowKey> = t.flows().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![FlowKey::Id(2), FlowKey::Id(3)]);
        // Survivors keep exact counts (no corruption by eviction).
        assert_eq!(t.sizes(), vec![2, 1]);
        // Equal last_ts: the smallest key is the victim.
        let mut t = FlowTable::with_capacity(2);
        t.offer(&pkt(7, 5, true));
        t.offer(&pkt(7, 4, true));
        t.offer(&pkt(9, 6, true));
        let keys: Vec<FlowKey> = t.flows().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![FlowKey::Id(5), FlowKey::Id(6)]);
    }

    #[test]
    fn batch_is_fold_of_offer() {
        let pkts: Vec<PacketRecord> = (0..100)
            .map(|i| pkt(i, (i % 7) as u32 + 1, i < 7))
            .collect();
        let batch = FlowTable::from_packets(3, &pkts);
        let mut streamed = FlowTable::with_capacity(3);
        for p in &pkts {
            streamed.offer(p);
        }
        assert_eq!(batch.sizes(), streamed.sizes());
        assert_eq!(batch.evicted_flows(), streamed.evicted_flows());
        assert_eq!(batch.offered(), streamed.offered());
    }

    #[test]
    fn merge_combines_flows() {
        let mut a = FlowTable::unbounded();
        a.offer(&pkt(0, 1, true));
        a.offer(&pkt(10, 2, true));
        let mut b = FlowTable::unbounded();
        b.offer(&pkt(20, 1, false));
        b.offer(&pkt(30, 3, true));
        a.merge(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.sizes(), vec![2, 1, 1]);
        assert_eq!(a.offered(), 4);
        let rec = a.flows().next().unwrap().1;
        assert_eq!((rec.first_ts, rec.last_ts), (Micros(0), Micros(20)));
        assert!(rec.syn_seen);
    }

    /// Brute-force LRU reference: a flat list scanned for every victim,
    /// sharing none of the table's map, index or stale-index rebuild.
    struct Model {
        cap: usize,
        flows: Vec<(FlowKey, FlowRecord)>,
        evicted_flows: u64,
        evicted_packets: u64,
    }

    impl Model {
        fn new(cap: usize) -> Model {
            Model {
                cap,
                flows: Vec::new(),
                evicted_flows: 0,
                evicted_packets: 0,
            }
        }

        fn fold(&mut self, key: FlowKey, rec: FlowRecord) {
            if let Some((_, r)) = self.flows.iter_mut().find(|(k, _)| *k == key) {
                r.packets += rec.packets;
                r.bytes += rec.bytes;
                r.syn_seen |= rec.syn_seen;
                r.first_ts = r.first_ts.min(rec.first_ts);
                r.last_ts = r.last_ts.max(rec.last_ts);
                return;
            }
            if self.flows.len() >= self.cap {
                self.evict_oldest();
            }
            self.flows.push((key, rec));
        }

        fn offer(&mut self, p: &PacketRecord) {
            let rec = FlowRecord {
                packets: 1,
                bytes: u64::from(p.size),
                syn_seen: p.syn(),
                first_ts: p.timestamp,
                last_ts: p.timestamp,
            };
            self.fold(FlowKey::of(p), rec);
        }

        fn evict_oldest(&mut self) {
            let victim = (0..self.flows.len())
                .min_by_key(|&i| (self.flows[i].1.last_ts, self.flows[i].0))
                .unwrap();
            let (_, rec) = self.flows.remove(victim);
            self.evicted_flows += 1;
            self.evicted_packets += rec.packets;
        }

        fn truncate(&mut self, cap: usize) {
            self.cap = cap;
            while self.flows.len() > cap {
                self.evict_oldest();
            }
        }

        fn snapshot(&self) -> Vec<(FlowKey, FlowRecord)> {
            let mut v = self.flows.clone();
            v.sort_unstable_by_key(|&(k, _)| k);
            v
        }
    }

    fn snapshot(t: &FlowTable) -> Vec<(FlowKey, FlowRecord)> {
        t.flows().map(|(k, r)| (*k, *r)).collect()
    }

    /// `n` packets over `flows` ids with coarse, often equal, sometimes
    /// backwards timestamps (a fixed LCG, so the stream is pinned).
    fn scrambled(n: u64, flows: u64, seed: u64) -> Vec<PacketRecord> {
        let mut x = seed;
        (0..n)
            .map(|i| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let flow = (x >> 33) % flows + 1;
                let t = (i + (x >> 60)) / 3;
                pkt(t, flow as u32, x >> 62 == 0)
            })
            .collect()
    }

    fn assert_matches(t: &FlowTable, m: &Model, what: &str) {
        assert_eq!(snapshot(t), m.snapshot(), "{what}: survivors");
        assert_eq!(t.evicted_flows(), m.evicted_flows, "{what}: victims");
        assert_eq!(t.evicted_packets(), m.evicted_packets, "{what}: packets");
    }

    #[test]
    fn offers_after_truncate_evict_like_a_brute_force_lru() {
        for cap in [1, 3, 8, 20] {
            let pkts = scrambled(300, 40, cap as u64);
            let (head, tail) = pkts.split_at(150);
            let mut t = FlowTable::from_packets(usize::MAX, head);
            let mut m = Model::new(usize::MAX);
            head.iter().for_each(|p| m.offer(p));
            t.truncate_lru(cap);
            m.truncate(cap);
            assert_matches(&t, &m, "truncate");
            for (i, p) in tail.iter().enumerate() {
                t.offer(p);
                m.offer(p);
                assert_matches(&t, &m, &format!("cap {cap}, offer {i}"));
            }
            assert!(m.evicted_flows > 40, "cap {cap}: the tail must evict");
        }
    }

    #[test]
    fn merge_after_truncate_evicts_like_a_brute_force_lru() {
        for cap in [1, 3, 8, 20] {
            let pkts = scrambled(300, 40, 100 + cap as u64);
            let (head, tail) = pkts.split_at(150);
            let mut t = FlowTable::from_packets(usize::MAX, head);
            let mut m = Model::new(usize::MAX);
            head.iter().for_each(|p| m.offer(p));
            t.truncate_lru(cap);
            m.truncate(cap);
            // A bounded merge folds the other table's flows in key order.
            let other = FlowTable::from_packets(usize::MAX, tail);
            t.merge(&other);
            for (k, r) in snapshot(&other) {
                m.fold(k, r);
            }
            assert_matches(&t, &m, &format!("cap {cap}, merge"));
            // The index the merge rebuilt keeps serving later offers.
            for p in &pkts[..50] {
                t.offer(p);
                m.offer(p);
            }
            assert_matches(&t, &m, &format!("cap {cap}, offers after merge"));
        }
    }

    #[test]
    fn size_histogram_counts_flows_not_packets() {
        let mut t = FlowTable::unbounded();
        for i in 0..10 {
            t.offer(&pkt(i, 1, i == 0));
        }
        t.offer(&pkt(100, 2, true));
        let h = t.size_histogram(&BinSpec::FixedWidth { width: 4, cap: 16 });
        assert_eq!(h.total(), 2); // two flows
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = FlowTable::with_capacity(0);
    }
}
