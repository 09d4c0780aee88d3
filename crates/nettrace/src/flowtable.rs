//! Flow aggregation.
//!
//! A [`FlowTable`] groups packets into flows — by synthetic flow id
//! when one is present, by 5-tuple otherwise — and accumulates per-flow
//! packet counts, SYN observation, and the last timestamp. It is the
//! aggregation substrate of the flow-statistics inversion suite: run it
//! over the *sampled* packet stream and the resulting sampled flow sizes
//! feed `statkit::inversion`; run it over the full trace and the sizes
//! are the ground truth the estimators are scored against.
//!
//! Two properties matter and are pinned by tests:
//!
//! * **Determinism** — the table's layout comes from a fixed (never
//!   randomized) multiply-xor hash, every ordered read
//!   ([`FlowTable::flows`], [`FlowTable::sizes`]) sorts by key before
//!   returning, and batch construction is defined as the left fold of
//!   [`FlowTable::offer`], so batch and streaming aggregation are
//!   bit-identical.
//! * **A one-shot bound** — offers and merges never evict. A caller
//!   that needs a flow budget applies it once, with
//!   [`FlowTable::truncate_lru`]: the least-recently-updated flows
//!   (smallest key on ties) go, counted, and the survivors are never
//!   corrupted by the cut.
//!
//! # Storage
//!
//! Flows live in one open-addressed array of 32-byte slots, a power of
//! two long and at most three quarters full, probed linearly from a
//! home slot taken from the top bits of the key's hash. A slot is four
//! words:
//!
//! * the [`FlowKey`] packed into two words by [`FlowKey::pack`]:
//!   `Id(id)` is `(0, id)` and a 5-tuple is
//!   `(1 << 8 | protocol, src_port ‖ dst_port ‖ src_net ‖ dst_net)`.
//!   Word order equals `FlowKey`'s derived `Ord`, so sorting and LRU
//!   tie-breaks work on the words directly, and `(0, 0)` — the never
//!   offered `Id(0)` — marks an empty slot;
//! * the packet count, with the SYN flag in bit 63;
//! * the full 64-bit last timestamp (hostile captures carry
//!   `u64::MAX`, so no bit is stolen from it).
//!
//! Deletion ([`FlowTable::truncate_lru`]) shifts the rest of the probe
//! run back over the hole, so there are no tombstones and lookups never
//! lengthen with churn.
//!
//! [`FlowTable::merge`] reserves room for both tables before it folds.
//! The other table's slots are read in hash order, and inserting a long
//! hash-ordered run into a smaller table that grows midway piles the
//! keys into a few long probe runs (linear probing's primary
//! clustering); with the room reserved up front, the run lands spread
//! at the table's final load.
//!
//! # Hot path
//!
//! The hot path is `O(1)` per packet: one probe run per offer, which is
//! what lets the streaming windower aggregate flows per bucket at line
//! rate — in runs, via [`FlowTable::offer_slice`] — and enforce its
//! budget once per window via [`FlowTable::truncate_lru`].

use crate::histogram::{BinSpec, Histogram};
use crate::packet::{PacketRecord, Protocol};
use crate::time::Micros;

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

/// First packed word of every [`FlowKey::Tuple`]: above any protocol
/// number, so tuples sort after ids and never pack to `(0, 0)`.
const TUPLE_TAG: u64 = 1 << 8;

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

    /// The key as two words, the form a [`FlowTable`] stores: `Id(id)`
    /// is `[0, id]`, a tuple is `[1 << 8 | protocol, src_port ‖
    /// dst_port ‖ src_net ‖ dst_net]` (16 bits each, most significant
    /// first). Comparing packed words orders keys exactly as
    /// `FlowKey`'s `Ord` does. `Id(0)`, which [`FlowKey::of`] never
    /// yields, packs to `[0, 0]`: the table's empty-slot marker.
    #[must_use]
    #[inline]
    pub fn pack(self) -> [u64; 2] {
        match self {
            FlowKey::Id(id) => [0, u64::from(id)],
            FlowKey::Tuple {
                protocol,
                src_port,
                dst_port,
                src_net,
                dst_net,
            } => [
                TUPLE_TAG | u64::from(protocol),
                (u64::from(src_port) << 48)
                    | (u64::from(dst_port) << 32)
                    | (u64::from(src_net) << 16)
                    | u64::from(dst_net),
            ],
        }
    }

    /// The key [`FlowKey::pack`] packed into `words`.
    #[must_use]
    pub fn unpack(words: [u64; 2]) -> FlowKey {
        let [tag, w] = words;
        if tag & TUPLE_TAG == 0 {
            FlowKey::Id(w as u32)
        } else {
            FlowKey::Tuple {
                protocol: tag as u8,
                src_port: (w >> 48) as u16,
                dst_port: (w >> 32) as u16,
                src_net: (w >> 16) as u16,
                dst_net: w as u16,
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
    /// Whether a SYN-flagged packet was observed.
    pub syn_seen: bool,
    /// Timestamp of the most recent observed packet.
    pub last_ts: Micros,
}

/// The SYN flag's bit in [`Slot::count`].
const SYN: u64 = 1 << 63;

/// The packed key of an empty slot (see [`FlowKey::pack`]).
const EMPTY: [u64; 2] = [0, 0];

/// Slots a table allocates on its first flow.
const MIN_SLOTS: usize = 16;

/// One table slot: a packed key and its flow's state, 32 bytes.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    key: [u64; 2],
    /// Packets observed, with the SYN flag in bit 63.
    count: u64,
    /// Timestamp of the most recent packet, in microseconds.
    last_ts: u64,
}

impl Slot {
    /// The state of a flow that has seen exactly `p`.
    #[inline]
    fn of(p: &PacketRecord) -> Slot {
        Slot {
            key: FlowKey::of(p).pack(),
            count: 1 | (u64::from(p.syn()) << 63),
            last_ts: p.timestamp.as_u64(),
        }
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.key == EMPTY
    }

    #[inline]
    fn packets(&self) -> u64 {
        self.count & !SYN
    }

    /// The per-flow update rule: packets add, SYN ors, the last
    /// timestamp widens.
    #[inline]
    fn absorb(&mut self, other: &Slot) {
        self.count = (self.count + other.packets()) | (other.count & SYN);
        self.last_ts = self.last_ts.max(other.last_ts);
    }

    fn record(&self) -> FlowRecord {
        FlowRecord {
            packets: self.packets(),
            syn_seen: self.count & SYN != 0,
            last_ts: Micros(self.last_ts),
        }
    }
}

/// Deterministic multiply-xor fold (FxHash-style) of a packed key.
///
/// `std`'s default hasher is seeded per process; flow aggregation must
/// lay out identically on every run, so the table pins this fixed-key
/// fold instead. Not DoS-hardened — flow keys come from decoded
/// captures we already bound elsewhere, not from an open network
/// socket.
///
/// The table takes the *top* bits, and an id key hashes to `id · K`,
/// so the multiplier is 2^64/φ (Fibonacci hashing): consecutive ids,
/// which the flow generators assign, land evenly spread. FxHash's own
/// multiplier is close to 2^64/π, whose 113/355 convergent bunches
/// consecutive ids into a few hundred arcs: a soak window's table,
/// grown from empty, averaged 16.9 slot probes per offer with it
/// against 1.1 with this one.
#[inline]
fn hash(key: [u64; 2]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    key.iter()
        .fold(0u64, |h, &w| (h.rotate_left(5) ^ w).wrapping_mul(K))
}

/// The most flows a table of `slots` slots holds before it grows.
fn max_load(slots: usize) -> usize {
    slots - slots / 4
}

#[cfg(test)]
thread_local! {
    /// Slots inspected by this thread's probe runs (see the merge
    /// linearity tests).
    static PROBES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Deterministic flow aggregator. See the module docs.
#[derive(Debug, Clone)]
pub struct FlowTable {
    /// Open-addressed slots: empty, or a power of two long and at most
    /// [`max_load`] full.
    slots: Vec<Slot>,
    /// Occupied slots: the live flows.
    len: usize,
    evicted_flows: u64,
    evicted_packets: u64,
    offered: u64,
}

impl FlowTable {
    /// An empty table. It grows with its flows; only
    /// [`FlowTable::truncate_lru`] removes any.
    #[must_use]
    pub fn unbounded() -> FlowTable {
        FlowTable {
            slots: Vec::new(),
            len: 0,
            evicted_flows: 0,
            evicted_packets: 0,
            offered: 0,
        }
    }

    /// Pre-size the storage for about `flows` live flows, so a burst of
    /// distinct flows does not pay a chain of regrowths. A hint, not a
    /// bound: the table still grows past it.
    pub fn reserve(&mut self, flows: usize) {
        if flows > max_load(self.slots.len()) {
            let mut slots = MIN_SLOTS;
            while max_load(slots) < flows {
                slots *= 2;
            }
            self.resize(slots);
        }
    }

    /// Aggregate every packet of a slice: exactly the left fold of
    /// [`FlowTable::offer`], so it is bit-identical to streaming the
    /// same packets one at a time.
    #[must_use]
    pub fn from_packets(packets: &[PacketRecord]) -> FlowTable {
        let mut t = FlowTable::unbounded();
        t.offer_slice(packets);
        t
    }

    /// Offer one packet.
    pub fn offer(&mut self, p: &PacketRecord) {
        self.offer_slice(std::slice::from_ref(p));
    }

    /// Offer a run of packets in order: exactly the left fold of
    /// [`FlowTable::offer`]. It is one tight loop of probes and updates,
    /// so the lookups of consecutive packets can overlap their cache
    /// misses.
    pub fn offer_slice(&mut self, pkts: &[PacketRecord]) {
        self.offered += pkts.len() as u64;
        for p in pkts {
            self.upsert(&Slot::of(p));
        }
    }

    /// The slot holding `key` (`Ok`) or the empty slot that ends its
    /// probe run (`Err`; `Err(0)` when nothing is allocated yet).
    #[inline]
    fn probe(&self, key: [u64; 2]) -> Result<usize, usize> {
        debug_assert!(key != EMPTY, "the empty-slot key is never stored");
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            #[cfg(test)]
            PROBES.with(|c| c.set(c.get() + 1));
            let s = &self.slots[i];
            if s.key == key {
                return Ok(i);
            }
            if s.is_empty() {
                return Err(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// The home slot of `key`: the top bits of its hash, which the
    /// fold's final multiply mixes best. The table must be allocated.
    #[inline]
    fn home(&self, key: [u64; 2]) -> usize {
        (hash(key) >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// Fold `flow` into its live flow by [`Slot::absorb`], or insert it
    /// as a new flow (growing first if the table is at its load
    /// limit). Forced inline: left to the heuristic, the offer loop
    /// called it out of line per packet, and `stream-capture` lost
    /// about 5% end to end.
    #[inline(always)]
    fn upsert(&mut self, flow: &Slot) {
        match self.probe(flow.key) {
            Ok(i) => self.slots[i].absorb(flow),
            Err(mut i) => {
                if self.len >= max_load(self.slots.len()) {
                    self.resize((2 * self.slots.len()).max(MIN_SLOTS));
                    i = self.probe(flow.key).unwrap_err();
                }
                self.slots[i] = *flow;
                self.len += 1;
            }
        }
    }

    /// Move every live flow into a fresh array of `slots` slots. The
    /// keys are distinct, so each lands in the first empty slot from
    /// its home without comparing keys.
    fn resize(&mut self, slots: usize) {
        let old = std::mem::replace(&mut self.slots, vec![Slot::default(); slots]);
        let mask = slots - 1;
        for s in old.into_iter().filter(|s| !s.is_empty()) {
            let mut i = self.home(s.key);
            while !self.slots[i].is_empty() {
                i = (i + 1) & mask;
            }
            self.slots[i] = s;
        }
    }

    /// Remove the live flow in slot `hole` and return it. Later members
    /// of its probe run that may sit earlier shift back one by one, so
    /// every remaining key stays reachable from its home without
    /// tombstones.
    fn remove_at(&mut self, mut hole: usize) -> Slot {
        let mask = self.slots.len() - 1;
        let removed = self.slots[hole];
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let s = self.slots[j];
            if s.is_empty() {
                break;
            }
            // `s` may fill the hole iff its home is not cyclically
            // inside (hole, j]: its distance from home reaches the hole.
            let home = self.home(s.key);
            if j.wrapping_sub(home) & mask >= j.wrapping_sub(hole) & mask {
                self.slots[hole] = s;
                hole = j;
            }
        }
        self.slots[hole] = Slot::default();
        self.len -= 1;
        removed
    }

    /// Merge another table's flows into this one (last timestamps
    /// widen, counters add, SYN ors). Every per-flow update commutes,
    /// so `other`'s flows are folded in storage order, after reserving
    /// room for both tables (see the module docs on primary clustering).
    pub fn merge(&mut self, other: &FlowTable) {
        self.reserve(self.len + other.len);
        for s in other.live() {
            self.upsert(s);
        }
        self.evicted_flows += other.evicted_flows;
        self.evicted_packets += other.evicted_packets;
        self.offered += other.offered;
    }

    /// Apply a flow budget in one shot: keep the `cap`
    /// most-recently-updated flows (largest key on ties) and evict the
    /// rest, counting them. The survivor set is chosen in `O(flows)`.
    /// The bound is not remembered: later offers and merges grow the
    /// table again.
    ///
    /// # Panics
    /// Panics when `cap == 0`.
    pub fn truncate_lru(&mut self, cap: usize) {
        assert!(cap > 0, "flow table capacity must be positive");
        if self.len > cap {
            let mut ranks: Vec<(u64, [u64; 2])> = self.live().map(|s| (s.last_ts, s.key)).collect();
            // Partition around the cap'th most-recent entry: everything
            // below the pivot is evicted. O(flows), no full sort.
            let cut = ranks.len() - cap;
            ranks.select_nth_unstable(cut - 1);
            for &(_, key) in &ranks[..cut] {
                let i = self.probe(key).expect("a ranked flow is live");
                self.evicted_packets += self.remove_at(i).packets();
            }
            self.evicted_flows += cut as u64;
        }
    }

    /// Live flows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no flows are live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Packets offered (including any later evicted).
    #[must_use]
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Flows evicted by [`FlowTable::truncate_lru`].
    #[must_use]
    pub fn evicted_flows(&self) -> u64 {
        self.evicted_flows
    }

    /// Packets held by evicted flows when they were evicted.
    #[must_use]
    pub fn evicted_packets(&self) -> u64 {
        self.evicted_packets
    }

    /// The occupied slots, in storage order.
    fn live(&self) -> impl Iterator<Item = &Slot> {
        self.slots.iter().filter(|s| !s.is_empty())
    }

    /// The occupied slots in key order.
    fn sorted(&self) -> Vec<Slot> {
        let mut v: Vec<Slot> = self.live().copied().collect();
        v.sort_unstable_by_key(|s| s.key);
        v
    }

    /// Live flows in key order.
    pub fn flows(&self) -> impl Iterator<Item = (FlowKey, FlowRecord)> {
        self.sorted()
            .into_iter()
            .map(|s| (FlowKey::unpack(s.key), s.record()))
    }

    /// Live flow sizes (packets per flow) in key order.
    #[must_use]
    pub fn sizes(&self) -> Vec<u64> {
        self.sorted().iter().map(Slot::packets).collect()
    }

    /// Live flows that saw a SYN.
    #[must_use]
    pub fn syn_flows(&self) -> u64 {
        self.slots.iter().filter(|s| s.count & SYN != 0).count() as u64
    }

    /// Packets held by live flows.
    #[must_use]
    pub fn live_packets(&self) -> u64 {
        self.slots.iter().map(Slot::packets).sum()
    }

    /// Histogram of live flow sizes under `spec`.
    #[must_use]
    pub fn size_histogram(&self, spec: &BinSpec) -> Histogram {
        Histogram::from_values(spec.clone(), self.live().map(Slot::packets))
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
        assert!(rec.syn_seen);
        assert_eq!(rec.last_ts, Micros(10));
    }

    #[test]
    fn batch_is_fold_of_offer() {
        let pkts: Vec<PacketRecord> = (0..100)
            .map(|i| pkt(i, (i % 7) as u32 + 1, i < 7))
            .collect();
        let batch = FlowTable::from_packets(&pkts);
        let mut streamed = FlowTable::unbounded();
        for p in &pkts {
            streamed.offer(p);
        }
        assert_eq!(batch.sizes(), streamed.sizes());
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
        assert_eq!(rec.last_ts, Micros(20));
        assert!(rec.syn_seen);
    }

    /// Brute-force LRU reference: a flat list scanned for every victim,
    /// sharing none of the table's slots or probe logic.
    #[derive(Default)]
    struct Model {
        flows: Vec<(FlowKey, FlowRecord)>,
        evicted_flows: u64,
        evicted_packets: u64,
    }

    impl Model {
        fn fold(&mut self, key: FlowKey, rec: FlowRecord) {
            if let Some((_, r)) = self.flows.iter_mut().find(|(k, _)| *k == key) {
                r.packets += rec.packets;
                r.syn_seen |= rec.syn_seen;
                r.last_ts = r.last_ts.max(rec.last_ts);
                return;
            }
            self.flows.push((key, rec));
        }

        fn offer(&mut self, p: &PacketRecord) {
            let rec = FlowRecord {
                packets: 1,
                syn_seen: p.syn(),
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
        t.flows().collect()
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
    fn offers_and_merges_after_truncate_match_a_reopened_model() {
        // The truncate leaves holes filled by backward shifts; later
        // offers and merges must still find every survivor, and the
        // table grows past the old cap like the reopened model.
        for cap in [1, 3, 8, 20] {
            let pkts = scrambled(300, 40, cap as u64);
            let (head, tail) = pkts.split_at(150);
            let (offered, merged) = tail.split_at(75);
            let mut t = FlowTable::from_packets(head);
            let mut m = Model::default();
            head.iter().for_each(|p| m.offer(p));
            t.truncate_lru(cap);
            m.truncate(cap);
            assert_matches(&t, &m, &format!("cap {cap}, truncate"));
            for (i, p) in offered.iter().enumerate() {
                t.offer(p);
                m.offer(p);
                assert_matches(&t, &m, &format!("cap {cap}, offer {i}"));
            }
            let other = FlowTable::from_packets(merged);
            t.merge(&other);
            for (k, r) in snapshot(&other) {
                m.fold(k, r);
            }
            assert_matches(&t, &m, &format!("cap {cap}, merge"));
            assert_eq!(t.offered(), 300);
            assert!(t.len() > cap, "cap {cap}: the bound is not kept");
        }
    }

    /// Slots inspected by the probe runs of `f` on this thread.
    fn probes_of(f: impl FnOnce()) -> u64 {
        let before = PROBES.with(std::cell::Cell::get);
        f();
        PROBES.with(std::cell::Cell::get) - before
    }

    /// One packet each for flows `ids`.
    fn distinct(ids: std::ops::Range<u32>) -> Vec<PacketRecord> {
        ids.map(|id| pkt(u64::from(id), id, true)).collect()
    }

    #[test]
    fn unbounded_merge_into_a_fresh_table_probes_linearly() {
        // A big table's slots come out in hash order; folded into a
        // small table that grows midway, they would pile into long
        // probe runs. The merge reserves room first, so they do not.
        let big = FlowTable::from_packets(&distinct(1..100_001));
        let mut fresh = FlowTable::unbounded();
        let probes = probes_of(|| fresh.merge(&big));
        assert!(snapshot(&fresh) == snapshot(&big), "merge lost flows");
        assert!(
            probes <= 8 * 100_000,
            "{probes} probes to merge 100000 flows"
        );
    }

    #[test]
    fn sliding_window_merges_probe_linearly() {
        // The windower's pattern: steal the front bucket's table (here a
        // quiet one), then fold in the later buckets, each sharing a
        // third of its flows with the one before.
        let buckets: Vec<Vec<PacketRecord>> = std::iter::once(distinct(1..1_001))
            .chain((1..4u32).map(|i| distinct(i * 40_000..i * 40_000 + 60_000)))
            .collect();
        let tables: Vec<FlowTable> = buckets.iter().map(|b| FlowTable::from_packets(b)).collect();
        let (front, later) = tables.split_first().unwrap();
        let mut window = front.clone();
        let probes = probes_of(|| later.iter().for_each(|b| window.merge(b)));
        let merged: usize = later.iter().map(FlowTable::len).sum();
        let reference = FlowTable::from_packets(&buckets.concat());
        assert!(
            snapshot(&window) == snapshot(&reference),
            "merge lost flows"
        );
        assert!(
            probes <= 8 * merged as u64,
            "{probes} probes to merge {merged} flows"
        );
    }

    proptest::proptest! {
        #[test]
        fn extreme_timestamps_evict_like_a_brute_force_lru(
            draws in proptest::collection::vec((0usize..4, 0u32..16, proptest::any::<bool>()), 1..120),
            cap in 1usize..16,
        ) {
            // Few distinct, often equal timestamps up to u64::MAX, over
            // ids (u32::MAX among them) and 5-tuples, SYN at random.
            let pkts: Vec<PacketRecord> = draws
                .iter()
                .map(|&(t, flow, syn)| {
                    let ts = [0, 1, u64::MAX - 1, u64::MAX][t];
                    match flow {
                        0..=11 => pkt(ts, flow + 1, syn),
                        12 => pkt(ts, u32::MAX, syn),
                        _ => pkt(ts, 0, syn)
                            .with_ports(flow as u16, u16::MAX)
                            .with_nets(u16::MAX, 0),
                    }
                })
                .collect();
            let mut t = FlowTable::from_packets(&pkts);
            let mut m = Model::default();
            pkts.iter().for_each(|p| m.offer(p));
            t.truncate_lru(cap);
            m.truncate(cap);
            assert_matches(&t, &m, "truncate");
            let syn = m.flows.iter().filter(|(_, r)| r.syn_seen).count() as u64;
            proptest::prop_assert_eq!(t.syn_flows(), syn);
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
        FlowTable::unbounded().truncate_lru(0);
    }
}
