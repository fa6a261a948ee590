//! Seeded input generation. Every item a workload sends is a pure function
//! of the workload seed and the sizes below, so the same seed gives
//! byte-identical frames and another seed gives different ones. Items are
//! URL-shaped strings from `evilbloom_urlgen`, namespaced by seed and role.

use evilbloom_store::{craft_store_pollution, BloomStore};
use evilbloom_urlgen::UrlGenerator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::child::COUNTER_BITS;

/// The URL family of one role (`preload`, `absent`, ...) under one seed.
pub fn urls(seed: u64, role: &str) -> UrlGenerator {
    UrlGenerator::new(&format!("s{seed}-{role}"))
}

/// The RNG of one role under one seed.
pub fn rng(seed: u64, role: &str) -> StdRng {
    let salt = role
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3));
    StdRng::seed_from_u64(seed ^ salt)
}

/// The items preloaded before `read_hardened` and `dedup_single_op` run.
pub fn preload(seed: u64, n: u64) -> Vec<String> {
    urls(seed, "preload").batch(0, n)
}

/// One slot of a `read_hardened` frame: a preloaded member or a
/// never-inserted item, by index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadSlot {
    Member(u32),
    Absent(u32),
}

/// `read_hardened`'s frames: each half members drawn from the preload,
/// half never-inserted items, in shuffled order. Returns the absent items
/// and the frame layouts.
pub fn read_frames(
    seed: u64,
    preload_len: usize,
    frames: usize,
    frame_items: usize,
) -> (Vec<String>, Vec<Vec<ReadSlot>>) {
    let half = frame_items / 2;
    let absent = urls(seed, "absent").batch(0, (frames * half) as u64);
    let mut rng = rng(seed, "read-frames");
    let layouts = (0..frames)
        .map(|f| {
            let mut slots: Vec<ReadSlot> = (0..half)
                .map(|_| ReadSlot::Member(rng.gen_range(0..preload_len) as u32))
                .chain((0..half).map(|i| ReadSlot::Absent((f * half + i) as u32)))
                .collect();
            shuffle(&mut slots, &mut rng);
            slots
        })
        .collect();
    (absent, layouts)
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

/// `dedup_single_op`'s stream of crawl candidates: half already-seen URLs
/// (an index into the acknowledged list), half URLs never drawn before.
pub struct DedupDraws {
    rng: StdRng,
    new_urls: UrlGenerator,
    next_new: u64,
}

/// One crawl candidate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Draw {
    Seen(usize),
    New(String),
}

impl DedupDraws {
    pub fn new(seed: u64) -> DedupDraws {
        DedupDraws { rng: rng(seed, "dedup"), new_urls: urls(seed, "dedup-new"), next_new: 0 }
    }

    pub fn next(&mut self, acked: usize) -> Draw {
        if self.rng.gen_bool(0.5) {
            Draw::Seen(self.rng.gen_range(0..acked))
        } else {
            self.next_new += 1;
            Draw::New(self.new_urls.url(self.next_new - 1))
        }
    }
}

/// The `i`-th item `ingest_durable` inserts.
pub fn ingest_items(seed: u64, start: u64, count: u64) -> Vec<String> {
    urls(seed, "ingest").batch(start, count)
}

/// Never-inserted items probed by the end-of-run false-positive sweep.
pub fn sweep_items(seed: u64, start: u64, count: u64) -> Vec<String> {
    urls(seed, "sweep").batch(start, count)
}

/// Byte views of owned items, as the batch commands take them.
pub fn refs(items: &[String]) -> Vec<&[u8]> {
    items.iter().map(String::as_bytes).collect()
}

/// Every `CRAFTED_EVERY`-th churn slot holds a crafted item.
const CRAFTED_EVERY: u64 = 16;

/// A `churn_counting` slot: a plain item by universe index, or a crafted
/// item by pool index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Slot {
    Plain(u64),
    Crafted(u64),
}

/// The sliding live window of `churn_counting`. Slots are numbered by an
/// ever-growing absolute id `a`: every 16th one (`a % 16 == 15`) holds
/// crafted pool item `(a / 16) % pool`, the rest plain item `a % universe`.
/// The live window is the last `window` inserted ids, so a plain item is
/// live at most once (the window is smaller than the universe) and a
/// crafted one in at most `ceil(window / (16 * pool))` copies; `copies`
/// tracks that multiset exactly.
#[derive(Debug, Clone)]
pub struct ChurnWindow {
    universe: u64,
    window: u64,
    pool: u64,
    /// Absolute id of the next slot to insert.
    head: u64,
    /// Absolute id of the oldest live slot.
    tail: u64,
    copies: Vec<u8>,
}

impl ChurnWindow {
    /// `universe` must exceed the window by at least one round, so a slot
    /// being inserted is never live.
    pub fn new(universe: u64, window: u64, pool: u64) -> ChurnWindow {
        assert!(universe >= window + 1024, "universe too small for the window");
        ChurnWindow { universe, window, pool, head: 0, tail: 0, copies: vec![0; pool as usize] }
    }

    fn slot(&self, absolute: u64) -> Slot {
        if absolute % CRAFTED_EVERY == CRAFTED_EVERY - 1 {
            Slot::Crafted((absolute / CRAFTED_EVERY) % self.pool)
        } else {
            Slot::Plain(absolute % self.universe)
        }
    }

    fn insert_next(&mut self) -> Slot {
        let slot = self.slot(self.head);
        self.head += 1;
        if let Slot::Crafted(p) = slot {
            self.copies[p as usize] += 1;
        }
        slot
    }

    fn delete_oldest(&mut self) -> Slot {
        let slot = self.slot(self.tail);
        self.tail += 1;
        if let Slot::Crafted(p) = slot {
            let copies = &mut self.copies[p as usize];
            *copies = copies.checked_sub(1).expect("deleted a crafted copy that was not live");
        }
        slot
    }

    /// Fills the empty window: the slots to preload.
    pub fn fill(&mut self) -> Vec<Slot> {
        assert_eq!(self.head, 0, "fill runs once, on an empty window");
        (0..self.window).map(|_| self.insert_next()).collect()
    }

    /// One round: `n` slots inserted, then the `n` inserted a full window
    /// earlier deleted. Returns `(inserted, deleted)`.
    pub fn advance(&mut self, n: usize) -> (Vec<Slot>, Vec<Slot>) {
        let inserted = (0..n).map(|_| self.insert_next()).collect();
        let deleted = (0..n).map(|_| self.delete_oldest()).collect();
        (inserted, deleted)
    }

    /// A uniformly drawn live slot.
    pub fn live_sample(&self, rng: &mut StdRng) -> Slot {
        self.slot(rng.gen_range(self.tail..self.head))
    }

    /// A uniformly drawn plain slot outside the window: never live now.
    pub fn absent_sample(&self, rng: &mut StdRng) -> Slot {
        let live = self.head - self.tail;
        loop {
            let slot = self.slot(self.head + rng.gen_range(0..self.universe - live));
            if matches!(slot, Slot::Plain(_)) {
                return slot;
            }
        }
    }

    /// Live copies of a crafted pool item.
    #[cfg(test)]
    fn copies(&self, pool_index: u64) -> u8 {
        self.copies[pool_index as usize]
    }

    /// Distinct live items: plain slots, plus crafted items with a copy.
    pub fn distinct_live(&self) -> u64 {
        let crafted_slots: u64 = self.copies.iter().map(|&c| u64::from(c)).sum();
        let crafted_items = self.copies.iter().filter(|&&c| c > 0).count() as u64;
        self.head - self.tail - crafted_slots + crafted_items
    }

    /// The most copies any crafted item has live.
    pub fn max_copies(&self) -> u8 {
        self.copies.iter().copied().max().unwrap_or(0)
    }

    /// Live slots, recounted from scratch (for tests).
    #[cfg(test)]
    fn live_slots(&self) -> Vec<Slot> {
        (self.tail..self.head).map(|a| self.slot(a)).collect()
    }
}

/// The items behind churn slots: the plain universe, plus a pool crafted by
/// `craft_store_pollution` against an unhardened counting mirror of the
/// served store's geometry (each crafted item sets `k` fresh cells there).
pub struct ChurnItems {
    pub plain: Vec<String>,
    pub crafted: Vec<String>,
}

impl ChurnItems {
    pub fn generate(
        seed: u64,
        universe: u64,
        pool: usize,
        shards: usize,
        capacity: u64,
        fpp: f64,
    ) -> Result<ChurnItems, String> {
        let mirror = BloomStore::builder()
            .shards(shards)
            .capacity(capacity)
            .target_fpp(fpp)
            .unhardened()
            .counting(COUNTER_BITS)
            .build();
        let plan = craft_store_pollution(&mirror, &urls(seed, "craft"), pool, 64 * pool as u64)
            .expect("an unhardened mirror always admits crafting");
        if plan.items.len() < pool {
            return Err(format!("crafted {} of {pool} pollution items", plan.items.len()));
        }
        Ok(ChurnItems { plain: urls(seed, "churn").batch(0, universe), crafted: plan.items })
    }

    pub fn bytes(&self, slot: Slot) -> &[u8] {
        match slot {
            Slot::Plain(u) => self.plain[u as usize].as_bytes(),
            Slot::Crafted(p) => self.crafted[p as usize].as_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn assert_multiset_exact(window: &ChurnWindow) {
        let mut crafted: BTreeMap<u64, u8> = BTreeMap::new();
        let mut plain = std::collections::BTreeSet::new();
        for slot in window.live_slots() {
            match slot {
                Slot::Crafted(p) => *crafted.entry(p).or_default() += 1,
                Slot::Plain(u) => assert!(plain.insert(u), "plain slot {u} live twice"),
            }
        }
        for p in 0..window.pool {
            assert_eq!(window.copies(p), crafted.get(&p).copied().unwrap_or(0), "pool item {p}");
        }
        assert_eq!(window.distinct_live(), (plain.len() + crafted.len()) as u64);
    }

    #[test]
    fn churn_window_tracks_the_live_multiset_exactly() {
        let mut window = ChurnWindow::new(4096 + 1024, 4096, 16);
        let filled = window.fill();
        assert_eq!(filled.len(), 4096);
        assert_multiset_exact(&window);
        let mut rng = rng(7, "test");
        for round in 0..200 {
            let (inserted, deleted) = window.advance(64);
            assert_eq!((inserted.len(), deleted.len()), (64, 64));
            assert_multiset_exact(&window);
            let live = window.live_slots();
            for _ in 0..16 {
                let absent = window.absent_sample(&mut rng);
                assert!(!live.contains(&absent), "round {round}: absent sample {absent:?} is live");
                assert!(live.contains(&window.live_sample(&mut rng)));
            }
        }
    }

    #[test]
    fn crafted_copies_stay_below_counter_saturation_at_full_scale() {
        // The shipped geometry: a 1M window over a 1M + 64k universe, with a
        // 16k crafted pool. 4-bit cells saturate at 15.
        let mut window = ChurnWindow::new(1_000_000 + 65_536, 1_000_000, 16_384);
        window.fill();
        for _ in 0..600 {
            window.advance(256);
        }
        assert_multiset_exact(&window);
        let saturation = (1u8 << COUNTER_BITS) - 1;
        assert!(window.max_copies() <= 4, "max copies {}", window.max_copies());
        assert!(window.max_copies() < saturation);
    }

    #[test]
    fn read_frames_are_half_members_and_seeded() {
        let (absent, frames) = read_frames(1, 1000, 4, 64);
        assert_eq!(absent.len(), 4 * 32);
        for frame in &frames {
            let members = frame.iter().filter(|s| matches!(s, ReadSlot::Member(_))).count();
            assert_eq!(members, 32);
        }
        assert_eq!(read_frames(1, 1000, 4, 64), (absent, frames.clone()));
        assert_ne!(read_frames(2, 1000, 4, 64).1, frames);
    }
}
