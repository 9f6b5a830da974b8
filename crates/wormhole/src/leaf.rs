//! Wormhole leaf nodes (§3.2 of the paper).
//!
//! A leaf stores up to `leaf_capacity` key/value items plus the node's
//! *anchor*. Two orderings are maintained over the items:
//!
//! * the **hash order** — a tag array sorted by each key's 16-bit hash tag,
//!   used by point lookups (*SortByTag*), optionally with speculative
//!   positioning (*DirectPos*);
//! * the **key order** — a key-sorted view that is allowed to lag behind: new
//!   items are appended unsorted and merged in only when a range scan or a
//!   split needs full ordering (the paper's `incSort`, [`LeafNode::inc_sort`],
//!   which rewrites the view in place). The concurrent index sorts a leaf
//!   under its write lock the first time a scan reaches it unsorted, so
//!   later scans of that leaf are a plain walk of the sorted view; only the
//!   single-threaded cursor, which cannot mutate through `&self`, merges the
//!   tail on the fly instead ([`LeafNode::collect_leaf_unsorted`]).
//!
//! The leaf also remembers its *logical anchor* (used in ordering
//! comparisons) and its *table key* (the anchor as registered in the
//! MetaTrieHT, which may carry appended `⊥`/zero tokens to satisfy the prefix
//! condition).

use index_traits::RangeSink;
use wh_hash::{tag16, tag_position_hint};

use crate::config::WormholeConfig;

/// Marker returned by the `*_checked` read methods when an optimistic
/// (unlocked) read observed internally inconsistent state — an index out of
/// bounds, an implausible key length, or a lagging sort view. The caller
/// must validate its seqlock and retry; the observed data is meaningless.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadConflict;

/// Heap blocks unlinked from a leaf while optimistic readers may still be
/// traversing them.
///
/// Every mutation of a [`LeafNode`] that would free memory — a storage
/// vector outgrowing its buffer, a removed item's key box, a replaced table
/// key, a merged-away sibling's storage — funnels the doomed block through
/// one of these bins instead of dropping it inline. In **immediate** mode
/// (the single-threaded index, or the concurrent index serving reads under
/// leaf locks) the bin drops each block on the spot, so behaviour is
/// unchanged. In **deferred** mode the blocks accumulate and the concurrent
/// index hands the filled bin to `wh_epoch::Qsbr::defer`, so a lock-free
/// reader that loaded a pointer to the old block inside its QSBR critical
/// section can never touch freed memory: the block outlives every critical
/// section that could have observed it.
#[derive(Debug)]
pub struct LeafGarbage<V> {
    defer: bool,
    kv_bufs: Vec<Vec<Kv<V>>>,
    idx_bufs: Vec<Vec<u16>>,
    keys: Vec<Box<[u8]>>,
    values: Vec<V>,
    byte_bufs: Vec<Vec<u8>>,
}

impl<V> LeafGarbage<V> {
    fn with_mode(defer: bool) -> Self {
        Self {
            defer,
            kv_bufs: Vec::new(),
            idx_bufs: Vec::new(),
            keys: Vec::new(),
            values: Vec::new(),
            byte_bufs: Vec::new(),
        }
    }

    /// A bin that drops every retired block immediately (no readers race
    /// with the mutation).
    pub fn immediate() -> Self {
        Self::with_mode(false)
    }

    /// A bin that accumulates retired blocks for reclamation after a QSBR
    /// grace period.
    pub fn deferred() -> Self {
        Self::with_mode(true)
    }

    /// Returns `true` when nothing has been retired into the bin.
    pub fn is_empty(&self) -> bool {
        self.kv_bufs.is_empty()
            && self.idx_bufs.is_empty()
            && self.keys.is_empty()
            && self.values.is_empty()
            && self.byte_bufs.is_empty()
    }

    /// Whether removed or overwritten *values* must also outlive a grace
    /// period: only in deferred mode, and only when dropping a `V` frees
    /// heap memory a racing optimistic reader could be cloning from.
    /// (Currently always `false` in practice — the concurrent index only
    /// runs deferred bins for no-drop-glue values — but it is the hook any
    /// future widening of the optimistic value gate would rely on.)
    pub fn defers_values(&self) -> bool {
        self.defer && std::mem::needs_drop::<V>()
    }

    /// Takes ownership of a value unlinked from a leaf and returns what
    /// the caller may hand out: the value itself in immediate mode, or —
    /// when values are deferred — a clone, with the original retired so a
    /// racing reader cloning from the old bits can never chase freed
    /// memory.
    pub fn hand_off_value(&mut self, value: V) -> V
    where
        V: Clone,
    {
        if self.defers_values() {
            let returned = value.clone();
            self.values.push(value);
            returned
        } else {
            value
        }
    }

    /// Retires a value unlinked from a leaf that nobody will be handed
    /// (bulk range removal): kept past the grace period when values are
    /// deferred, dropped on the spot otherwise. Unlike
    /// [`LeafGarbage::hand_off_value`] this never clones.
    pub fn retire_value(&mut self, value: V) {
        if self.defers_values() {
            self.values.push(value);
        }
    }

    fn retire_kv_buf(&mut self, buf: Vec<Kv<V>>) {
        if self.defer {
            self.kv_bufs.push(buf);
        }
    }

    fn retire_idx_buf(&mut self, buf: Vec<u16>) {
        if self.defer {
            self.idx_bufs.push(buf);
        }
    }

    fn retire_key(&mut self, key: Box<[u8]>) {
        if self.defer {
            self.keys.push(key);
        }
    }

    fn retire_bytes(&mut self, bytes: Vec<u8>) {
        if self.defer {
            self.byte_bufs.push(bytes);
        }
    }

    /// Replaces `*slot` with `new`, returning the previous value (through
    /// [`LeafGarbage::hand_off_value`], so a deferred-mode caller receives
    /// a clone while the original is retired).
    pub fn replace_value(&mut self, slot: &mut V, new: V) -> V
    where
        V: Clone,
    {
        let old = std::mem::replace(slot, new);
        self.hand_off_value(old)
    }
}

/// Appends to a leaf's item storage, retiring — instead of freeing — the
/// old buffer when the append would reallocate. Elements are *moved* into
/// the grown buffer (`append`), which leaves their bytes (and therefore the
/// key pointers a racing reader may have loaded) intact in the retired one.
fn push_kv<V>(v: &mut Vec<Kv<V>>, kv: Kv<V>, bin: &mut LeafGarbage<V>) {
    if v.len() == v.capacity() {
        let mut grown = Vec::with_capacity((v.capacity() * 2).max(8));
        grown.append(v);
        bin.retire_kv_buf(std::mem::replace(v, grown));
    }
    v.push(kv);
}

/// Inserts into an ordering vector, retiring the old buffer on growth
/// (see [`push_kv`]).
fn insert_idx<V>(v: &mut Vec<u16>, pos: usize, idx: u16, bin: &mut LeafGarbage<V>) {
    if v.len() == v.capacity() {
        let mut grown = Vec::with_capacity((v.capacity() * 2).max(8));
        grown.extend_from_slice(v);
        bin.retire_idx_buf(std::mem::replace(v, grown));
    }
    v.insert(pos, idx);
}

/// One key/value item plus its cached hash material.
#[derive(Debug, Clone)]
pub struct Kv<V> {
    /// Full CRC-32c hash of the key.
    pub hash: u32,
    /// 16-bit tag (low bits of the hash).
    pub tag: u16,
    /// The key bytes.
    pub key: Box<[u8]>,
    /// The stored value.
    pub value: V,
}

/// A Wormhole leaf node.
#[derive(Debug, Clone)]
pub struct LeafNode<V> {
    /// Logical anchor: `anchor <= every key in this node`, `> every key in
    /// the left neighbour`. Appended ⊥ tokens are *not* included here.
    anchor: Vec<u8>,
    /// The key under which this leaf is registered in the MetaTrieHT. Equals
    /// `anchor` unless ⊥ (zero) tokens had to be appended to satisfy the
    /// prefix condition.
    table_key: Vec<u8>,
    /// Item storage in insertion order.
    kvs: Vec<Kv<V>>,
    /// Indices into `kvs`, sorted by (tag, key) — the paper's tag array.
    hash_order: Vec<u16>,
    /// Indices into `kvs`; the first `sorted_cnt` are sorted by key, the rest
    /// are unsorted appendees.
    key_order: Vec<u16>,
    /// Length of the key-sorted prefix of `key_order`.
    sorted_cnt: usize,
}

impl<V> LeafNode<V> {
    /// Creates an empty leaf with the given logical anchor and table key.
    pub fn new(anchor: Vec<u8>, table_key: Vec<u8>) -> Self {
        Self {
            anchor,
            table_key,
            kvs: Vec::new(),
            hash_order: Vec::new(),
            key_order: Vec::new(),
            sorted_cnt: 0,
        }
    }

    /// The logical anchor (no appended ⊥ tokens).
    pub fn anchor(&self) -> &[u8] {
        &self.anchor
    }

    /// The MetaTrieHT registration key (may have appended ⊥ tokens).
    pub fn table_key(&self) -> &[u8] {
        &self.table_key
    }

    /// Number of stored items.
    pub fn len(&self) -> usize {
        self.kvs.len()
    }

    /// Returns `true` when the leaf stores no items.
    pub fn is_empty(&self) -> bool {
        self.kvs.is_empty()
    }

    /// Total key payload bytes stored in the leaf.
    pub fn key_bytes(&self) -> usize {
        self.kvs.iter().map(|kv| kv.key.len()).sum()
    }

    /// Approximate bytes used by the leaf structure itself (excluding key
    /// payloads and values).
    pub fn structure_bytes(&self) -> usize {
        self.anchor.len()
            + self.table_key.len()
            + self.kvs.capacity() * std::mem::size_of::<Kv<V>>()
            + (self.hash_order.capacity() + self.key_order.capacity()) * 2
    }

    /// Finds the storage slot of `key`, using the configuration's leaf-search
    /// strategy.
    fn find_slot(&self, key: &[u8], hash: u32, config: &WormholeConfig) -> Option<usize> {
        if self.kvs.is_empty() {
            return None;
        }
        if config.sort_by_tag {
            let tag = tag16(hash);
            let n = self.hash_order.len();
            // Find the first position whose tag is >= the search tag, either
            // by speculative positioning (DirectPos) or by binary search.
            let mut i = if config.direct_pos {
                let mut i = tag_position_hint(tag, n);
                while i > 0 && tag <= self.kvs[self.hash_order[i - 1] as usize].tag {
                    i -= 1;
                }
                while i < n && tag > self.kvs[self.hash_order[i] as usize].tag {
                    i += 1;
                }
                i
            } else {
                self.hash_order
                    .partition_point(|&idx| self.kvs[idx as usize].tag < tag)
            };
            while i < n {
                let idx = self.hash_order[i] as usize;
                let kv = &self.kvs[idx];
                if kv.tag != tag {
                    return None;
                }
                if kv.key.as_ref() == key {
                    return Some(idx);
                }
                i += 1;
            }
            None
        } else {
            // BaseWormhole leaf search: binary search over the key-sorted
            // view (which is kept fully sorted when SortByTag is off).
            debug_assert_eq!(self.sorted_cnt, self.key_order.len());
            self.key_order
                .binary_search_by(|&idx| self.kvs[idx as usize].key.as_ref().cmp(key))
                .ok()
                .map(|pos| self.key_order[pos] as usize)
        }
    }

    /// Returns a reference to the value stored under `key`.
    pub fn get(&self, key: &[u8], hash: u32, config: &WormholeConfig) -> Option<&V> {
        self.find_slot(key, hash, config)
            .map(|i| &self.kvs[i].value)
    }

    /// Returns a mutable reference to the value stored under `key`.
    pub fn get_mut(&mut self, key: &[u8], hash: u32, config: &WormholeConfig) -> Option<&mut V> {
        self.find_slot(key, hash, config)
            .map(|i| &mut self.kvs[i].value)
    }

    /// Inserts `key`, returning the previous value when it already existed;
    /// every freed heap block is retired through `bin`.
    pub fn insert_retiring(
        &mut self,
        key: &[u8],
        hash: u32,
        value: V,
        config: &WormholeConfig,
        bin: &mut LeafGarbage<V>,
    ) -> Option<V>
    where
        V: Clone,
    {
        if let Some(slot) = self.find_slot(key, hash, config) {
            return Some(bin.replace_value(&mut self.kvs[slot].value, value));
        }
        let idx = self.kvs.len() as u16;
        let tag = tag16(hash);
        push_kv(
            &mut self.kvs,
            Kv {
                hash,
                tag,
                key: key.to_vec().into_boxed_slice(),
                value,
            },
            bin,
        );
        // Keep the tag array sorted by (tag, key): the paper's hash-ordered
        // tag array supports DirectPos positioning.
        let pos = self.hash_order.partition_point(|&i| {
            let kv = &self.kvs[i as usize];
            (kv.tag, kv.key.as_ref()) < (tag, key)
        });
        insert_idx(&mut self.hash_order, pos, idx, bin);
        if config.sort_by_tag {
            // Key order is allowed to lag: append unsorted (incSort later).
            let end = self.key_order.len();
            insert_idx(&mut self.key_order, end, idx, bin);
        } else {
            // Without SortByTag the key order must stay fully sorted so that
            // lookups can binary-search it.
            let pos = self
                .key_order
                .partition_point(|&i| self.kvs[i as usize].key.as_ref() < key);
            insert_idx(&mut self.key_order, pos, idx, bin);
            self.sorted_cnt = self.key_order.len();
        }
        None
    }

    /// Removes `key`, returning its value when present. The removed item's
    /// key box (and, when
    /// values are deferred, the value itself — the caller then receives a
    /// clone) through `bin`.
    pub fn remove_retiring(
        &mut self,
        key: &[u8],
        hash: u32,
        config: &WormholeConfig,
        bin: &mut LeafGarbage<V>,
    ) -> Option<V>
    where
        V: Clone,
    {
        let slot = self.find_slot(key, hash, config)?;
        let removed = self.remove_slot(slot);
        bin.retire_key(removed.key);
        Some(bin.hand_off_value(removed.value))
    }

    /// Unlinks the item at storage slot `slot`, fixing up both orderings:
    /// the removed index is dropped and every index after it shifts down by
    /// one. The caller retires the returned item's key (and value, when
    /// values are deferred).
    fn remove_slot(&mut self, slot: usize) -> Kv<V> {
        let removed = self.kvs.remove(slot);
        let slot = slot as u16;
        let hpos = self
            .hash_order
            .iter()
            .position(|&i| i == slot)
            .expect("hash entry");
        self.hash_order.remove(hpos);
        let kpos = self
            .key_order
            .iter()
            .position(|&i| i == slot)
            .expect("key entry");
        self.key_order.remove(kpos);
        if kpos < self.sorted_cnt {
            self.sorted_cnt -= 1;
        }
        for i in self.hash_order.iter_mut() {
            if *i > slot {
                *i -= 1;
            }
        }
        for i in self.key_order.iter_mut() {
            if *i > slot {
                *i -= 1;
            }
        }
        removed
    }

    /// Removes every item with `lo <= key < hi`, retiring the unlinked key
    /// boxes (and, when values are deferred, the values) through `bin`.
    /// Returns `(items removed, key payload bytes removed)`.
    ///
    /// This is the leaf-level primitive of the concurrent index's batched
    /// range removal (shard migration drains a donor's migrated range with
    /// it); the whole doomed run is resolved against the key-sorted view
    /// once and unlinked slot by slot in descending storage order, so the
    /// shift-down fixups of earlier removals never invalidate later ones.
    pub fn remove_range_retiring(
        &mut self,
        lo: &[u8],
        hi: &[u8],
        bin: &mut LeafGarbage<V>,
    ) -> (usize, usize)
    where
        V: Clone,
    {
        self.inc_sort(&mut Vec::new());
        let start = self
            .key_order
            .partition_point(|&i| self.kvs[i as usize].key.as_ref() < lo);
        let end = self
            .key_order
            .partition_point(|&i| self.kvs[i as usize].key.as_ref() < hi);
        if start == end {
            return (0, 0);
        }
        let mut doomed: Vec<u16> = self.key_order[start..end].to_vec();
        doomed.sort_unstable_by(|a, b| b.cmp(a));
        let mut removed = 0usize;
        let mut key_bytes = 0usize;
        for slot in doomed {
            let kv = self.remove_slot(slot as usize);
            removed += 1;
            key_bytes += kv.key.len();
            bin.retire_key(kv.key);
            bin.retire_value(kv.value);
        }
        (removed, key_bytes)
    }

    /// Whether the key-sorted view is current (no unsorted tail).
    pub fn is_key_sorted(&self) -> bool {
        self.sorted_cnt == self.key_order.len()
    }

    /// The paper's `incSort`: brings the key-sorted view up to date in
    /// place. The unsorted tail is ordered in `scratch` (a reusable index
    /// buffer) and merged with the sorted prefix from the back, so the
    /// existing `key_order` buffer is rewritten without allocating or
    /// retiring anything — readers racing an optimistic read see the same
    /// live buffer throughout, as with any in-place leaf update.
    pub fn inc_sort(&mut self, scratch: &mut Vec<u16>) {
        if self.is_key_sorted() {
            return;
        }
        let kvs = &self.kvs;
        scratch.clear();
        scratch.extend_from_slice(&self.key_order[self.sorted_cnt..]);
        scratch.sort_unstable_by(|&a, &b| kvs[a as usize].key.cmp(&kvs[b as usize].key));
        // Backward merge: the slot filled next (`a + b - 1`) is never below
        // the last unread sorted entry (`a - 1`), so nothing unread is
        // overwritten.
        let (mut a, mut b) = (self.sorted_cnt, scratch.len());
        while b > 0 {
            let out = a + b - 1;
            if a > 0 && kvs[self.key_order[a - 1] as usize].key > kvs[scratch[b - 1] as usize].key {
                self.key_order[out] = self.key_order[a - 1];
                a -= 1;
            } else {
                self.key_order[out] = scratch[b - 1];
                b -= 1;
            }
        }
        self.sorted_cnt = self.key_order.len();
    }

    /// Iterates items in ascending key order. Call [`Self::inc_sort`]
    /// first; otherwise only the sorted prefix is guaranteed to be ordered.
    pub fn iter_key_order(&self) -> impl Iterator<Item = &Kv<V>> + '_ {
        self.key_order.iter().map(|&i| &self.kvs[i as usize])
    }

    /// The smallest key in the leaf (requires a sorted key view).
    pub fn min_key(&self) -> Option<&[u8]> {
        debug_assert_eq!(self.sorted_cnt, self.key_order.len());
        self.key_order
            .first()
            .map(|&i| self.kvs[i as usize].key.as_ref())
    }

    /// The largest key in the leaf (requires a sorted key view).
    pub fn max_key(&self) -> Option<&[u8]> {
        debug_assert_eq!(self.sorted_cnt, self.key_order.len());
        self.key_order
            .last()
            .map(|&i| self.kvs[i as usize].key.as_ref())
    }

    /// Collects up to `count` items with key `>= start` into `sink`, in key
    /// order. Returns the number of items accepted.
    pub fn collect_range_into<S: RangeSink<V>>(
        &self,
        start: &[u8],
        count: usize,
        sink: &mut S,
    ) -> usize {
        debug_assert_eq!(self.sorted_cnt, self.key_order.len());
        let begin = self
            .key_order
            .partition_point(|&i| self.kvs[i as usize].key.as_ref() < start);
        let mut appended = 0;
        for &i in &self.key_order[begin..] {
            if appended == count {
                break;
            }
            let kv = &self.kvs[i as usize];
            sink.accept(kv.key.as_ref(), &kv.value);
            appended += 1;
        }
        appended
    }

    /// Batch-per-leaf primitive of the single-threaded scan cursor: like
    /// [`LeafNode::collect_range_into`], but usable while the key-sorted
    /// view lags behind (`incSort` not yet run): the sorted prefix and the
    /// unsorted tail are merged on the fly, ordering the tail through
    /// `scratch` (a reusable index buffer) instead of cloning the leaf or
    /// sorting it in place. The single-threaded cursor uses this because
    /// its `&self` borrow cannot sort the leaf; the concurrent index sorts
    /// under the leaf's write lock instead (see [`LeafNode::inc_sort`]).
    pub fn collect_leaf_unsorted<S: RangeSink<V>>(
        &self,
        start: &[u8],
        count: usize,
        sink: &mut S,
        scratch: &mut Vec<u16>,
    ) -> usize {
        if self.sorted_cnt == self.key_order.len() {
            return self.collect_range_into(start, count, sink);
        }
        scratch.clear();
        scratch.extend_from_slice(&self.key_order[self.sorted_cnt..]);
        scratch.sort_unstable_by(|&a, &b| self.kvs[a as usize].key.cmp(&self.kvs[b as usize].key));
        let sorted = &self.key_order[..self.sorted_cnt];
        let mut a = sorted.partition_point(|&i| self.kvs[i as usize].key.as_ref() < start);
        let mut b = scratch.partition_point(|&i| self.kvs[i as usize].key.as_ref() < start);
        let mut appended = 0;
        while appended < count {
            let next = match (sorted.get(a), scratch.get(b)) {
                (Some(&x), Some(&y)) => {
                    if self.kvs[x as usize].key <= self.kvs[y as usize].key {
                        a += 1;
                        x
                    } else {
                        b += 1;
                        y
                    }
                }
                (Some(&x), None) => {
                    a += 1;
                    x
                }
                (None, Some(&y)) => {
                    b += 1;
                    y
                }
                (None, None) => break,
            };
            let kv = &self.kvs[next as usize];
            sink.accept(kv.key.as_ref(), &kv.value);
            appended += 1;
        }
        appended
    }

    /// Like [`LeafNode::get`], but safe to run on a leaf that a concurrent
    /// writer may be mutating (the seqlock read path): every index access is
    /// bounds-checked and any inconsistency — instead of panicking or
    /// over-reading — surfaces as [`ReadConflict`], which the caller turns
    /// into a retry after its seqlock validation fails.
    ///
    /// The returned reference (and any value cloned from it) must be
    /// discarded unless the caller's subsequent version validation succeeds.
    pub fn get_checked(
        &self,
        key: &[u8],
        hash: u32,
        config: &WormholeConfig,
    ) -> Result<Option<&V>, ReadConflict> {
        if self.kvs.is_empty() {
            return Ok(None);
        }
        if config.sort_by_tag {
            let tag = tag16(hash);
            let n = self.hash_order.len();
            let kv_at = |i: usize| -> Result<&Kv<V>, ReadConflict> {
                let idx = *self.hash_order.get(i).ok_or(ReadConflict)?;
                self.kvs.get(idx as usize).ok_or(ReadConflict)
            };
            // First position whose tag is >= the search tag, via the same
            // DirectPos hint walk or a hand-rolled (checked) binary search.
            let mut i = if config.direct_pos {
                let mut i = tag_position_hint(tag, n).min(n);
                while i > 0 && tag <= kv_at(i - 1)?.tag {
                    i -= 1;
                }
                while i < n && tag > kv_at(i)?.tag {
                    i += 1;
                }
                i
            } else {
                let (mut lo, mut hi) = (0usize, n);
                while lo < hi {
                    let mid = (lo + hi) / 2;
                    if kv_at(mid)?.tag < tag {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                lo
            };
            while i < n {
                let kv = kv_at(i)?;
                if kv.tag != tag {
                    return Ok(None);
                }
                if kv.key.as_ref() == key {
                    return Ok(Some(&kv.value));
                }
                i += 1;
            }
            Ok(None)
        } else {
            // Checked binary search over the key-sorted view.
            let key_at = |i: usize| -> Result<&Kv<V>, ReadConflict> {
                let idx = *self.key_order.get(i).ok_or(ReadConflict)?;
                self.kvs.get(idx as usize).ok_or(ReadConflict)
            };
            let (mut lo, mut hi) = (0usize, self.key_order.len());
            while lo < hi {
                let mid = (lo + hi) / 2;
                let kv = key_at(mid)?;
                match kv.key.as_ref().cmp(key) {
                    std::cmp::Ordering::Less => lo = mid + 1,
                    std::cmp::Ordering::Greater => hi = mid,
                    std::cmp::Ordering::Equal => return Ok(Some(&kv.value)),
                }
            }
            Ok(None)
        }
    }

    /// Batch-per-leaf primitive of the concurrent scan cursor: like
    /// [`LeafNode::collect_range_into`], but safe on a leaf a concurrent
    /// writer may be mutating (see [`LeafNode::get_checked`]):
    /// bounds-checked throughout, and any key whose recorded length exceeds
    /// `max_key_len` is treated as torn state rather than copied. A lagging
    /// key-sorted view is a [`ReadConflict`] too: the caller runs `incSort`
    /// ([`LeafNode::inc_sort`]) under the leaf's write lock and reads again,
    /// so each leaf is sorted once rather than on every scan. Everything
    /// accepted by `sink` must be discarded unless the caller's seqlock
    /// validation succeeds.
    pub fn collect_leaf_checked<S: RangeSink<V> + ?Sized>(
        &self,
        start: &[u8],
        count: usize,
        sink: &mut S,
        max_key_len: usize,
    ) -> Result<usize, ReadConflict> {
        if !self.is_key_sorted() {
            return Err(ReadConflict);
        }
        let sorted = self.key_order.get(..self.sorted_cnt).ok_or(ReadConflict)?;
        let key_of = |idx: u16| -> Result<&Kv<V>, ReadConflict> {
            let kv = self.kvs.get(idx as usize).ok_or(ReadConflict)?;
            if kv.key.len() > max_key_len {
                return Err(ReadConflict);
            }
            Ok(kv)
        };
        // Checked lower bound.
        let (mut lo, mut hi) = (0usize, sorted.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if key_of(sorted[mid])?.key.as_ref() < start {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let mut appended = 0;
        for &idx in &sorted[lo..] {
            if appended == count {
                break;
            }
            let kv = key_of(idx)?;
            sink.accept(kv.key.as_ref(), &kv.value);
            appended += 1;
        }
        Ok(appended)
    }

    /// Key at sorted position `i` (requires the key-sorted view to be
    /// current; see [`LeafNode::inc_sort`]). Used by the core
    /// engine's split-point selection.
    pub fn key_at(&self, i: usize) -> &[u8] {
        debug_assert_eq!(self.sorted_cnt, self.key_order.len());
        self.kvs[self.key_order[i] as usize].key.as_ref()
    }

    /// Splits the leaf at key-order position `at`, moving items `[at..]` into
    /// a new leaf with the given anchor and table key. The replaced storage
    /// buffers of the left half are retired through `bin` (the right half is freshly allocated and not
    /// yet visible to readers).
    pub fn split_off_retiring(
        &mut self,
        at: usize,
        anchor: Vec<u8>,
        table_key: Vec<u8>,
        bin: &mut LeafGarbage<V>,
    ) -> LeafNode<V> {
        debug_assert_eq!(self.sorted_cnt, self.key_order.len());
        debug_assert!(at > 0 && at < self.key_order.len());
        let moved: Vec<u16> = self.key_order.split_off(at);
        let mut right = LeafNode::new(anchor, table_key);
        // Move the selected kvs into the new leaf; remaining kvs are
        // compacted into a fresh storage vector to keep indices dense.
        let mut keep = vec![false; self.kvs.len()];
        for &i in &self.key_order {
            keep[i as usize] = true;
        }
        let mut old_kvs = std::mem::take(&mut self.kvs);
        let mut remap = vec![u16::MAX; old_kvs.len()];
        for (i, kv) in old_kvs.drain(..).enumerate() {
            if keep[i] {
                remap[i] = self.kvs.len() as u16;
                self.kvs.push(kv);
            } else {
                remap[i] = right.kvs.len() as u16;
                right.kvs.push(kv);
            }
        }
        bin.retire_kv_buf(old_kvs);
        // Rebuild the orderings of both leaves from the remap.
        self.key_order
            .iter_mut()
            .for_each(|i| *i = remap[*i as usize]);
        self.sorted_cnt = self.key_order.len();
        right.key_order = moved.iter().map(|&i| remap[i as usize]).collect();
        right.sorted_cnt = right.key_order.len();
        let rebuild_hash = |kvs: &[Kv<V>]| {
            let mut order: Vec<u16> = (0..kvs.len() as u16).collect();
            order.sort_unstable_by(|&a, &b| {
                let (ka, kb) = (&kvs[a as usize], &kvs[b as usize]);
                (ka.tag, ka.key.as_ref()).cmp(&(kb.tag, kb.key.as_ref()))
            });
            order
        };
        let old_hash = std::mem::replace(&mut self.hash_order, rebuild_hash(&self.kvs));
        bin.retire_idx_buf(old_hash);
        right.hash_order = rebuild_hash(&right.kvs);
        right
    }

    /// Moves every item of `victim` into this leaf (used by merge),
    /// retiring the victim's storage (and any buffer this leaf outgrows)
    /// through `bin`.
    pub fn absorb_retiring(&mut self, mut victim: LeafNode<V>, bin: &mut LeafGarbage<V>) {
        for kv in victim.kvs.drain(..) {
            let idx = self.kvs.len() as u16;
            let pos = self.hash_order.partition_point(|&i| {
                let cur = &self.kvs[i as usize];
                (cur.tag, cur.key.as_ref()) < (kv.tag, kv.key.as_ref())
            });
            insert_idx(&mut self.hash_order, pos, idx, bin);
            push_kv(&mut self.kvs, kv, bin);
            let end = self.key_order.len();
            insert_idx(&mut self.key_order, end, idx, bin);
        }
        // Readers may still be traversing the victim's (now drained)
        // storage and anchor: retire the buffers wholesale.
        bin.retire_kv_buf(std::mem::take(&mut victim.kvs));
        bin.retire_idx_buf(std::mem::take(&mut victim.hash_order));
        bin.retire_idx_buf(std::mem::take(&mut victim.key_order));
        bin.retire_bytes(std::mem::take(&mut victim.anchor));
        bin.retire_bytes(std::mem::take(&mut victim.table_key));
        // The absorbed items landed in the unsorted tail; merges are rare and
        // bounded by the merge size, so restore the key order eagerly. This
        // keeps the "fully sorted" invariant the non-SortByTag configuration
        // relies on for its binary searches.
        self.sorted_cnt = self.sorted_cnt.min(self.key_order.len());
        self.inc_sort(&mut Vec::new());
    }

    /// Updates the leaf's table key (used when an anchor is relocated with an
    /// appended ⊥ token by a later split), retiring the replaced key bytes
    /// through `bin`.
    pub fn set_table_key_retiring(&mut self, table_key: Vec<u8>, bin: &mut LeafGarbage<V>) {
        bin.retire_bytes(std::mem::replace(&mut self.table_key, table_key));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wh_hash::crc32c;

    fn cfg() -> WormholeConfig {
        WormholeConfig::optimized().with_leaf_capacity(16)
    }

    fn insert(
        leaf: &mut LeafNode<u64>,
        key: &[u8],
        value: u64,
        config: &WormholeConfig,
    ) -> Option<u64> {
        leaf.insert_retiring(
            key,
            crc32c(key),
            value,
            config,
            &mut LeafGarbage::immediate(),
        )
    }

    fn get(leaf: &LeafNode<u64>, key: &[u8], config: &WormholeConfig) -> Option<u64> {
        leaf.get(key, crc32c(key), config).copied()
    }

    #[test]
    fn insert_get_remove_roundtrip_all_configs() {
        for config in [
            WormholeConfig::optimized(),
            WormholeConfig::base(),
            WormholeConfig::base().with_sort_by_tag(true),
            WormholeConfig::optimized().with_direct_pos(false),
        ] {
            let mut leaf = LeafNode::new(Vec::new(), Vec::new());
            let names = ["Abby", "Bob", "Bond", "Ella", "Alex", "Jack", "Alan", "Ada"];
            for (i, name) in names.iter().enumerate() {
                assert_eq!(insert(&mut leaf, name.as_bytes(), i as u64, &config), None);
            }
            assert_eq!(leaf.len(), names.len());
            for (i, name) in names.iter().enumerate() {
                assert_eq!(
                    get(&leaf, name.as_bytes(), &config),
                    Some(i as u64),
                    "{name}"
                );
            }
            assert_eq!(get(&leaf, b"Zed", &config), None);
            assert_eq!(insert(&mut leaf, b"Bob", 99, &config), Some(1));
            assert_eq!(
                leaf.remove_retiring(
                    b"Bob",
                    crc32c(b"Bob"),
                    &config,
                    &mut LeafGarbage::immediate()
                ),
                Some(99)
            );
            assert_eq!(get(&leaf, b"Bob", &config), None);
            assert_eq!(leaf.len(), names.len() - 1);
            // Every other key still reachable after the removal fix-ups.
            for (i, name) in names.iter().enumerate() {
                if *name != "Bob" {
                    assert_eq!(
                        get(&leaf, name.as_bytes(), &config),
                        Some(i as u64),
                        "{name}"
                    );
                }
            }
        }
    }

    #[test]
    fn inc_sort_merges_unsorted_tail() {
        let config = cfg();
        let mut leaf = LeafNode::new(Vec::new(), Vec::new());
        for k in ["m", "c", "x", "a", "t", "b"] {
            insert(&mut leaf, k.as_bytes(), 0, &config);
        }
        leaf.inc_sort(&mut Vec::new());
        let keys: Vec<&[u8]> = leaf.iter_key_order().map(|kv| kv.key.as_ref()).collect();
        assert_eq!(keys, vec![b"a".as_ref(), b"b", b"c", b"m", b"t", b"x"]);
        // Add more after the sort: they form a new unsorted tail.
        for k in ["q", "d"] {
            insert(&mut leaf, k.as_bytes(), 0, &config);
        }
        leaf.inc_sort(&mut Vec::new());
        let keys: Vec<&[u8]> = leaf.iter_key_order().map(|kv| kv.key.as_ref()).collect();
        assert_eq!(
            keys,
            vec![b"a".as_ref(), b"b", b"c", b"d", b"m", b"q", b"t", b"x"]
        );
    }

    #[test]
    fn inc_sort_rewrites_the_key_order_in_place() {
        let config = cfg();
        let mut scratch = Vec::new();
        for seed in 0..32u64 {
            let mut leaf = LeafNode::new(Vec::new(), Vec::new());
            let mut model = Vec::new();
            // Several rounds, each leaving a fresh unsorted tail (of length
            // 0 on some rounds) behind the previously sorted prefix.
            for round in 0..4u64 {
                for j in 0..(seed + round * 3) % 7 {
                    let key = format!("k{:04}", (seed * 131 + round * 17 + j * 29) % 97);
                    if insert(&mut leaf, key.as_bytes(), j, &config).is_none() {
                        model.push(key.into_bytes());
                    }
                }
                let buf = leaf.key_order.as_ptr();
                let cap = leaf.key_order.capacity();
                leaf.inc_sort(&mut scratch);
                assert!(leaf.is_key_sorted());
                assert_eq!(
                    (leaf.key_order.as_ptr(), leaf.key_order.capacity()),
                    (buf, cap)
                );
                model.sort();
                let keys: Vec<&[u8]> = leaf.iter_key_order().map(|kv| kv.key.as_ref()).collect();
                assert_eq!(keys, model.iter().map(Vec::as_slice).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn collect_range_respects_start_and_count() {
        let config = cfg();
        let mut leaf = LeafNode::new(Vec::new(), Vec::new());
        for i in 0..10u64 {
            insert(&mut leaf, format!("k{i:02}").as_bytes(), i, &config);
        }
        leaf.inc_sort(&mut Vec::new());
        let mut out = Vec::new();
        let n = leaf.collect_range_into(b"k03", 4, &mut out);
        assert_eq!(n, 4);
        let keys: Vec<String> = out
            .iter()
            .map(|(k, _)| String::from_utf8(k.clone()).unwrap())
            .collect();
        assert_eq!(keys, vec!["k03", "k04", "k05", "k06"]);
    }

    #[test]
    fn split_off_partitions_items() {
        let config = cfg();
        let mut leaf = LeafNode::new(Vec::new(), Vec::new());
        for i in 0..10u64 {
            insert(&mut leaf, format!("key{i}").as_bytes(), i, &config);
        }
        let (at, anchor) = crate::core::choose_split_point(&mut leaf).unwrap();
        let right = leaf.split_off_retiring(
            at,
            anchor.clone(),
            anchor.clone(),
            &mut LeafGarbage::immediate(),
        );
        assert_eq!(leaf.len() + right.len(), 10);
        assert!(leaf.max_key().unwrap() < right.min_key().unwrap());
        assert!(right.min_key().unwrap() >= anchor.as_slice());
        // Both halves remain searchable.
        for i in 0..10u64 {
            let key = format!("key{i}");
            let hit_left = get(&leaf, key.as_bytes(), &config);
            let hit_right = get(&right, key.as_bytes(), &config);
            assert!(hit_left.is_some() ^ hit_right.is_some(), "{key}");
            assert_eq!(hit_left.or(hit_right), Some(i));
        }
    }

    #[test]
    fn absorb_merges_and_lazily_sorts() {
        let config = cfg();
        let mut left = LeafNode::new(Vec::new(), Vec::new());
        let mut right = LeafNode::new(b"m".to_vec(), b"m".to_vec());
        for k in ["a", "c", "e"] {
            insert(&mut left, k.as_bytes(), 1, &config);
        }
        for k in ["m", "o", "q"] {
            insert(&mut right, k.as_bytes(), 2, &config);
        }
        left.inc_sort(&mut Vec::new());
        left.absorb_retiring(right, &mut LeafGarbage::immediate());
        assert_eq!(left.len(), 6);
        for k in ["a", "c", "e", "m", "o", "q"] {
            assert!(get(&left, k.as_bytes(), &config).is_some(), "{k}");
        }
        left.inc_sort(&mut Vec::new());
        let keys: Vec<&[u8]> = left.iter_key_order().map(|kv| kv.key.as_ref()).collect();
        assert_eq!(keys, vec![b"a".as_ref(), b"c", b"e", b"m", b"o", b"q"]);
    }

    #[test]
    fn checked_reads_match_unchecked_on_quiescent_leaf() {
        for config in [
            WormholeConfig::optimized(),
            WormholeConfig::optimized().with_direct_pos(false),
            WormholeConfig::base(),
        ] {
            let mut leaf = LeafNode::new(Vec::new(), Vec::new());
            for i in 0..40u64 {
                insert(
                    &mut leaf,
                    format!("ck{:03}", i * 7 % 40).as_bytes(),
                    i,
                    &config,
                );
            }
            for i in 0..40u64 {
                let key = format!("ck{i:03}");
                assert_eq!(
                    leaf.get_checked(key.as_bytes(), crc32c(key.as_bytes()), &config),
                    Ok(leaf.get(key.as_bytes(), crc32c(key.as_bytes()), &config)),
                    "{key}"
                );
            }
            assert_eq!(leaf.get_checked(b"zz", crc32c(b"zz"), &config), Ok(None));
            // Range: the checked collector refuses a lagging key-sorted
            // view, and after the in-place incSort agrees with the
            // unsorted-tail merge of the unchecked collector.
            let mut expect = Vec::new();
            let mut scratch16 = Vec::new();
            leaf.collect_leaf_unsorted(b"ck010", 12, &mut expect, &mut scratch16);
            let mut got = Vec::new();
            if !leaf.is_key_sorted() {
                assert_eq!(
                    leaf.collect_leaf_checked(b"ck010", 12, &mut got, 1 << 20),
                    Err(ReadConflict)
                );
                leaf.inc_sort(&mut scratch16);
            }
            let n = leaf
                .collect_leaf_checked(b"ck010", 12, &mut got, 1 << 20)
                .expect("quiescent sorted leaf never conflicts");
            assert_eq!(n, expect.len());
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn table_key_can_be_relocated() {
        let mut leaf: LeafNode<u64> = LeafNode::new(b"Jo".to_vec(), b"Jo".to_vec());
        leaf.set_table_key_retiring(b"Jo\0".to_vec(), &mut LeafGarbage::immediate());
        assert_eq!(leaf.anchor(), b"Jo");
        assert_eq!(leaf.table_key(), b"Jo\0");
    }

    #[test]
    fn remove_range_drains_exactly_the_half_open_window() {
        for config in [
            WormholeConfig::optimized(),
            WormholeConfig::base(),
            WormholeConfig::optimized().with_direct_pos(false),
        ] {
            let mut leaf = LeafNode::new(Vec::new(), Vec::new());
            for i in 0..24u64 {
                // Insert out of key order so the sorted view lags (incSort
                // must run inside remove_range_retiring).
                insert(
                    &mut leaf,
                    format!("rr{:02}", i * 7 % 24).as_bytes(),
                    i,
                    &config,
                );
            }
            let mut bin = LeafGarbage::immediate();
            let (n, bytes) = leaf.remove_range_retiring(b"rr05", b"rr15", &mut bin);
            assert_eq!(n, 10);
            assert_eq!(bytes, 10 * 4);
            assert_eq!(leaf.len(), 14);
            for i in 0..24u64 {
                let key = format!("rr{i:02}");
                let expect = !(5..15).contains(&i);
                assert_eq!(
                    get(&leaf, key.as_bytes(), &config).is_some(),
                    expect,
                    "{key}"
                );
            }
            // Empty window and disjoint window are no-ops.
            assert_eq!(
                leaf.remove_range_retiring(b"rr05", b"rr05", &mut bin),
                (0, 0)
            );
            assert_eq!(leaf.remove_range_retiring(b"zz", b"zzz", &mut bin), (0, 0));
            // Lookups and further mutation still work after the bulk fixups.
            assert_eq!(insert(&mut leaf, b"rr07", 100, &config), None);
            assert_eq!(get(&leaf, b"rr07", &config), Some(100));
        }
    }
}
