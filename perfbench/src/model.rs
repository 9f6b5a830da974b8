//! The reference model every response is checked against.
//!
//! A stored value is derived from the key id and the key's write version,
//! so a value read back names both the key it belongs to and the write
//! that produced it. The model replays the stream in the order the
//! program is asked to execute it and predicts each response.

use netsim::{WireRequest, WireResponse};

use crate::inputs::{Op, SCAN_LIMIT};

const ABSENT: u32 = u32::MAX;

/// The value written to key `id` by its `version`-th write (0 = set-up).
pub fn value_of(id: u32, version: u32) -> u64 {
    (id as u64) << 32 | version as u64
}

/// Per-key write versions; `ABSENT` marks keys not resident.
pub struct Model {
    versions: Vec<u32>,
}

/// The predicted answer to one request.
#[derive(Debug)]
pub enum Expect {
    /// A `Get` or `Set`: the current (or, for a set, previous) value.
    Value(Option<u64>),
    /// A scan page: the ids it must hold, in order, and whether a resident
    /// key follows them.
    Page { ids: Vec<u32>, more: bool },
}

impl Model {
    pub fn new(keys: usize, resident: &[u32]) -> Model {
        let mut versions = vec![ABSENT; keys];
        for &id in resident {
            versions[id as usize] = 0;
        }
        Model { versions }
    }

    pub fn get(&self, id: u32) -> Option<u64> {
        match self.versions[id as usize] {
            ABSENT => None,
            v => Some(value_of(id, v)),
        }
    }

    /// Applies the next write to `id`; returns the value it stores and the
    /// value it replaces.
    pub fn set(&mut self, id: u32) -> (u64, Option<u64>) {
        let prev = self.get(id);
        let slot = &mut self.versions[id as usize];
        *slot = slot.wrapping_add(1);
        (value_of(id, *slot), prev)
    }

    /// The page a scan from key `id` must return.
    pub fn page(&self, id: u32, limit: usize) -> Expect {
        let mut ids: Vec<u32> = (id..self.versions.len() as u32)
            .filter(|&i| self.versions[i as usize] != ABSENT)
            .take(limit + 1)
            .collect();
        let more = ids.len() > limit;
        ids.truncate(limit);
        Expect::Page { ids, more }
    }

    /// Builds the requests for `ops` and advances the model through them in
    /// order, returning what each response must be.
    pub fn materialize(&mut self, ops: &[Op], keys: &[Vec<u8>]) -> (Vec<WireRequest>, Vec<Expect>) {
        let mut requests = Vec::with_capacity(ops.len());
        let mut expects = Vec::with_capacity(ops.len());
        for &op in ops {
            let key = keys[op.id() as usize].clone();
            let (request, expect) = match op {
                Op::Get(id) => (WireRequest::Get { key }, Expect::Value(self.get(id))),
                Op::Set(id) => {
                    let (value, prev) = self.set(id);
                    (WireRequest::Set { key, value }, Expect::Value(prev))
                }
                Op::Scan(id) => (
                    WireRequest::Scan {
                        start: key,
                        limit: SCAN_LIMIT as u32,
                    },
                    self.page(id, SCAN_LIMIT),
                ),
            };
            requests.push(request);
            expects.push(expect);
        }
        (requests, expects)
    }

    /// Whether `resp` is a correct answer.
    ///
    /// Point answers must match exactly: the serving layer keeps per-key
    /// program order. A scan page is a concurrent snapshot that may run
    /// ahead of or behind writes to other keys, so its keys must match
    /// exactly (no stream that scans inserts) while each value must only
    /// belong to its key and to a write the model has already issued.
    pub fn check(&self, resp: &WireResponse, expect: &Expect, keys: &[Vec<u8>]) -> bool {
        match (expect, resp) {
            (Expect::Value(Some(v)), WireResponse::Value(got)) => v == got,
            (Expect::Value(None), WireResponse::Miss) => true,
            (Expect::Page { ids, more }, WireResponse::ScanPage { items, resume }) => {
                self.check_page(items, resume.as_deref(), ids, *more, keys, false)
            }
            _ => false,
        }
    }

    /// Checks one page. With `prefix`, the page may stop early with no
    /// resume key (a single shard's page ends at the shard's last key).
    pub fn check_page(
        &self,
        items: &[(Vec<u8>, u64)],
        resume: Option<&[u8]>,
        ids: &[u32],
        more: bool,
        keys: &[Vec<u8>],
        prefix: bool,
    ) -> bool {
        let len_ok = if prefix {
            items.len() <= ids.len() && (items.len() == ids.len() || resume.is_none())
        } else {
            items.len() == ids.len()
        };
        let items_ok = items.iter().zip(ids).all(|((key, value), &id)| {
            let version = (value & u32::MAX as u64) as u32;
            *key == keys[id as usize]
                && value >> 32 == id as u64
                && self.versions[id as usize] != ABSENT
                && version <= self.versions[id as usize]
        });
        // A full page may carry a resume key past its last key even when no
        // key follows; a short page must not carry one.
        let resume_ok = match (resume, items.last()) {
            (None, _) => prefix || !more,
            (Some(next), Some((last, _))) => items.len() == SCAN_LIMIT && next > last.as_slice(),
            (Some(_), None) => false,
        };
        len_ok && items_ok && resume_ok
    }
}

/// Attempted and failed operation counts.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}
