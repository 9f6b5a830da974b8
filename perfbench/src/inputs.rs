//! Seeded inputs: the Az1 keyset, the resident set and its load order, and
//! the operation stream, all generated before any timing starts.
//!
//! Keys are sorted once after generation and then named by their rank, so
//! a key id doubles as its position in key order: the model answers a
//! scan by walking ids upward.

use std::fmt;

use workloads::{generate, KeysetId};

/// SplitMix64. The stream generator is self-contained so that the stream a
/// seed names never changes with the `rand` shim's internals.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-32 here).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One benchmark workload (see the README for why each exists).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PointLarge,
    ScanSmall,
    Ingest,
    DurableIngest,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PointLarge,
        Workload::ScanSmall,
        Workload::Ingest,
        Workload::DurableIngest,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointLarge => "point_large",
            Workload::ScanSmall => "scan_small",
            Workload::Ingest => "ingest",
            Workload::DurableIngest => "durable_ingest",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Input sizes of one run. [`Sizes::full`] is what the benchmark measures;
/// [`Sizes::smoke`] is a tiny version of the same shapes for self-tests.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Keys generated (resident plus, for the ingest shapes, absent).
    pub keys: usize,
    /// Upper bound on stream operations served per second; the stream is
    /// generated this long before timing starts.
    pub max_ops_per_s: usize,
    /// Wire messages (of [`BATCH`] requests) per timed serving call.
    pub chunk_messages: usize,
    /// Wire messages per ladder segment: how many other keys a rung
    /// touches between two uses of one key.
    pub ladder_messages: usize,
    /// Rounds of an untraced run, each with its own set-up; `setup_s` is
    /// the median of the set-ups. An ingest run takes more rounds when its
    /// streams end before the run's seconds do.
    pub setups: usize,
}

/// Requests per wire message: the paper's HERD batch size, fixed by
/// `ShardServer::new`.
pub const BATCH: usize = 800;
/// Shards of the sharded front and of the durable store.
pub const SHARDS: usize = 4;
/// Serving-layer worker threads.
pub const WORKERS: usize = 2;
/// Writer threads of the durable workload.
pub const WRITERS: usize = 2;
/// `Scan{limit}` of the scan workload and of scan probes.
pub const SCAN_LIMIT: usize = 100;

impl Sizes {
    pub fn full(workload: Workload) -> Sizes {
        match workload {
            Workload::PointLarge => Sizes {
                keys: 2_000_000,
                max_ops_per_s: 1_500_000,
                chunk_messages: 200,
                ladder_messages: 128,
                setups: 3,
            },
            Workload::ScanSmall => Sizes {
                keys: 50_000,
                max_ops_per_s: 150_000,
                chunk_messages: 16,
                ladder_messages: 4,
                setups: 5,
            },
            Workload::Ingest => Sizes {
                keys: 2_000_000,
                max_ops_per_s: 1_000_000,
                chunk_messages: 200,
                ladder_messages: 128,
                setups: 3,
            },
            Workload::DurableIngest => Sizes {
                keys: 1_000_000,
                max_ops_per_s: 60_000,
                chunk_messages: 200,
                ladder_messages: 128,
                setups: 3,
            },
        }
    }

    pub fn smoke(workload: Workload) -> Sizes {
        Sizes {
            keys: 4_000,
            max_ops_per_s: 20_000,
            chunk_messages: 4,
            ladder_messages: 2,
            setups: Sizes::full(workload).setups.min(2),
        }
    }
}

/// A stream operation on key id `id` (a rank in the sorted keyset).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    Get(u32),
    Set(u32),
    Scan(u32),
}

impl Op {
    pub fn id(self) -> u32 {
        match self {
            Op::Get(id) | Op::Set(id) | Op::Scan(id) => id,
        }
    }
}

/// Everything a run feeds the program, derived from the seed alone.
pub struct Inputs {
    /// Az1 keys, sorted ascending; a key's id is its index.
    pub keys: Vec<Vec<u8>>,
    /// Ids resident after set-up, in the order set-up inserts them.
    pub load: Vec<u32>,
    /// Operation streams. The ingest shapes have one stream per round,
    /// each starting from a fresh set-up; the others have one stream.
    pub rounds: Vec<Vec<Op>>,
}

impl Inputs {
    /// Generates the inputs of `workload` for a run of `seconds`.
    pub fn generate(workload: Workload, sizes: &Sizes, seed: u64, seconds: f64) -> Inputs {
        let mut keys = generate(KeysetId::Az1, sizes.keys, seed).keys;
        keys.sort_unstable();
        let n = keys.len();
        let mut rng = Rng::new(seed ^ 0x5045_5246_4245_4E43);
        let budget = ((seconds * sizes.max_ops_per_s as f64) as usize).max(BATCH);
        let (load, rounds) = match workload {
            Workload::PointLarge | Workload::ScanSmall => {
                let mut load: Vec<u32> = (0..n as u32).collect();
                rng.shuffle(&mut load);
                let (write_pct, read): (usize, fn(u32) -> Op) = match workload {
                    Workload::PointLarge => (5, Op::Get),
                    _ => (10, Op::Scan),
                };
                let stream = (0..budget)
                    .map(|_| {
                        let id = rng.below(n) as u32;
                        if rng.below(100) < write_pct {
                            Op::Set(id)
                        } else {
                            read(id)
                        }
                    })
                    .collect();
                (load, vec![stream])
            }
            Workload::Ingest | Workload::DurableIngest => {
                let mut load: Vec<u32> = (0..n as u32).step_by(2).collect();
                rng.shuffle(&mut load);
                let round_ops = 2 * (n / 2);
                let rounds = match workload {
                    Workload::Ingest => budget.div_ceil(round_ops),
                    _ => 1,
                };
                let rounds = (0..rounds)
                    .map(|_| ingest_stream(n, &load, &mut rng))
                    .collect();
                (load, rounds)
            }
        };
        Inputs { keys, load, rounds }
    }

    /// FNV-1a over the keys, the load order and every stream: equal inputs
    /// give equal digests.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for key in &self.keys {
            h.write(&(key.len() as u32).to_le_bytes());
            h.write(key);
        }
        for id in &self.load {
            h.write(&id.to_le_bytes());
        }
        for round in &self.rounds {
            h.write(&(round.len() as u64).to_le_bytes());
            for op in round {
                let tag = match op {
                    Op::Get(_) => 0u8,
                    Op::Set(_) => 1,
                    Op::Scan(_) => 2,
                };
                h.write(&[tag]);
                h.write(&op.id().to_le_bytes());
            }
        }
        h.0
    }
}

/// Inserts of every absent (odd) id in random order, 1:1 with gets of
/// uniformly chosen resident ids.
fn ingest_stream(n: usize, resident: &[u32], rng: &mut Rng) -> Vec<Op> {
    let mut absent: Vec<u32> = (1..n as u32).step_by(2).collect();
    rng.shuffle(&mut absent);
    absent
        .into_iter()
        .flat_map(|id| [Op::Set(id), Op::Get(resident[rng.below(resident.len())])])
        .collect()
}

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }
}
