//! Seeded inputs. The generator, the zipf sampler and the arrival schedule are
//! the benchmark's own (not the repository's `nice-workload`), so a change to
//! the repository can never change what the benchmark feeds it: the program
//! under test receives only the generated operations.

/// Object size of every put and of every preloaded record.
pub const OBJ_BYTES: usize = 1024;

/// splitmix64: tiny, seedable, and good enough to drive a workload.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// YCSB's zipfian generator (Gray et al.), theta = 0.99, ranks 0..n.
pub struct Zipf {
    n: u64,
    theta: f64,
    zetan: f64,
    alpha: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64) -> Zipf {
        let theta = 0.99;
        let zeta = |m: u64| (1..=m).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        Zipf {
            n,
            theta,
            zetan,
            alpha: 1.0 / (1.0 - theta),
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan),
        }
    }

    pub fn sample(&self, rng: &mut SplitMix) -> u64 {
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }
}

/// One generated operation. `tag` makes every put's value unique, which is
/// what lets the output check tell which write a read observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenOp {
    pub put: bool,
    pub rank: u64,
    pub tag: u64,
}

impl GenOp {
    pub fn key(&self) -> String {
        format!("user{}", self.rank)
    }

    /// The put's value: `OBJ_BYTES` bytes, the tag repeated.
    pub fn value(&self) -> Vec<u8> {
        self.tag
            .to_le_bytes()
            .iter()
            .copied()
            .cycle()
            .take(OBJ_BYTES)
            .collect()
    }
}

/// Preload: every record put once, striped over the clients.
pub fn preload(records: u64, clients: usize) -> Vec<Vec<GenOp>> {
    let mut per_client = vec![Vec::new(); clients];
    for rank in 0..records {
        per_client[(rank % clients as u64) as usize].push(GenOp {
            put: true,
            rank,
            tag: (0xFFFF << 48) | rank,
        });
    }
    per_client
}

/// Operations per mix block: `put_share` holds exactly over every block.
const MIX_BLOCK: usize = 20;

/// An endless operation stream for one client: zipfian keys, and exactly
/// `put_share` of every block of 20 operations puts, at seeded positions
/// within the block. (A coin per operation would let the put count of a short
/// run, and with it the throughput, vary by several per cent from seed to
/// seed.) Streams of different clients, rounds and seeds are independent.
pub struct OpStream {
    rng: SplitMix,
    zipf: Zipf,
    puts_per_block: usize,
    block: Vec<bool>,
    tag_base: u64,
    issued: u64,
}

impl OpStream {
    pub fn new(seed: u64, round: u64, client: u64, records: u64, put_share: f64) -> OpStream {
        let stream = (round << 8) | client;
        OpStream {
            rng: SplitMix::new(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93)),
            zipf: Zipf::new(records),
            puts_per_block: (put_share * MIX_BLOCK as f64).round() as usize,
            block: Vec::new(),
            tag_base: stream << 32,
            issued: 0,
        }
    }
}

impl Iterator for OpStream {
    type Item = GenOp;

    fn next(&mut self) -> Option<GenOp> {
        if self.block.is_empty() {
            // Fisher-Yates over `puts_per_block` puts and the rest gets.
            self.block = (0..MIX_BLOCK).map(|i| i < self.puts_per_block).collect();
            for i in (1..MIX_BLOCK).rev() {
                let j = (self.rng.next_u64() % (i as u64 + 1)) as usize;
                self.block.swap(i, j);
            }
        }
        let put = self.block.pop().expect("refilled above");
        let rank = self.zipf.sample(&mut self.rng);
        self.issued += 1;
        Some(GenOp {
            put,
            rank,
            tag: self.tag_base | self.issued,
        })
    }
}

/// One open-loop arrival: `op` is due `due_ns` after the schedule starts and
/// goes to `client`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    pub due_ns: u64,
    pub client: usize,
    pub op: GenOp,
}

/// An open-loop schedule of exactly `n` arrivals over the window: the window
/// is cut into `n` equal slots and each holds one arrival at a seeded uniform
/// offset, clients taking turns. Gaps vary from zero to two slots, so no
/// arrival can lock onto a timer period of the system, but every seed offers
/// the same rate and the same burstiness: with plain Poisson arrivals the
/// latencies of a 15 s run were set by how many clumps its seed happened to
/// draw (p90 moved 17 % from seed to seed), not by the system.
pub fn open_schedule(
    seed: u64,
    round: u64,
    n: usize,
    window_ns: u64,
    clients: usize,
    records: u64,
    put_share: f64,
) -> Vec<Arrival> {
    let mut rng = SplitMix::new(seed ^ (round + 1).wrapping_mul(0xA24B_AED4_963E_E407));
    let slot = window_ns as f64 / n as f64;
    let mut ops = OpStream::new(seed, round, 0xFF, records, put_share);
    (0..n)
        .map(|i| Arrival {
            due_ns: ((i as f64 + rng.next_f64()) * slot) as u64,
            client: i % clients,
            op: ops.next().expect("endless stream"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_identical_op_lists_and_schedule() {
        let take =
            |seed| -> Vec<GenOp> { OpStream::new(seed, 1, 0, 100, 0.05).take(500).collect() };
        assert_eq!(take(42), take(42));
        assert_ne!(take(42), take(43));
        let sched = |seed| open_schedule(seed, 0, 300, 10_000_000_000, 2, 100, 0.5);
        assert_eq!(sched(42), sched(42));
        assert_ne!(sched(42), sched(43));
        // Clients and rounds draw from independent streams.
        let other: Vec<GenOp> = OpStream::new(42, 1, 1, 100, 0.05).take(500).collect();
        assert_ne!(take(42), other);
    }

    #[test]
    fn the_generator_is_pinned() {
        // Golden values: a change here changes every baseline.
        let mut r = SplitMix::new(42);
        assert_eq!(r.next_u64(), 0xBDD7_3226_2FEB_6E95);
        let ops: Vec<GenOp> = OpStream::new(42, 0, 0, 100, 0.5).take(4).collect();
        let again: Vec<GenOp> = OpStream::new(42, 0, 0, 100, 0.5).take(4).collect();
        assert_eq!(ops, again);
        assert_eq!(ops[0].tag, 1);
        assert_eq!(ops[3].tag, 4);
    }

    #[test]
    fn schedule_is_sorted_inside_the_window_and_complete() {
        let s = open_schedule(7, 0, 450, 15_000_000_000, 2, 100, 0.5);
        assert_eq!(s.len(), 450);
        assert!(s.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(s.iter().all(|a| a.due_ns < 15_000_000_000 && a.client < 2));
        assert_eq!(
            s.iter().filter(|a| a.op.put).count(),
            225,
            "exactly half are puts"
        );
        assert_eq!(s.iter().filter(|a| a.client == 0).count(), 225);
    }

    #[test]
    fn the_mix_is_exact_over_every_block() {
        for (share, per_block) in [(0.05, 1), (0.8, 16), (0.5, 10)] {
            let ops: Vec<GenOp> = OpStream::new(3, 0, 0, 100, share).take(200).collect();
            for block in ops.chunks(20) {
                assert_eq!(block.iter().filter(|o| o.put).count(), per_block);
            }
        }
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(100);
        let mut rng = SplitMix::new(1);
        let mut hits = [0u32; 100];
        for _ in 0..20_000 {
            hits[z.sample(&mut rng) as usize] += 1;
        }
        assert!(hits[0] > hits[10] && hits[10] > hits[90]);
        assert!(hits[0] > 2_000, "rank 0 carries ~19%: {}", hits[0]);
    }

    #[test]
    fn values_are_unique_per_tag_and_full_size() {
        let a = GenOp {
            put: true,
            rank: 1,
            tag: 7,
        };
        let b = GenOp {
            put: true,
            rank: 1,
            tag: 8,
        };
        assert_eq!(a.value().len(), OBJ_BYTES);
        assert_ne!(a.value(), b.value());
        assert_eq!(preload(5, 2)[0].len(), 3);
    }
}
