//! Seeded request generators for the two live workloads. Everything the
//! cluster receives is generated here from `--seed`; the system under
//! test sees only wire requests. The generator owns its random numbers
//! (splitmix64), so a change to the repository's `DetRng` cannot silently
//! change the benchmark's inputs.

use avdb_wire::Request;

/// The live cluster's catalog (the paper's Fig. 2 topology): products
/// `0..REGULAR` are regular (AV-managed, Delay path), the rest are
/// non-regular (Immediate path).
pub const REGULAR: u32 = 6;
pub const NON_REGULAR: u32 = 2;

/// Which protocol lane a request exercises; decided by the product class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lane {
    Delay,
    Immediate,
    Read,
}

pub fn lane_of(req: &Request) -> Lane {
    match req {
        Request::Update { product, .. } if *product < REGULAR => Lane::Delay,
        Request::Update { .. } => Lane::Immediate,
        _ => Lane::Read,
    }
}

/// splitmix64: tiny, seedable, and good enough for workload draws.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

/// `live-covered`: an endless stream of Delay decrements, uniform
/// `1..=10` on a uniform regular product. Against 12 M stock per product
/// every one is covered by the issuing site's own AV.
pub struct Covered(Rng);

impl Covered {
    pub fn new(seed: u64, connection: u64) -> Self {
        Covered(Rng::new(seed, 0xC0 + connection))
    }
}

impl Iterator for Covered {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let product = self.0.range(0, u64::from(REGULAR) - 1) as u32;
        let delta = -(self.0.range(1, 10) as i64);
        Some(Request::Update { product, delta })
    }
}

/// Request lists for part `part` of `live-mixed`: `.0` goes to the maker (site 0), `.1`
/// to a retailer (site 1); both are issued at the same rate, so entry `i`
/// of each is due at the same instant.
///
/// Per request the kind is drawn from the seed: 70 % Delay, 20 %
/// Immediate, 10 % Read. A retailer Delay takes uniform 1..=10 % of
/// `regular_stock` from a uniform regular product; a maker Delay restocks
/// the most-depleted regular product with exactly what retailers took
/// from it since its last restock, so stock is stationary by
/// construction (a maker Delay slot that finds nothing taken becomes a
/// Read — about one in seven). Immediate updates move 1..=10 units on a non-regular
/// product owned by the issuing connection (maker: the first, adding;
/// retailer: the second, removing), so two coordinators never contend for
/// one record's lock.
pub fn mixed(
    seed: u64,
    part: u64,
    n_per_connection: usize,
    regular_stock: i64,
) -> (Vec<Request>, Vec<Request>) {
    let mut rng = Rng::new(seed, 0x717 + part);
    let mut taken = [0i64; REGULAR as usize];
    let mut maker = Vec::with_capacity(n_per_connection);
    let mut retailer = Vec::with_capacity(n_per_connection);
    let cap = (regular_stock / 10).max(1) as u64;
    for _ in 0..n_per_connection {
        retailer.push(match rng.range(0, 99) {
            0..=69 => {
                let product = rng.range(0, u64::from(REGULAR) - 1) as u32;
                let amount = rng.range(1, cap) as i64;
                taken[product as usize] += amount;
                Request::Update {
                    product,
                    delta: -amount,
                }
            }
            70..=89 => Request::Update {
                product: REGULAR + 1,
                delta: -(rng.range(1, 10) as i64),
            },
            _ => Request::Read {
                product: rng.range(0, u64::from(REGULAR + NON_REGULAR) - 1) as u32,
            },
        });
        maker.push(match rng.range(0, 99) {
            0..=69 => {
                let (product, amount) = taken
                    .iter()
                    .copied()
                    .enumerate()
                    .max_by_key(|&(i, t)| (t, std::cmp::Reverse(i)))
                    .expect("catalog is not empty");
                if amount == 0 {
                    // Nothing to restock yet; a read keeps the slot filled.
                    Request::Read {
                        product: product as u32,
                    }
                } else {
                    taken[product] = 0;
                    Request::Update {
                        product: product as u32,
                        delta: amount,
                    }
                }
            }
            70..=89 => Request::Update {
                product: REGULAR,
                delta: rng.range(1, 10) as i64,
            },
            _ => Request::Read {
                product: rng.range(0, u64::from(REGULAR + NON_REGULAR) - 1) as u32,
            },
        });
    }
    (maker, retailer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use avdb_wire::encode_request;
    use bytes::BytesMut;

    fn bytes_of(reqs: &[Request]) -> Vec<u8> {
        let mut buf = BytesMut::new();
        for (i, r) in reqs.iter().enumerate() {
            encode_request(i as u64, r, &mut buf);
        }
        buf.to_vec()
    }

    #[test]
    fn same_seed_gives_byte_identical_request_lists() {
        let (m1, r1) = mixed(42, 0, 5_000, 120_000);
        let (m2, r2) = mixed(42, 0, 5_000, 120_000);
        assert_eq!(bytes_of(&m1), bytes_of(&m2));
        assert_eq!(bytes_of(&r1), bytes_of(&r2));
        let (m3, _) = mixed(43, 0, 5_000, 120_000);
        assert_ne!(bytes_of(&m1), bytes_of(&m3), "another seed, other inputs");
        let (m4, _) = mixed(42, 1, 5_000, 120_000);
        assert_ne!(bytes_of(&m1), bytes_of(&m4), "another part, other inputs");

        let c1: Vec<Request> = Covered::new(7, 0).take(5_000).collect();
        let c2: Vec<Request> = Covered::new(7, 0).take(5_000).collect();
        assert_eq!(bytes_of(&c1), bytes_of(&c2));
        let other: Vec<Request> = Covered::new(7, 1).take(5_000).collect();
        assert_ne!(
            bytes_of(&c1),
            bytes_of(&other),
            "connections draw separate streams"
        );
    }

    #[test]
    fn covered_requests_are_small_delay_decrements() {
        for req in Covered::new(3, 0).take(10_000) {
            let Request::Update { product, delta } = req else {
                panic!("not an update")
            };
            assert!(product < REGULAR && (-10..=-1).contains(&delta));
        }
    }

    #[test]
    fn mixed_kinds_follow_the_70_20_10_split() {
        let (maker, retailer) = mixed(9, 0, 50_000, 120_000);
        let share = |list: &[Request], lane| {
            list.iter().filter(|r| lane_of(r) == lane).count() as f64 / list.len() as f64
        };
        assert!((share(&retailer, Lane::Delay) - 0.70).abs() < 0.02);
        assert!((share(&retailer, Lane::Immediate) - 0.20).abs() < 0.02);
        assert!((share(&retailer, Lane::Read) - 0.10).abs() < 0.02);
        // The maker draws the same split, but a restock needs something
        // taken: about one Delay slot in seven finds nothing and reads.
        assert!((share(&maker, Lane::Immediate) - 0.20).abs() < 0.02);
        assert!((share(&maker, Lane::Delay) + share(&maker, Lane::Read) - 0.80).abs() < 0.02);
        assert!(share(&maker, Lane::Delay) > 0.55);
    }

    #[test]
    fn maker_restock_keeps_stock_within_one_maker_delta_of_initial() {
        // 1 M requests, replayed in due order (retailer i, then maker i).
        let initial = 120_000i64;
        let (maker, retailer) = mixed(1, 0, 500_000, initial);
        let mut stock = [initial; REGULAR as usize];
        let mut largest_restock = 0i64;
        let mut lowest = initial;
        for (m, r) in maker.iter().zip(&retailer) {
            for req in [r, m] {
                if let Request::Update { product, delta } = req {
                    if *product < REGULAR {
                        stock[*product as usize] += delta;
                        largest_restock = largest_restock.max(*delta);
                        lowest = lowest.min(stock[*product as usize]);
                        assert!(
                            stock[*product as usize] <= initial,
                            "restock never overshoots"
                        );
                    }
                }
            }
        }
        assert!(lowest > 0, "stock never runs out (lowest {lowest})");
        assert!(
            initial - lowest <= largest_restock,
            "dip {} exceeds the largest maker delta {largest_restock}",
            initial - lowest
        );
    }
}
