//! The harness's own generators: a counter-based PRNG, a Zipf sampler,
//! trigger populations built from four condition forms plus a two-arm
//! `or`, token streams, and the closed-form reference that says how many
//! triggers a token must fire.
//!
//! Everything is a pure function of the seed: token `seq` of a workload is
//! the same on every run with that seed, whoever asks for it.

use std::collections::HashMap;
use tman_common::{DataSourceId, Tuple, UpdateDescriptor, Value};

/// Name and schema of the one data source every workload uses.
pub const SOURCE: &str = "q";
pub const SOURCE_COLUMNS: &str = "sym varchar(12), price float, vol int, seq int";
/// Token prices are `k + 0.5` for an integer `k` below this, so a price
/// never equals an (integer) trigger constant.
pub const PRICE_RANGE: u32 = 100_000;

/// SplitMix64.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next_u64() >> 32) * n as u64) >> 32) as u32
    }
}

/// Zipf(theta) over ranks `0..n` (rank 0 the most popular; theta 0 is
/// uniform).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: u32, theta: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for i in 1..=n {
            acc += 1.0 / (i as f64).powf(theta);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> u32 {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1) as u32
    }
}

/// One trigger condition over `q`. Symbols are `S<n>`; price constants
/// are integers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cond {
    /// `q.sym = 'S<sym>'`
    SymEq(u32),
    /// `q.sym = 'S<sym>' and q.price > <above>`
    SymPrice(u32, u32),
    /// `q.vol = <vol>`
    VolEq(u32),
    /// `q.price > <lo> and q.price <= <hi>`
    Band(u32, u32),
    /// `q.price > <above>`
    PriceAbove(u32),
    /// `q.sym = 'S<sym>' or q.vol = <vol>` — indexed through tagged
    /// execution: one entry per arm, fires once when both match.
    Or(u32, u32),
}

impl Cond {
    pub fn text(&self) -> String {
        match *self {
            Cond::SymEq(s) => format!("q.sym = 'S{s}'"),
            Cond::SymPrice(s, p) => format!("q.sym = 'S{s}' and q.price > {p}"),
            Cond::VolEq(v) => format!("q.vol = {v}"),
            Cond::Band(lo, hi) => format!("q.price > {lo} and q.price <= {hi}"),
            Cond::PriceAbove(p) => format!("q.price > {p}"),
            Cond::Or(s, v) => format!("q.sym = 'S{s}' or q.vol = {v}"),
        }
    }

    /// The `create trigger` command for this condition.
    pub fn create_text(&self, name: &str) -> String {
        format!(
            "create trigger {name} from q when {} do raise event Matched(q.seq)",
            self.text()
        )
    }

    /// Index entries whose predicate `t` satisfies: 2 for an `or` both of
    /// whose arms match (the engine dedups them into one fire).
    #[cfg(test)]
    fn entries_matched(&self, t: &Tok) -> u32 {
        // price = k + 0.5, so `price > c` is `k >= c` and `price <= c` is
        // `k < c` for an integer constant c.
        match *self {
            Cond::SymEq(s) => (t.sym == s) as u32,
            Cond::SymPrice(s, p) => (t.sym == s && t.price_k >= p) as u32,
            Cond::VolEq(v) => (t.vol == v) as u32,
            Cond::Band(lo, hi) => (t.price_k >= lo && t.price_k < hi) as u32,
            Cond::PriceAbove(p) => (t.price_k >= p) as u32,
            Cond::Or(s, v) => (t.sym == s) as u32 + (t.vol == v) as u32,
        }
    }
}

/// A token's column values before they become a tuple.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tok {
    pub sym: u32,
    /// The price is `price_k + 0.5`.
    pub price_k: u32,
    pub vol: u32,
}

impl Tok {
    pub fn descriptor(&self, src: DataSourceId, seq: u64) -> UpdateDescriptor {
        UpdateDescriptor::insert(
            src,
            Tuple::new(vec![
                Value::Str(format!("S{}", self.sym)),
                Value::Float(self.price_k as f64 + 0.5),
                Value::Int(self.vol as i64),
                Value::Int(seq as i64),
            ]),
        )
    }
}

/// What the token stream of a workload is drawn from.
pub struct TokenDomain {
    pub syms: u32,
    pub vols: u32,
    zipf: Option<Zipf>,
}

impl TokenDomain {
    /// Symbols Zipf(`theta`) over `syms` (uniform at 0), volumes uniform
    /// over `vols`, prices uniform over [`PRICE_RANGE`].
    pub fn new(syms: u32, vols: u32, theta: f64) -> TokenDomain {
        TokenDomain {
            syms,
            vols,
            zipf: (theta > 0.0).then(|| Zipf::new(syms, theta)),
        }
    }

    /// Token number `seq` of the stream `seed` names.
    pub fn token(&self, seed: u64, seq: u64) -> Tok {
        let mut rng = Rng::new(seed ^ seq.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        let sym = match &self.zipf {
            Some(z) => z.sample(&mut rng),
            None => rng.below(self.syms),
        };
        Tok {
            sym,
            price_k: rng.below(PRICE_RANGE),
            vol: rng.below(self.vols),
        }
    }
}

/// The selection mix of `select_hot` at `n` triggers: nine tenths split
/// evenly over `sym =`, `sym = and price >`, `vol =` and narrow price
/// bands, one tenth two-arm `or`. Constants are uniform over domains of
/// `spread * n / 4` symbols and volumes, so a uniform token fires about
/// `4.4 / spread` triggers whatever `n` is. Returns the conditions and the
/// domain their tokens come from.
pub fn selection_mix(n: u32, spread: u32, rng: &mut Rng) -> (Vec<Cond>, TokenDomain) {
    let domain = (spread * n / 4).max(1);
    // Expected band hits per token = bands * width / PRICE_RANGE = 1 / spread.
    let bands = (n - n / 10) / 4;
    let width = (PRICE_RANGE / (bands * spread).max(1)).max(1);
    let mut conds = Vec::with_capacity(n as usize);
    for i in 0..n {
        let sym = rng.below(domain);
        let vol = rng.below(domain);
        let price = rng.below(PRICE_RANGE - width);
        conds.push(if i % 10 == 9 {
            Cond::Or(sym, vol)
        } else {
            match i % 4 {
                0 => Cond::SymEq(sym),
                1 => Cond::SymPrice(sym, price),
                2 => Cond::VolEq(vol),
                _ => Cond::Band(price, price + width),
            }
        });
    }
    (conds, TokenDomain::new(domain, domain, 0.0))
}

/// A condition of the same forms as [`selection_mix`] whose constants lie
/// outside `domain`, so no token of that domain ever satisfies it: what
/// `ddl_churn` creates and drops beside the token stream.
pub fn unmatched_cond(i: u64, domain: &TokenDomain) -> Cond {
    let sym = domain.syms + (i % 50_000) as u32;
    let vol = domain.vols + (i % 50_000) as u32;
    let price = PRICE_RANGE + (i % 50_000) as u32;
    match i % 5 {
        0 => Cond::SymEq(sym),
        1 => Cond::SymPrice(sym, price - PRICE_RANGE),
        2 => Cond::VolEq(vol),
        3 => Cond::Band(price, price + 10),
        _ => Cond::Or(sym, vol),
    }
}

/// `fanout_heavy`: `sym_triggers` `sym =` triggers whose symbols are
/// Zipf(1.0) over `syms`, plus `price_triggers` one-sided `price >`.
pub fn fanout_population(
    sym_triggers: u32,
    price_triggers: u32,
    syms: u32,
    rng: &mut Rng,
) -> (Vec<Cond>, TokenDomain) {
    let zipf = Zipf::new(syms, 1.0);
    let mut conds: Vec<Cond> = (0..sym_triggers)
        .map(|_| Cond::SymEq(zipf.sample(rng)))
        .collect();
    conds.extend((0..price_triggers).map(|_| Cond::PriceAbove(rng.below(PRICE_RANGE))));
    (conds, TokenDomain::new(syms, 1_000, 1.0))
}

/// `cache_cold`: one `vol = i` trigger per volume, tokens uniform over
/// them: exactly one fire per token, each on a different trigger.
pub fn one_per_volume(n: u32) -> (Vec<Cond>, TokenDomain) {
    (
        (0..n).map(Cond::VolEq).collect(),
        TokenDomain::new(16, n, 0.0),
    )
}

/// What a token must do to a population.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct Expected {
    /// Notifications the token raises: triggers whose condition it meets.
    pub fires: u32,
    /// Predicate-index entries it matches: `fires` plus one for every
    /// `or` trigger both of whose arms match.
    pub entries: u32,
}

/// Closed-form count of the triggers of a fixed population that a token
/// fires: table lookups and binary searches, no walk over the triggers.
#[derive(Default)]
pub struct Reference {
    sym_eq: HashMap<u32, u32>,
    /// Per symbol, the sorted `price >` constants of its `SymPrice` triggers.
    sym_price: HashMap<u32, Vec<u32>>,
    vol_eq: HashMap<u32, u32>,
    /// Sorted lower and upper ends of every band; a one-sided `price >`
    /// is a band with no upper end.
    band_lo: Vec<u32>,
    band_hi: Vec<u32>,
    or_sym: HashMap<u32, u32>,
    or_vol: HashMap<u32, u32>,
    or_both: HashMap<(u32, u32), u32>,
}

impl Reference {
    pub fn new(conds: &[Cond]) -> Reference {
        let mut r = Reference::default();
        for c in conds {
            match *c {
                Cond::SymEq(s) => *r.sym_eq.entry(s).or_default() += 1,
                Cond::SymPrice(s, p) => r.sym_price.entry(s).or_default().push(p),
                Cond::VolEq(v) => *r.vol_eq.entry(v).or_default() += 1,
                Cond::Band(lo, hi) => {
                    r.band_lo.push(lo);
                    r.band_hi.push(hi);
                }
                Cond::PriceAbove(p) => r.band_lo.push(p),
                Cond::Or(s, v) => {
                    *r.or_sym.entry(s).or_default() += 1;
                    *r.or_vol.entry(v).or_default() += 1;
                    *r.or_both.entry((s, v)).or_default() += 1;
                }
            }
        }
        r.sym_price.values_mut().for_each(|v| v.sort_unstable());
        r.band_lo.sort_unstable();
        r.band_hi.sort_unstable();
        r
    }

    pub fn expected(&self, t: &Tok) -> Expected {
        let at = |m: &HashMap<u32, u32>, k: u32| m.get(&k).copied().unwrap_or(0);
        // Constants c with `price > c`, i.e. c <= k.
        let at_most_k = |sorted: &[u32]| sorted.partition_point(|&c| c <= t.price_k) as u32;
        let sym_price = self.sym_price.get(&t.sym).map_or(0, |v| at_most_k(v));
        // Every band has lo < hi, so bands with hi <= k are among those
        // with lo <= k; the rest of those contain the price.
        let bands = at_most_k(&self.band_lo) - at_most_k(&self.band_hi);
        let plain = at(&self.sym_eq, t.sym) + sym_price + at(&self.vol_eq, t.vol) + bands;
        let or_arms = at(&self.or_sym, t.sym) + at(&self.or_vol, t.vol);
        let or_both = self.or_both.get(&(t.sym, t.vol)).copied().unwrap_or(0);
        Expected {
            fires: plain + or_arms - or_both,
            entries: plain + or_arms,
        }
    }
}

/// The same answer by walking every condition (tests only).
#[cfg(test)]
pub fn expected_by_scan(conds: &[Cond], t: &Tok) -> Expected {
    let mut e = Expected::default();
    for c in conds {
        let m = c.entries_matched(t);
        e.entries += m;
        e.fires += m.min(1);
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let d = TokenDomain::new(200, 1_000, 1.0);
        let a: Vec<Tok> = (0..500).map(|i| d.token(7, i)).collect();
        let b: Vec<Tok> = (0..500).map(|i| d.token(7, i)).collect();
        let c: Vec<Tok> = (0..500).map(|i| d.token(8, i)).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Random access: asking for one token alone gives the same token.
        assert_eq!(d.token(7, 321), a[321]);
        let (p1, _) = selection_mix(1_000, 1, &mut Rng::new(7));
        let (p2, _) = selection_mix(1_000, 1, &mut Rng::new(7));
        let (p3, _) = selection_mix(1_000, 1, &mut Rng::new(8));
        assert_eq!(p1, p2);
        assert_ne!(p1, p3);
    }

    #[test]
    fn zipf_is_skewed_and_stays_in_range() {
        let z = Zipf::new(200, 1.0);
        let mut rng = Rng::new(1);
        let mut hits = vec![0u32; 200];
        for _ in 0..100_000 {
            hits[z.sample(&mut rng) as usize] += 1;
        }
        // P(rank 0) = 1/H_200 = 0.170; P(rank 9) is a tenth of that.
        assert!((16_000..18_000).contains(&hits[0]), "{}", hits[0]);
        assert!((1_400..2_000).contains(&hits[9]), "{}", hits[9]);
        assert!(hits[0] > hits[1] && hits[1] > hits[3]);
        let flat = Zipf::new(4, 0.0);
        let mut flat_hits = [0u32; 4];
        for _ in 0..40_000 {
            flat_hits[flat.sample(&mut rng) as usize] += 1;
        }
        assert!(flat_hits.iter().all(|h| (9_000..11_000).contains(h)));
    }

    #[test]
    fn reference_agrees_with_a_scan_of_every_population() {
        let mut rng = Rng::new(42);
        let populations = [
            selection_mix(2_000, 1, &mut rng),
            selection_mix(500, 4, &mut rng),
            fanout_population(2_000, 500, 50, &mut rng),
            one_per_volume(300),
        ];
        for (conds, domain) in &populations {
            let reference = Reference::new(conds);
            let mut fires = 0;
            for seq in 0..1_000 {
                let t = domain.token(42, seq);
                let want = expected_by_scan(conds, &t);
                assert_eq!(reference.expected(&t), want, "token {t:?}");
                fires += want.fires;
            }
            assert!(fires > 0);
        }
    }

    #[test]
    fn selection_mix_fires_about_four_per_token_and_hits_both_or_arms() {
        let (conds, domain) = selection_mix(20_000, 1, &mut Rng::new(3));
        assert_eq!(conds.len(), 20_000);
        let ors = conds.iter().filter(|c| matches!(c, Cond::Or(..))).count();
        assert_eq!(ors, 2_000);
        let reference = Reference::new(&conds);
        let total: u32 = (0..5_000)
            .map(|i| reference.expected(&domain.token(3, i)).fires)
            .sum();
        let per_token = total as f64 / 5_000.0;
        assert!((3.5..5.5).contains(&per_token), "{per_token}");
        // An or-trigger whose two arms both match is two entries, one fire.
        let both = Tok {
            sym: 5,
            price_k: 10,
            vol: 9,
        };
        let e = Reference::new(&[Cond::Or(5, 9)]).expected(&both);
        assert_eq!((e.fires, e.entries), (1, 2));
    }

    #[test]
    fn churn_conditions_never_match_the_token_stream() {
        let (_, domain) = selection_mix(4_000, 1, &mut Rng::new(9));
        let churn: Vec<Cond> = (0..500).map(|i| unmatched_cond(i, &domain)).collect();
        let reference = Reference::new(&churn);
        for seq in 0..2_000 {
            assert_eq!(reference.expected(&domain.token(9, seq)).fires, 0);
        }
    }
}
