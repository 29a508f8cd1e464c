//! Seeded parameter bindings over each query's whole substitution
//! domain — the domains the validating constructors of
//! `dbep_queries::params` accept (EXPERIMENTS.md "Substitution
//! parameters").

use dbep_core::datagen::ssb::REGIONS;
use dbep_core::datagen::tpch::{COLORS, SEGMENTS, SHIPMODES};
use dbep_core::queries::params::*;
use dbep_core::queries::QueryId;
use dbep_core::runtime::SmallRng;
use dbep_core::storage::types::date;

fn pick<'a>(rng: &mut SmallRng, xs: &[&'a str]) -> &'a str {
    xs[rng.gen_range(0..xs.len())]
}

/// Two distinct values of `lo..=hi`.
fn distinct_pair(rng: &mut SmallRng, lo: i32, hi: i32) -> (i32, i32) {
    let a = rng.gen_range(lo..=hi);
    let b = lo + (a - lo + rng.gen_range(1..=hi - lo)) % (hi - lo + 1);
    (a, b)
}

/// Draw a binding of `q` uniformly per field from its whole domain.
pub fn draw(q: QueryId, rng: &mut SmallRng) -> Params {
    let first_day = date(1992, 1, 1);
    let last_day = date(1998, 12, 31);
    let p: Result<Params, ParamError> = match q {
        QueryId::Q1 => Q1Params::new(rng.gen_range(60..=120)).map(Into::into),
        QueryId::Q6 => Q6Params::new(
            rng.gen_range(1993..=1997),
            rng.gen_range(1..=9),
            rng.gen_range(1..=50),
        )
        .map(Into::into),
        QueryId::Q3 => {
            Q3Params::new(pick(rng, SEGMENTS), rng.gen_range(first_day..=last_day)).map(Into::into)
        }
        QueryId::Q9 => Q9Params::new(pick(rng, COLORS)).map(Into::into),
        QueryId::Q18 => Q18Params::new(rng.gen_range(1..=1000)).map(Into::into),
        QueryId::Q4 => Q4Params::new(rng.gen_range(1993..=1997), rng.gen_range(1..=4)).map(Into::into),
        QueryId::Q12 => {
            let (a, b) = distinct_pair(rng, 0, SHIPMODES.len() as i32 - 1);
            Q12Params::new(
                SHIPMODES[a as usize],
                SHIPMODES[b as usize],
                rng.gen_range(1993..=1997),
            )
            .map(Into::into)
        }
        QueryId::Q14 => Q14Params::new(rng.gen_range(1993..=1997), rng.gen_range(1..=12)).map(Into::into),
        QueryId::Ssb1_1 => {
            let lo = rng.gen_range(0i64..=10);
            SsbQ11Params::new(
                rng.gen_range(1992..=1998),
                lo,
                rng.gen_range(lo..=10),
                rng.gen_range(1..=50),
            )
            .map(Into::into)
        }
        QueryId::Ssb2_1 => {
            let category = format!("MFGR#{}{}", rng.gen_range(1..=5), rng.gen_range(1..=5));
            SsbQ21Params::new(&category, pick(rng, REGIONS)).map(Into::into)
        }
        QueryId::Ssb3_1 => {
            let lo = rng.gen_range(1992..=1998);
            SsbQ31Params::new(
                pick(rng, REGIONS),
                pick(rng, REGIONS),
                lo,
                rng.gen_range(lo..=1998),
            )
            .map(Into::into)
        }
        QueryId::Ssb4_1 => {
            let (a, b) = distinct_pair(rng, 1, 5);
            SsbQ41Params::new(pick(rng, REGIONS), pick(rng, REGIONS), a, b).map(Into::into)
        }
    };
    p.unwrap_or_else(|e| panic!("binding drawn outside the domain of {}: {e}", q.name()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_valid_deterministic_and_spec_roundtrip() {
        let mut a = SmallRng::seed_from_u64(9);
        let mut b = SmallRng::seed_from_u64(9);
        for _ in 0..200 {
            for q in QueryId::ALL {
                let p = draw(q, &mut a);
                assert_eq!(p, draw(q, &mut b), "same seed, same binding");
                assert_eq!(Params::from_spec(q, &p.to_spec()).unwrap(), p);
            }
        }
    }

    #[test]
    fn draws_vary() {
        let mut rng = SmallRng::seed_from_u64(3);
        let specs: std::collections::BTreeSet<String> =
            (0..50).map(|_| draw(QueryId::Q6, &mut rng).to_spec()).collect();
        assert!(
            specs.len() > 40,
            "Q6 has 2250 bindings; 50 draws should rarely repeat"
        );
    }
}
