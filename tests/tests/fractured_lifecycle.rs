//! Fractured-UPI lifecycle: long randomized insert/delete/flush/merge
//! sequences must always answer queries exactly like a non-fractured model.

use std::collections::HashMap;
use std::sync::Arc;

use upi::{FracturedConfig, FracturedUpi, UpiConfig};
use upi_storage::{DiskConfig, SimDisk, Store};
use upi_uncertain::{Datum, DiscretePmf, Field, Tuple, TupleId};

fn store() -> Store {
    Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 16 << 20)
}

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn unif(&mut self) -> f64 {
        self.next() as f64 / (1u64 << 53) as f64
    }
}

fn make_tuple(rng: &mut Lcg, id: u64) -> Tuple {
    let exist = 0.6 + rng.unif() * 0.4;
    let v1 = rng.next() % 20;
    let p1 = 0.3 + rng.unif() * 0.5;
    let mut alts = vec![(v1, p1)];
    if rng.unif() < 0.7 {
        let v2 = (v1 + 1 + rng.next() % 19) % 20;
        alts.push((v2, (1.0 - p1) * (0.2 + rng.unif() * 0.7)));
    }
    Tuple::new(
        TupleId(id),
        exist,
        vec![
            Field::Certain(Datum::Str(format!("r{id}"))),
            Field::Discrete(DiscretePmf::new(alts)),
        ],
    )
}

#[test]
fn randomized_lifecycle_matches_model() {
    let mut rng = Lcg(0xFEED);
    let st = store();
    let mut f = FracturedUpi::create(
        st,
        "life",
        1,
        &[],
        FracturedConfig {
            upi: UpiConfig {
                cutoff: 0.15,
                ..UpiConfig::default()
            },
            buffer_ops: 0,
        },
    )
    .unwrap();
    let mut model: HashMap<u64, Tuple> = HashMap::new();
    let mut next_id = 0u64;

    // Initial load.
    let initial: Vec<Tuple> = (0..300)
        .map(|_| {
            let t = make_tuple(&mut rng, next_id);
            next_id += 1;
            t
        })
        .collect();
    for t in &initial {
        model.insert(t.id.0, t.clone());
    }
    f.load_initial(&initial).unwrap();

    for step in 0..600 {
        match rng.next() % 10 {
            0..=4 => {
                let t = make_tuple(&mut rng, next_id);
                next_id += 1;
                model.insert(t.id.0, t.clone());
                f.insert(t).unwrap();
            }
            5..=6 => {
                if !model.is_empty() {
                    let keys: Vec<u64> = model.keys().copied().collect();
                    let victim = keys[(rng.next() as usize) % keys.len()];
                    model.remove(&victim);
                    f.delete(TupleId(victim)).unwrap();
                }
            }
            7..=8 => f.flush().unwrap(),
            _ => f.merge().unwrap(),
        }

        if step % 37 == 0 {
            let value = rng.next() % 20;
            let qt = rng.unif() * 0.6;
            let mut got: Vec<u64> = f
                .ptq_run(value, qt, None)
                .unwrap()
                .map(|r| r.unwrap().tuple.id.0)
                .collect();
            got.sort_unstable();
            let mut want: Vec<u64> = model
                .values()
                .filter(|t| {
                    let conf = t.confidence_eq(1, value);
                    let q = upi_storage::codec::quantize_prob(conf);
                    conf > 0.0 && upi_storage::codec::dequantize_prob(q) >= qt
                })
                .map(|t| t.id.0)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "step={step} value={value} qt={qt}");
            assert_eq!(f.n_live_tuples() as usize, model.len(), "step={step}");
        }
    }
}

#[test]
fn per_fracture_tuning_parameters_coexist() {
    // §4.2: "each fracture can have different tuning parameters".
    let mut rng = Lcg(0xACE);
    let st = store();
    let mut f = FracturedUpi::create(
        st,
        "tuned",
        1,
        &[],
        FracturedConfig {
            upi: UpiConfig {
                cutoff: 0.1,
                ..UpiConfig::default()
            },
            buffer_ops: 0,
        },
    )
    .unwrap();
    let mut all: Vec<Tuple> = Vec::new();
    let mut next_id = 0u64;
    for (i, cutoff) in [0.0, 0.3, 0.9].into_iter().enumerate() {
        for _ in 0..100 {
            let t = make_tuple(&mut rng, next_id);
            next_id += 1;
            all.push(t.clone());
            f.insert(t).unwrap();
        }
        f.flush_with(UpiConfig {
            cutoff,
            ..UpiConfig::default()
        })
        .unwrap();
        assert_eq!(f.n_fractures(), i + 1);
    }
    // Queries remain exact regardless of per-fracture cutoffs.
    for value in 0..20u64 {
        for qt in [0.01, 0.2, 0.5] {
            let mut got: Vec<u64> = f
                .ptq_run(value, qt, None)
                .unwrap()
                .map(|r| r.unwrap().tuple.id.0)
                .collect();
            got.sort_unstable();
            let mut want: Vec<u64> = all
                .iter()
                .filter(|t| {
                    let conf = t.confidence_eq(1, value);
                    let q = upi_storage::codec::quantize_prob(conf);
                    conf > 0.0 && upi_storage::codec::dequantize_prob(q) >= qt
                })
                .map(|t| t.id.0)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "value={value} qt={qt}");
        }
    }
}
