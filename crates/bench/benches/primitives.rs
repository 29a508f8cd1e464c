//! Micro-benchmarks of the Tectorwise primitives — the §5 kernels
//! (selection, hashing, gather) in their scalar, hand-SIMD and
//! auto-vectorized variants.

use dbep_bench::harness::Bench;
use dbep_runtime::hash::HashFn;
use dbep_runtime::rng::SmallRng;
use dbep_vectorized::{gather, hashp, sel, SimdPolicy};

const N: usize = 8192;

fn policies() -> [(&'static str, SimdPolicy); 3] {
    [
        ("scalar", SimdPolicy::Scalar),
        ("simd", SimdPolicy::Simd),
        ("auto", SimdPolicy::Auto),
    ]
}

fn bench_selection(b: &Bench) {
    let mut rng = SmallRng::seed_from_u64(1);
    let col: Vec<i32> = (0..N).map(|_| rng.gen_range(0..100)).collect();
    for (name, policy) in policies() {
        let mut out = Vec::new();
        b.run(&format!("sel_dense_i32_40pct/{name}"), N as u64, || {
            sel::sel_lt_i32_dense(&col, 40, 0, &mut out, policy)
        });
    }
    let in_sel: Vec<u32> = (0..N).step_by(2).map(|i| i as u32).collect();
    for (name, policy) in policies() {
        let mut out = Vec::new();
        b.run(
            &format!("sel_sparse_i32_40pct/{name}"),
            in_sel.len() as u64,
            || sel::sel_lt_i32_sparse(&col, 40, &in_sel, &mut out, policy),
        );
    }
}

fn bench_hashing(b: &Bench) {
    let mut rng = SmallRng::seed_from_u64(2);
    let keys: Vec<u64> = (0..N as u64).map(|_| rng.next_u64()).collect();
    for (name, policy) in [("scalar", SimdPolicy::Scalar), ("simd", SimdPolicy::Simd)] {
        let mut out = Vec::new();
        b.run(&format!("murmur2_dense/{name}"), N as u64, || {
            hashp::murmur2_u64_vec(&keys, policy, &mut out)
        });
    }
    let col: Vec<i32> = (0..N as i32).collect();
    let sel_v: Vec<u32> = (0..N as u32).collect();
    for (name, hf) in [("murmur2", HashFn::Murmur2), ("crc", HashFn::Crc)] {
        let mut out = Vec::new();
        b.run(&format!("hash_i32_gathered/{name}"), N as u64, || {
            hashp::hash_i32(&col, &sel_v, hf, &mut out)
        });
    }
    // Composite keys: fold a second column into existing hashes.
    for (name, hf) in [("murmur2", HashFn::Murmur2), ("crc", HashFn::Crc)] {
        let mut hashes = keys.clone();
        b.run(&format!("rehash_i32_gathered/{name}"), N as u64, || {
            hashp::rehash_i32(&col, &sel_v, hf, &mut hashes)
        });
    }
}

fn bench_gather(b: &Bench) {
    let mut rng = SmallRng::seed_from_u64(3);
    let table: Vec<i64> = (0..1 << 16).map(|i| i as i64).collect();
    let sel_v: Vec<u32> = (0..N).map(|_| rng.gen_range(0..1u32 << 16)).collect();
    for (name, policy) in [("scalar", SimdPolicy::Scalar), ("simd", SimdPolicy::Simd)] {
        let mut out = Vec::new();
        b.run(&format!("gather_i64_l2/{name}"), N as u64, || {
            gather::gather_i64(&table, &sel_v, policy, &mut out)
        });
    }
}

fn main() {
    let b = Bench::from_env();
    bench_selection(&b);
    bench_hashing(&b);
    bench_gather(&b);
}
