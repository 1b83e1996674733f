//! §2.2.3 / §6: numerical accuracy. Forward error of exact fast
//! algorithms grows mildly with recursion depth; APA algorithms lose
//! roughly half the digits per recursive step.

use fmm_bench::*;
use fmm_core::{forward_error, Options};

fn main() {
    let cfg = HarnessConfig::from_args();
    let n = if cfg.quick { 256 } else { 1024 };
    println!("algorithm,steps,relative_error");
    let mut algos = vec![
        fmm_algo::classical(2, 2, 2),
        fmm_algo::by_name("strassen").unwrap(),
        fmm_algo::by_name("winograd").unwrap(),
        fmm_algo::by_name("<3,3,3>").unwrap(),
        fmm_algo::by_name("<4,2,4>").unwrap(),
        fmm_algo::by_name("<4,3,3>").unwrap(),
    ];
    for apa in [fmm_algo::bini_apa(), fmm_algo::schonhage_apa()]
        .into_iter()
        .flatten()
    {
        algos.push(apa);
    }
    for alg in &algos {
        for steps in 1..=3usize {
            let e = forward_error(&alg.dec, steps, Options::default(), n, 7);
            println!("{},{steps},{e:.3e}", alg.name);
        }
    }
}
