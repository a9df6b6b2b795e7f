//! The paper's mechanism across address spaces: started threads stolen
//! between worker *processes*.
//!
//! `MultiProcessRunner` forks two workers over one shared region mapped
//! at the same virtual address in both, so a thief resumes a stolen
//! thread's frames at their original addresses, intra-stack pointers
//! included. The run below is a UTS tree (one of the paper's
//! workloads); its accounting must equal the sequential profile of the
//! same tree, however the steals split it.
//!
//! Run: `cargo run --release --example cross_process_steal`

use uni_address_threads::fiber::MultiProcessRunner;
use uni_address_threads::model::sequential_profile;
use uni_address_threads::workloads::Uts;

fn main() {
    if let Err(e) = MultiProcessRunner::probe_support() {
        eprintln!("this host cannot map the shared region: {e}");
        std::process::exit(1);
    }
    let w = Uts::geometric(9);
    let report = MultiProcessRunner::new(2)
        .try_run(w.clone())
        .expect("multiprocess run");
    let s = &report.stats;
    println!("{}", s.summary_line_as("Multiprocess"));
    println!(
        "cross-process steals of started threads: {} (over {} tasks)",
        s.steals, s.total_tasks
    );
    let p = sequential_profile(&w);
    assert_eq!(
        (s.total_tasks, s.total_units, s.joins, s.spawns),
        (p.tasks, p.units, p.joins, p.spawns)
    );
    assert_eq!(s.total_work_cycles, p.work_cycles);
    assert_eq!(s.frame_bytes_total, p.frame_bytes_total);
    assert_eq!(s.join_fingerprint, p.join_fingerprint);
    println!("accounting equals the sequential profile of the same tree");
}
