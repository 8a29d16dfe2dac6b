//! Integration tests for the extension experiments: queue locks in the
//! simulator, contention spreading, false sharing, and the mixed
//! read/write protocol effect.

use bounce::harness::simrun::{sim_measure, SimRunConfig};
use bounce::model::{Model, ModelParams};
use bounce::sim::ArbitrationPolicy;
use bounce::topo::{presets, Placement};
use bounce::workloads::{LockShape, Workload};
use bounce_atomics::Primitive;

fn fifo_cfg(topo: &bounce::topo::MachineTopology) -> SimRunConfig {
    let mut cfg = SimRunConfig::for_machine(topo);
    cfg.params.arbitration = ArbitrationPolicy::Fifo;
    cfg.duration_cycles = 800_000;
    cfg
}

/// Queue locks scale where the TAS family collapses (Fig 10 shape).
#[test]
fn queue_locks_beat_tas_at_scale() {
    let topo = presets::xeon_e5_2695_v4();
    let cfg = fifo_cfg(&topo);
    let handoffs = |shape: LockShape, n: usize| -> f64 {
        let m = sim_measure(
            &topo,
            &Workload::LockHandoff {
                shape,
                cs: 100,
                noncs: 100,
            },
            n,
            &cfg,
        )
        .expect("simulation completes");
        match shape {
            LockShape::Ticket => m.goodput_ops_per_sec / 2.0,
            LockShape::Mcs => {
                let total: u64 = m.per_thread_ops.iter().sum();
                let swaps = m.ops_by_prim.map_or(0, |o| o[2]); // Swap index
                if total == 0 {
                    0.0
                } else {
                    m.throughput_ops_per_sec * swaps as f64 / total as f64
                }
            }
            _ => m.goodput_ops_per_sec,
        }
    };
    let n = 36;
    let tas = handoffs(LockShape::Tas, n);
    let ticket = handoffs(LockShape::Ticket, n);
    let mcs = handoffs(LockShape::Mcs, n);
    assert!(
        ticket > 2.0 * tas,
        "ticket {ticket:.0} should dominate TAS {tas:.0} at n={n}"
    );
    assert!(
        mcs > 2.0 * tas,
        "MCS {mcs:.0} should dominate TAS {tas:.0} at n={n}"
    );
}

/// Striping multiplies throughput and the model tracks it (Fig 13).
#[test]
fn striping_multiplies_throughput_and_model_tracks() {
    let topo = presets::xeon_e5_2695_v4();
    let cfg = fifo_cfg(&topo);
    let model = Model::new(topo.clone(), ModelParams::e5_default());
    let n = 16;
    let order = Placement::Packed.assign(&topo, n);
    let measure = |lines: usize| {
        sim_measure(
            &topo,
            &Workload::MultiLine {
                prim: Primitive::Faa,
                lines,
            },
            n,
            &cfg,
        )
        .expect("simulation completes")
        .throughput_ops_per_sec
    };
    let x1 = measure(1);
    let x4 = measure(4);
    assert!(x4 > 3.0 * x1, "4 stripes: {x4:.0} vs {x1:.0}");
    let pred4 = model
        .predict_multiline(&order, Primitive::Faa, 4)
        .throughput_ops_per_sec;
    let err = (pred4 - x4).abs() / x4;
    assert!(err < 0.25, "model striping error {:.1}%", err * 100.0);
}

/// False sharing behaves like HC; padding restores LC (Fig 11).
#[test]
fn false_sharing_collapse_and_padding_fix() {
    let topo = presets::xeon_phi_7290();
    let cfg = fifo_cfg(&topo);
    let n = 8;
    let fs = sim_measure(
        &topo,
        &Workload::FalseSharing {
            prim: Primitive::Faa,
        },
        n,
        &cfg,
    )
    .expect("simulation completes");
    let hc = sim_measure(
        &topo,
        &Workload::HighContention {
            prim: Primitive::Faa,
        },
        n,
        &cfg,
    )
    .expect("simulation completes");
    let padded = sim_measure(
        &topo,
        &Workload::LowContention {
            prim: Primitive::Faa,
            work: 0,
        },
        n,
        &cfg,
    )
    .expect("simulation completes");
    // False sharing ≈ true sharing (within 20%), padding >> both.
    let r = fs.throughput_ops_per_sec / hc.throughput_ops_per_sec;
    assert!((0.8..1.25).contains(&r), "fs/hc ratio {r:.2}");
    assert!(padded.throughput_ops_per_sec > 5.0 * fs.throughput_ops_per_sec);
}

/// The seqlock's promise natively: concurrent readers never observe a
/// torn pair even while a writer churns (the structure the read-mostly
/// experiment motivates).
#[test]
fn seqlock_no_torn_reads_under_writer_churn() {
    use bounce_atomics::SeqLock;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    let sl = Arc::new(SeqLock::new([0u64, 0]));
    let stop = Arc::new(AtomicBool::new(false));
    // Set once the reader has checked a read: the writer keeps churning
    // until then, so the reader overlaps the writes however late the
    // scheduler starts it.
    let seen = Arc::new(AtomicBool::new(false));
    let reader = {
        let sl = Arc::clone(&sl);
        let stop = Arc::clone(&stop);
        let seen = Arc::clone(&seen);
        std::thread::spawn(move || {
            let mut checked = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let (v, _) = sl.read();
                assert_eq!(v[1], v[0].wrapping_mul(3), "torn: {v:?}");
                checked += 1;
                seen.store(true, Ordering::Release);
            }
            checked
        })
    };
    let mut i = 0u64;
    // A reader that panicked on a torn read stops too: the join reports it.
    while i < 20_000 || !(seen.load(Ordering::Acquire) || reader.is_finished()) {
        i += 1;
        sl.write(|d| {
            d[0] = i;
            d[1] = i.wrapping_mul(3);
        });
        if i >= 20_000 {
            // Past the quota: leave the reader a window between writes.
            std::thread::yield_now();
        }
    }
    stop.store(true, Ordering::SeqCst);
    assert!(reader.join().unwrap() > 0);
}
