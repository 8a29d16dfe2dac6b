//! Property test for the coherence-protocol layer: on workloads with no
//! read-sharing — every access is an RMW, so no line ever ends up in
//! Shared/Forward/Owned at a second cache — the protocols are
//! indistinguishable, and the engine must produce **bit-identical**
//! `Measurement`s under MESIF, MESI and MOESI.
//!
//! The protocols only diverge on read paths: MESIF's Forward copy, plain
//! MESI's memory fallback, and MOESI's Owned supplier all answer *GetS*
//! requests. A pure GetM stream exercises none of them, so any
//! difference here is a bug in the protocol extraction, not a modelling
//! choice. Exact f64-bit equality on purpose, mirroring
//! `determinism.rs`: the contract is "nothing changes", not "roughly
//! the same".

use bounce_atomics::Primitive;
use bounce_harness::{sim_measure, Measurement, SimRunConfig};
use bounce_sim::CoherenceKind;
use bounce_topo::{presets, MachineTopology};
use bounce_workloads::Workload;
use proptest::prelude::*;

fn assert_bit_identical(a: &Measurement, b: &Measurement, what: &str) -> Result<(), TestCaseError> {
    let bits = f64::to_bits;
    prop_assert_eq!(
        bits(a.throughput_ops_per_sec),
        bits(b.throughput_ops_per_sec),
        "{}: throughput {} vs {}",
        what,
        a.throughput_ops_per_sec,
        b.throughput_ops_per_sec
    );
    prop_assert_eq!(
        bits(a.goodput_ops_per_sec),
        bits(b.goodput_ops_per_sec),
        "{}: goodput",
        what
    );
    prop_assert_eq!(
        bits(a.failure_rate),
        bits(b.failure_rate),
        "{}: failure_rate",
        what
    );
    prop_assert_eq!(
        bits(a.mean_latency_cycles),
        bits(b.mean_latency_cycles),
        "{}: mean latency",
        what
    );
    prop_assert_eq!(
        bits(a.p99_latency_cycles),
        bits(b.p99_latency_cycles),
        "{}: p99",
        what
    );
    prop_assert_eq!(bits(a.jain), bits(b.jain), "{}: jain", what);
    prop_assert_eq!(
        a.energy_per_op_nj.map(bits),
        b.energy_per_op_nj.map(bits),
        "{}: energy",
        what
    );
    prop_assert_eq!(
        &a.transfers_by_domain,
        &b.transfers_by_domain,
        "{}: transfers",
        what
    );
    prop_assert_eq!(
        &a.per_thread_ops,
        &b.per_thread_ops,
        "{}: per-thread ops",
        what
    );
    Ok(())
}

/// A random RMW primitive (never `Load` — reads are exactly what the
/// protocols disagree about).
fn rmw() -> impl Strategy<Value = Primitive> {
    (0usize..Primitive::RMW.len()).prop_map(|i| Primitive::RMW[i])
}

/// A random workload in which no thread ever issues a plain load of a
/// line another thread touches.
fn write_only_workload() -> impl Strategy<Value = Workload> {
    prop_oneof![
        rmw().prop_map(|prim| Workload::HighContention { prim }),
        (rmw(), 0u64..64).prop_map(|(prim, work)| Workload::Diluted { prim, work }),
        (rmw(), 0u64..64).prop_map(|(prim, work)| Workload::LowContention { prim, work }),
        rmw().prop_map(|prim| Workload::FalseSharing { prim }),
        (rmw(), 1usize..4).prop_map(|(prim, lines)| Workload::MultiLine { prim, lines }),
    ]
}

fn topo_for(dual: bool) -> MachineTopology {
    if dual {
        presets::dual_socket_small()
    } else {
        presets::tiny_test_machine()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn protocols_agree_without_read_sharing(
        w in write_only_workload(),
        n in 1usize..8,
        dual in any::<bool>(),
    ) {
        let topo = topo_for(dual);
        let run = |kind: CoherenceKind| {
            let mut cfg = SimRunConfig::for_machine(&topo).quick().with_protocol(kind);
            cfg.duration_cycles = 60_000;
            sim_measure(&topo, &w, n, &cfg).expect("write-only workload measures")
        };
        let mesif = run(CoherenceKind::Mesif);
        let mesi = run(CoherenceKind::Mesi);
        let moesi = run(CoherenceKind::Moesi);
        let label = w.label();
        assert_bit_identical(&mesif, &mesi, &format!("{label} n={n} mesi"))?;
        assert_bit_identical(&mesif, &moesi, &format!("{label} n={n} moesi"))?;
    }
}
