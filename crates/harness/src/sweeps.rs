//! Generic sweep helpers: run a workload across thread counts (or any
//! variants) and render the standard metric set as JSON. The experiment
//! registry specialises these; downstream users get them directly.

use crate::measurement::Measurement;
use crate::parallel::par_map;
use crate::report::fmt_f64;
use crate::simrun::{sim_measure, SimRunConfig};
use bounce_sim::SimError;
use bounce_topo::MachineTopology;
use bounce_workloads::Workload;

/// Run `workload` for every thread count in `ns` on the simulated
/// machine. Points run on the parallel executor; results come back in
/// sweep order (see [`crate::parallel`]). Every point runs (points are
/// independent); on a watchdog trip the lowest-index failing point's
/// `SimError` is returned.
pub fn sweep_threads(
    topo: &MachineTopology,
    workload: &Workload,
    ns: &[usize],
    cfg: &SimRunConfig,
) -> Result<Vec<Measurement>, SimError> {
    par_map(ns, |&n| sim_measure(topo, workload, n, cfg))
        .into_iter()
        .collect()
}

/// Run every workload variant at a fixed thread count, in parallel,
/// with the error rule of [`sweep_threads`].
pub fn sweep_workloads(
    topo: &MachineTopology,
    workloads: &[Workload],
    n: usize,
    cfg: &SimRunConfig,
) -> Result<Vec<Measurement>, SimError> {
    par_map(workloads, |w| sim_measure(topo, w, n, cfg))
        .into_iter()
        .collect()
}

/// Serialize measurements as deterministic JSON. Carries the full
/// standard metric set, including the first-class p50/p99 latency
/// percentiles the engine now reports directly
/// ([`bounce_sim::SimReport`]), so downstream tooling consumes them from
/// here instead of re-deriving percentiles from per-thread histograms or
/// parsing TSV. Rendering is byte-deterministic: field order is fixed
/// and floats go through the same [`fmt_f64`] as the tables.
pub fn measurements_json(id: &str, measurements: &[Measurement]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"id\": \"{id}\",\n"));
    s.push_str("  \"points\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"workload\": \"{}\", \"machine\": \"{}\", \"backend\": \"{}\", \"n\": {}, \
             \"throughput_mops\": {}, \"goodput_mops\": {}, \"fail_rate\": {}, \
             \"mean_lat_cycles\": {}, \"p50_lat_cycles\": {}, \"p99_lat_cycles\": {}, \
             \"jain\": {}, \"energy_nj_per_op\": {}}}{}\n",
            m.workload,
            m.machine,
            m.backend.label(),
            m.n,
            fmt_f64(m.throughput_ops_per_sec / 1e6),
            fmt_f64(m.goodput_ops_per_sec / 1e6),
            fmt_f64(m.failure_rate),
            fmt_f64(m.mean_latency_cycles),
            fmt_f64(m.p50_latency_cycles),
            fmt_f64(m.p99_latency_cycles),
            fmt_f64(m.jain),
            m.energy_per_op_nj
                .map(fmt_f64)
                .unwrap_or_else(|| "null".into()),
            if i + 1 == measurements.len() { "" } else { "," },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use bounce_atomics::Primitive;
    use bounce_topo::presets;

    fn quick(topo: &MachineTopology) -> SimRunConfig {
        let mut c = SimRunConfig::for_machine(topo);
        c.duration_cycles = 200_000;
        c
    }

    #[test]
    fn thread_sweep_produces_one_measurement_per_n() {
        let topo = presets::tiny_test_machine();
        let cfg = quick(&topo);
        let w = Workload::HighContention {
            prim: Primitive::Faa,
        };
        let ms = sweep_threads(&topo, &w, &[1, 2, 4], &cfg).unwrap();
        assert_eq!(ms.len(), 3);
        assert_eq!(ms[0].n, 1);
        assert_eq!(ms[2].n, 4);
    }

    #[test]
    fn workload_sweep_covers_battery() {
        let topo = presets::tiny_test_machine();
        let cfg = quick(&topo);
        let battery = Workload::standard_battery();
        let ms = sweep_workloads(&topo, &battery[..4], 2, &cfg).unwrap();
        assert_eq!(ms.len(), 4);
        let labels: std::collections::HashSet<_> = ms.iter().map(|m| m.workload.clone()).collect();
        assert_eq!(labels.len(), 4);
    }

    #[test]
    fn json_carries_latency_percentiles_and_is_deterministic() {
        let topo = presets::tiny_test_machine();
        let cfg = quick(&topo);
        let w = Workload::HighContention {
            prim: Primitive::Faa,
        };
        let ms = sweep_threads(&topo, &w, &[2, 4], &cfg).unwrap();
        let json = measurements_json("hc-faa", &ms);
        assert!(json.contains("\"p50_lat_cycles\":"), "{json}");
        assert!(json.contains("\"p99_lat_cycles\":"), "{json}");
        assert!(json.contains("\"id\": \"hc-faa\""), "{json}");
        // Two points, comma-separated, no trailing comma.
        assert_eq!(json.matches("\"workload\"").count(), 2);
        assert!(!json.contains("},\n  ]"), "trailing comma: {json}");
        // Deterministic rendering: same measurements, same bytes.
        assert_eq!(json, measurements_json("hc-faa", &ms));
    }
}
