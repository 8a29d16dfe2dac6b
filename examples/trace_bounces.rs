//! Trace the bouncing itself: run a short contended FAA on the
//! simulated dual-socket machine with event tracing enabled and print
//! the ownership-transfer chain — the raw phenomenon the model is
//! built on.
//!
//! ```text
//! cargo run --release --example trace_bounces
//! ```

use bounce::sim::trace::{Trace, TraceEvent};
use bounce::sim::{cache::WordAddr, program::builders, Engine, SimConfig, SimParams};
use bounce::topo::{presets, Domain, Placement};
use bounce_atomics::Primitive;

fn main() {
    let topo = presets::dual_socket_small();
    let mut params = SimParams::e5();
    params.home_policy = bounce::sim::HomePolicy::Fixed(0);
    let cfg = SimConfig::new(params, 40_000);
    let mut eng = Engine::with_probe(&topo, cfg, Trace::bounded(256));

    let line = WordAddr::of_line(0x4000);
    // Four threads scattered over both sockets.
    for hw in Placement::Scattered.assign(&topo, 4) {
        eng.add_thread(hw, builders::op_loop(Primitive::Faa, line, 0));
    }
    let report = eng.try_run().expect("run completes");
    let trace = eng.into_probe();

    println!("machine: {}", topo.name);
    println!(
        "{} ops completed, {} ownership transfers\n",
        report.total_ops(),
        report.total_transfers()
    );
    println!("last {} trace events:", trace.len().min(40));
    let all: Vec<_> = trace.events().collect();
    for ev in all.iter().skip(all.len().saturating_sub(40)) {
        println!("  {}", ev.render());
    }

    // Summarise the bounce chain by domain.
    let mut by_domain = [0u32; 5];
    for ev in trace.bounces() {
        if let TraceEvent::Bounce { domain, .. } = ev {
            let idx = Domain::ALL.iter().position(|d| d == domain).unwrap();
            by_domain[idx] += 1;
        }
    }
    println!("\nbounces in the trace window, by domain:");
    for (d, count) in Domain::ALL.iter().zip(by_domain) {
        if count > 0 {
            println!("  {:<8} {count}", d.label());
        }
    }
    println!("\neach 'bounce' line is one exclusive-ownership transfer — the");
    println!("unit of cost the whole performance model is denominated in.");
}
