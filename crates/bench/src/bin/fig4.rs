//! Regenerates **Fig. 4**: the runtime breakdown of OpenDRC's
//! sequential space checks.
//!
//! Expected shape (paper §VI): the adaptive layout partition consumes
//! only around 15% of overall runtime; the sweepline with its interval
//! tree takes around 35%; the remaining 40-50% goes to edge-to-edge
//! space checks.

use odrc::{Engine, RuleDeck};
use odrc_bench::{load_designs, parse_args, space_rules};

fn main() {
    let (filter, repeat) = parse_args();
    let designs = load_designs(filter.as_deref());
    println!("\n=== Fig. 4: sequential space-check runtime breakdown ===");
    println!(
        "{:<10} {:<10} {:>10} {:>12} {:>12} {:>10}",
        "design", "rule", "partition", "sweepline", "edge-check", "other"
    );
    for d in &designs {
        for r in &space_rules() {
            let mut shares = [0.0f64; 4];
            for _ in 0..repeat.max(1) {
                let report = Engine::sequential().check(&d.layout, &r.deck);
                let total = report.profile.total().as_secs_f64().max(1e-12);
                let pct = |name: &str| {
                    report
                        .profile
                        .phase(name)
                        .map(|t| t.as_secs_f64() / total)
                        .unwrap_or(0.0)
                };
                let partition = pct("partition");
                let sweepline = pct("sweepline");
                let edge = pct("edge-check");
                shares[0] += partition;
                shares[1] += sweepline;
                shares[2] += edge;
                shares[3] += 1.0 - partition - sweepline - edge;
            }
            let n = repeat.max(1) as f64;
            println!(
                "{:<10} {:<10} {:>9.1}% {:>11.1}% {:>11.1}% {:>9.1}%",
                d.name,
                r.name,
                100.0 * shares[0] / n,
                100.0 * shares[1] / n,
                100.0 * shares[2] / n,
                100.0 * shares[3] / n,
            );
        }
    }

    // Also verify once that the deck composition doesn't change shares.
    let combined: RuleDeck = space_rules()
        .into_iter()
        .flat_map(|r| r.deck.rules().to_vec())
        .collect();
    if let Some(d) = designs.first() {
        let report = Engine::sequential().check(&d.layout, &combined);
        println!("\ncombined spacing deck on {}:\n{}", d.name, report.profile);

        // Host-executor utilization: re-run the same deck with the
        // host fan-out enabled and print per-phase busy/idle shares
        // per worker (the `host[...]` profiler lines).
        let threads = odrc_infra::available_threads().max(2);
        let fanned = Engine::sequential()
            .with_options(odrc::EngineOptions {
                host_threads: Some(threads),
                ..odrc::EngineOptions::default()
            })
            .check(&d.layout, &combined);
        println!(
            "host executor on {} ({} threads): {} task(s), {} pool join(s)",
            d.name, threads, fanned.stats.host_tasks, fanned.stats.host_steals
        );
        for u in fanned.profile.host_util() {
            let busy: Vec<String> = u
                .busy
                .iter()
                .map(|b| format!("{:.1}ms", b.as_secs_f64() * 1e3))
                .collect();
            println!(
                "  host[{}]: {:.0}% busy over {} worker(s) ({}), {:.1}ms wall",
                u.phase,
                100.0 * u.utilization(),
                u.busy.len(),
                busy.join(", "),
                u.wall.as_secs_f64() * 1e3,
            );
        }

        // The paper leaves the parallel-mode breakdown to future work
        // ("runtime profiling and visualization are slightly
        // complicated" under asynchronous operations); the simulated
        // device makes it straightforward, so print it too.
        let par = Engine::parallel().check(&d.layout, &combined);
        println!(
            "parallel mode on {} (async phases):\n{}",
            d.name, par.profile
        );
        let device = odrc_xpu::Device::default();
        let r = Engine::parallel_on(device.clone()).check(&d.layout, &combined);
        println!(
            "device work: {} kernel launches, {} SPMD threads, {} bytes H2D, {} violations",
            device.stats().kernels_launched(),
            device.stats().threads_executed(),
            device.stats().bytes_h2d(),
            r.violations.len(),
        );
    }
}
