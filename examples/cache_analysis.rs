//! The cache-memory and communication-bandwidth side of Triple-C
//! (Section 5 of the paper): derive Table 1, predict the intra-task swap
//! traffic of the overflow tasks with the space-time model, cross-check
//! against a trace-driven cache simulation, and size the bus
//! loads of each application scenario against the platform of Fig. 4.
//!
//! Run with: `cargo run --release --example cache_analysis`

use triple_c::platform::arch::MB;
use triple_c::platform::bandwidth::{add_intra_task, inter_task_load};
use triple_c::platform::cache::CacheSim;
use triple_c::platform::mapping::{Mapping, Partition};
use triple_c::platform::spacetime::simulate_traffic;
use triple_c::prelude::*;
use triple_c::triplec::bandwidth_model::{
    intra_task_traffic, rdg_access_model, scenario_edges, FRAME_RATE_HZ,
};
use triple_c::triplec::memory_model::{implementation_table, FrameGeometry, ZOOM_OUT};

fn main() -> Result<()> {
    let arch = ArchModel::default();
    let geom = FrameGeometry::PAPER;
    println!(
        "platform: {} cores @ {:.2} GHz, L1 {} KB x{}, L2 {} MB x{}, buses {:.0}/{:.0}/{:.0} GB/s\n",
        arch.cores,
        arch.clock_hz / 1e9,
        arch.l1.capacity / 1024,
        arch.cores,
        arch.l2.capacity / MB,
        arch.l2_domains(),
        arch.bus_cpu_cache / 1e9,
        arch.bus_cache / 1e9,
        arch.bus_memory / 1e9,
    );

    // --- Table 1: which tasks overflow the L2? -------------------------
    println!("task memory requirements at 1024x1024 (Table 1):");
    for m in implementation_table(geom, ZOOM_OUT) {
        println!(
            "  {:<10} in {:>6} KB  inter {:>6} KB  out {:>6} KB   {}",
            m.task,
            m.input / 1024,
            m.intermediate / 1024,
            m.output / 1024,
            if m.overflows(arch.l2.capacity) {
                "OVERFLOWS L2"
            } else {
                "fits L2"
            }
        );
    }

    // --- Fig. 5: RDG swap traffic, model vs. simulation -----------------
    let model = rdg_access_model(geom, 3);
    let predicted = intra_task_traffic(&model, arch.l2.capacity);
    let simulated = simulate_traffic(&model, arch.l2);
    println!(
        "\nRDG FULL swap traffic: model {:.1} MB/frame, line-level simulation {:.1} MB/frame",
        predicted.total_bytes() as f64 / 1e6,
        simulated.total_bytes() as f64 / 1e6
    );
    println!(
        "  -> intra-task bandwidth at 30 Hz: {:.2} GB/s on the memory bus ({:.0}% of its {:.0} GB/s)",
        predicted.bandwidth(FRAME_RATE_HZ) / 1e9,
        predicted.bandwidth(FRAME_RATE_HZ) / arch.bus_memory * 100.0,
        arch.bus_memory / 1e9
    );

    // --- which level holds a frame: two passes through each cache alone --
    let [l1_miss, l2_miss] = [arch.l1, arch.l2].map(|level| {
        let mut sim = CacheSim::new(level);
        sim.linear_scan(0, geom.frame_bytes(), false);
        let second = sim.linear_scan(0, geom.frame_bytes(), false);
        second.misses * level.line_size as u64
    });
    println!(
        "\nsecond pass over one {:.1} MB frame: a lone L1 refetches {:.1} MB, a lone L2 {:.1} MB",
        geom.frame_bytes() as f64 / 1e6,
        l1_miss as f64 / 1e6,
        l2_miss as f64 / 1e6
    );

    // --- per-scenario bus loads under a mapping -------------------------
    let mut mapping = Mapping::new();
    mapping.assign("RDG_FULL", Partition::Striped { cores: vec![0, 1] });
    mapping.assign("RDG_ROI", Partition::Striped { cores: vec![0, 1] });
    mapping.assign("MKX_EXT", Partition::Serial { core: 2 });
    mapping.assign("CPLS_SEL", Partition::Serial { core: 2 });
    mapping.assign("REG", Partition::Serial { core: 3 });
    mapping.assign("ROI_EST", Partition::Serial { core: 3 });
    mapping.assign("GW_EXT", Partition::Serial { core: 3 });
    mapping.assign("ENH", Partition::Serial { core: 4 });
    mapping.assign("ZOOM", Partition::Serial { core: 5 });
    mapping.validate(&arch)?;

    println!("\nper-scenario bus loads under a 6-core mapping (ROI fraction 0.1):");
    println!("  id  cache-bus MB/s  memory-bus MB/s  feasible");
    for s in Scenario::all() {
        let edges = scenario_edges(s, geom, 0.1);
        let mut load = inter_task_load(&arch, &mapping, &edges, FRAME_RATE_HZ);
        if s.rdg_active && !s.roi_estimated {
            load = add_intra_task(load, predicted.total_bytes(), FRAME_RATE_HZ);
        }
        println!(
            "  {}   {:>12.1}  {:>15.1}  {}",
            s.id(),
            load.cache_bus / 1e6,
            load.memory_bus / 1e6,
            load.feasible(&arch)
        );
    }
    println!("\n(the paper's point: the worst-case scenario costs multiples of the");
    println!(" best case — reserving for it permanently wastes most of the platform)");
    Ok(())
}
