//! The paper's medical application end-to-end: motion-compensated stent
//! enhancement on a synthetic angioplasty sequence, writing before/after
//! images as PGM files (viewable with any image tool).
//!
//! Run with: `cargo run --release --example stent_enhancement`

use triple_c::imaging::io::write_pgm8;
use triple_c::pipeline::executor::process_frame;
use triple_c::prelude::*;

fn main() -> Result<()> {
    const SIZE: usize = 384;
    let sequence = SequenceConfig {
        width: SIZE,
        height: SIZE,
        frames: 48,
        seed: 31,
        ..Default::default()
    };

    let app = AppConfig::default();
    let policy = ExecutionPolicy { stripes: 2 };
    let mut state = AppState::new(SIZE, SIZE);

    let out_dir = std::env::temp_dir().join("triple_c_stent");
    std::fs::create_dir_all(&out_dir)?;

    let mut first_frame: Option<ImageU16> = None;
    let mut last_display: Option<ImageU16> = None;
    let mut acquisitions = 0;
    let mut enhanced_frames = 0;

    println!("processing {} frames at {SIZE}x{SIZE}...", sequence.frames);
    for frame in SequenceGenerator::new(sequence) {
        if first_frame.is_none() {
            first_frame = Some(frame.image.clone());
        }
        let out = process_frame(frame.index, &frame.image, &mut state, &app, &policy);
        if out.couple_found {
            acquisitions += 1;
        }
        if let Some(display) = out.display {
            enhanced_frames += 1;
            last_display = Some(display);
        }
        println!(
            "  frame {:>2}: scenario {} (RDG {}, ROI {}, REG {}), latency {:>6.1} ms{}",
            frame.index,
            out.scenario.id(),
            u8::from(out.scenario.rdg_active),
            u8::from(out.scenario.roi_estimated),
            u8::from(out.scenario.reg_successful),
            out.record.latency_ms,
            if out.couple_found {
                "  [markers locked]"
            } else {
                ""
            }
        );
    }

    println!("\nmarkers found in {acquisitions} frames; {enhanced_frames} enhanced output frames");
    if let Some(raw) = &first_frame {
        let p = out_dir.join("input.pgm");
        write_pgm8(&p, raw, None)?;
        println!("wrote {}", p.display());
    }
    match &last_display {
        Some(display) => {
            let p = out_dir.join("enhanced_stent.pgm");
            write_pgm8(&p, display, None)?;
            println!(
                "wrote {} (motion-compensated, temporally integrated, zoomed)",
                p.display()
            );
        }
        None => println!("no enhanced output was produced (registration never succeeded)"),
    }
    Ok(())
}
