//! Alternative application domain (the paper's conclusion: "the techniques
//! described in this paper can potentially be used for alternative
//! applications using image analysis, such as in surveillance systems").
//!
//! A minimal surveillance pipeline — background maintenance, motion
//! segmentation, object (blob) detection — whose computation time depends
//! on the amount of motion in the scene. Triple-C's EWMA+Markov predictor
//! is trained on the profiled task times and evaluated one-step-ahead.
//!
//! Run with: `cargo run --release --example surveillance`

use rand::{Rng, SeedableRng};
use triple_c::imaging::hessian::{blob_response, hessian_at_scale, HessianImages, HessianScratch};
use triple_c::platform::profile::time_ms;
use triple_c::prelude::*;
use triple_c::triplec::accuracy::evaluate;
use triple_c::triplec::predictor::EwmaMarkovPredictor;
use triple_c::xray::canvas::Canvas;

const SIZE: usize = 256;
const FRAMES: usize = 160;

/// Renders a surveillance frame: static background plus `n_objects` dark
/// moving blobs (their count follows a slow daily-traffic curve).
fn render_frame(t: usize, n_objects: usize, rng: &mut impl Rng) -> ImageU16 {
    let mut canvas = Canvas::new(SIZE, SIZE, 1800.0);
    canvas.add_shading(80.0, 120.0);
    // static scene structure: two "lane markings"
    canvas.draw_line(0.0, 90.0, SIZE as f64, 90.0, 120.0, 1.2);
    canvas.draw_line(0.0, 170.0, SIZE as f64, 170.0, 120.0, 1.2);
    // moving objects
    for k in 0..n_objects {
        let speed = 1.5 + (k % 3) as f64;
        let lane = 70.0 + 50.0 * (k % 3) as f64;
        let x = ((t as f64 * speed + k as f64 * 37.0) % (SIZE as f64 + 40.0)) - 20.0;
        let jitter: f64 = rng.gen_range(-1.0..1.0);
        canvas.stamp_absorber(x, lane + jitter, 600.0, 4.0);
    }
    canvas.to_u16()
}

/// Motion segmentation + blob detection: the data-dependent analysis task.
/// Cost grows with the number of moving pixels (flood evaluation of the
/// changed region).
fn detect_motion_objects(
    frame: &ImageU16,
    background: &mut ImageF32,
    hessian: &mut HessianImages,
    scratch: &mut HessianScratch,
) -> usize {
    // background update + change mask
    let mut changed: Vec<(usize, usize)> = Vec::new();
    for y in 0..SIZE {
        for x in 0..SIZE {
            let v = frame.get(x, y) as f32;
            let b = background.get(x, y);
            let diff = (v - b).abs();
            background.set(x, y, b + 0.05 * (v - b));
            if diff > 150.0 {
                changed.push((x, y));
            }
        }
    }
    if changed.is_empty() {
        return 0;
    }
    // bounding box of changed pixels; blob-detect inside it only
    // (this is what makes the cost content-dependent)
    let x0 = changed.iter().map(|&(x, _)| x).min().unwrap();
    let x1 = changed.iter().map(|&(x, _)| x).max().unwrap();
    let y0 = changed.iter().map(|&(_, y)| y).min().unwrap();
    let y1 = changed.iter().map(|&(_, y)| y).max().unwrap();
    let roi = triple_c::imaging::image::Roi::new(x0, y0, x1 - x0 + 1, y1 - y0 + 1);

    let f32_frame = frame.to_f32();
    hessian_at_scale(&f32_frame, hessian, scratch, roi, 4.0);
    let mut peaks = 0usize;
    for y in roi.y.max(1)..roi.bottom().min(SIZE - 1) {
        for x in roi.x.max(1)..roi.right().min(SIZE - 1) {
            let r = blob_response(
                hessian.ixx.get(x, y),
                hessian.iyy.get(x, y),
                hessian.ixy.get(x, y),
            );
            if r > 15.0 {
                let mut is_max = true;
                for dy in -1i64..=1 {
                    for dx in -1i64..=1 {
                        if dx == 0 && dy == 0 {
                            continue;
                        }
                        let n = blob_response(
                            hessian
                                .ixx
                                .get((x as i64 + dx) as usize, (y as i64 + dy) as usize),
                            hessian
                                .iyy
                                .get((x as i64 + dx) as usize, (y as i64 + dy) as usize),
                            hessian
                                .ixy
                                .get((x as i64 + dx) as usize, (y as i64 + dy) as usize),
                        );
                        if n > r {
                            is_max = false;
                        }
                    }
                }
                if is_max {
                    peaks += 1;
                }
            }
        }
    }
    peaks
}

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(606);
    let mut background: ImageF32 = Image::filled(SIZE, SIZE, 1800.0);
    let mut hessian = HessianImages {
        ixx: ImageF32::new(SIZE, SIZE),
        iyy: ImageF32::new(SIZE, SIZE),
        ixy: ImageF32::new(SIZE, SIZE),
    };
    let mut scratch = HessianScratch::new(SIZE, SIZE);

    // traffic intensity: slow sinusoid (rush hours) + noise
    let traffic = |t: usize, rng: &mut rand::rngs::StdRng| -> usize {
        let base = 4.0 + 3.5 * (std::f64::consts::TAU * t as f64 / 120.0).sin();
        (base + rng.gen_range(-1.0..1.0)).max(0.0) as usize
    };

    println!("profiling the surveillance analysis task over {FRAMES} frames...");
    let mut series = Vec::with_capacity(FRAMES);
    let mut detections = Vec::with_capacity(FRAMES);
    for t in 0..FRAMES {
        let n = traffic(t, &mut rng);
        let frame = render_frame(t, n, &mut rng);
        let (found, ms) =
            time_ms(|| detect_motion_objects(&frame, &mut background, &mut hessian, &mut scratch));
        series.push(ms);
        detections.push(found);
    }

    let split = FRAMES * 2 / 3;
    let (train, test) = series.split_at(split);
    let mut predictor = EwmaMarkovPredictor::train(train, 0.2, 24, "SURV");
    let ctx = PredictContext::default();
    for &x in &train[train.len() - 10..] {
        predictor.observe(x, &ctx);
    }
    let pairs: Vec<(f64, f64)> = test
        .iter()
        .map(|&x| {
            let p = predictor.predict(&ctx).mean_ms;
            predictor.observe(x, &ctx);
            (p, x)
        })
        .collect();
    let report = evaluate(&pairs);

    let mean_det = detections.iter().sum::<usize>() as f64 / FRAMES as f64;
    println!("  mean objects detected/frame: {mean_det:.1}");
    println!(
        "  analysis time: mean {:.2} ms, min {:.2}, max {:.2}",
        triple_c::triplec::stats::mean(&series),
        series.iter().copied().fold(f64::INFINITY, f64::min),
        series.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    );
    println!(
        "\nTriple-C one-step prediction on held-out frames: {:.1}% mean accuracy, max error {:.0}%",
        report.mean_accuracy * 100.0,
        report.max_error * 100.0
    );
    println!("(same model family as the medical application: Eq. 1 EWMA + Markov chain)");
}
