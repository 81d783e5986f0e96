//! The four workloads as untraced passes. A pass is a fixed amount of work
//! on the pre-rendered frames with fresh engines (a `StreamEngine` keeps
//! every display it produced, so reusing one would grow without bound).
//! Every display that comes back is compared with the serial reference
//! after the timed region ends.

use crate::host;
use crate::inputs::{digest_opt, Inputs, Scale, StreamInput, Workload};
use imaging::image::ImageU16;
use imaging::parallel::StripePool;
use platform::bus::StreamId;
use runtime::{
    BackpressurePolicy, EvictionPolicy, LatencyBudget, ManagerConfig, ServiceConfig, ServiceCore,
    ShardLayout, StreamEngine, StreamResult, StreamSpec,
};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// What one pass measured.
#[derive(Default)]
pub struct Pass {
    /// Wall time of the timed region, s.
    pub wall_s: f64,
    /// Frames completed inside the timed region.
    pub frames: usize,
    /// Process user+sys CPU over the timed region, ms.
    pub cpu_ms: f64,
    /// One latency per result (frame or, for fan-in, stream), ms.
    pub lat_ms: Vec<f64>,
    /// How late the generator issued each frame, ms.
    pub gen_late_ms: Vec<f64>,
    /// Frames submitted, timed or not.
    pub attempted: usize,
    /// Frames not executed, streams failed, displays differing from the
    /// reference.
    pub failed: usize,
    /// Frames the manager ran with more than one RDG stripe.
    pub striped_frames: usize,
    /// Mean over streams of the manager's own prediction accuracy, 0–1.
    pub pred_accuracy: f64,
    /// Mean over streams of the observed coverage of the predicted p95.
    pub p95_coverage: f64,
    pub service: Option<ServicePass>,
}

/// Service-tier figures of a fan-in pass.
#[derive(Default, Clone)]
pub struct ServicePass {
    pub spawn_ms: f64,
    pub finish_ms: f64,
    pub evictions: usize,
    pub migrations: usize,
    pub max_queue_depth: usize,
    /// Program-reported admission waits, one per stream, ms.
    pub admission_wait_ms: Vec<f64>,
}

impl Pass {
    pub fn fps(&self) -> f64 {
        self.frames as f64 / self.wall_s.max(1e-9)
    }

    fn absorb_result(&mut self, stream: &StreamInput, result: &StreamResult, streams: usize) {
        self.failed += verify(stream, result);
        self.striped_frames += result.stripes.iter().filter(|&&s| s > 1).count();
        self.pred_accuracy += result.accuracy.mean_accuracy / streams as f64;
        self.p95_coverage += result.calibration.p95_coverage / streams as f64;
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Steps the reference ran that the result lacks or shows differently.
pub fn verify(stream: &StreamInput, result: &StreamResult) -> usize {
    let missing = stream.order.len().saturating_sub(result.displays.len());
    let differing = stream
        .digests
        .iter()
        .zip(&result.displays)
        .filter(|(want, got)| **want != digest_opt(got))
        .count();
    missing + differing
}

/// The spec every engine-driven stream runs under: the manager plans for
/// every host core, under `budget` when one is given.
pub fn spec_for(inputs: &Inputs, stream: usize, budget: Option<LatencyBudget>) -> StreamSpec {
    let spec = StreamSpec::builder(
        inputs.streams[stream].cfg.clone(),
        inputs.app.clone(),
        inputs.model.clone(),
    )
    .manager_cfg(ManagerConfig {
        cores: host::nproc(),
        ..Default::default()
    });
    match budget {
        Some(b) => spec.budget(b).build(),
        None => spec.build(),
    }
}

/// A fresh engine for one stream.
pub fn new_engine(inputs: &Inputs, stream: usize, budget: Option<LatencyBudget>) -> StreamEngine {
    StreamEngine::new(
        stream as StreamId,
        spec_for(inputs, stream, budget),
        host::nproc(),
    )
}

/// The frame budget of the paced workload: one period, default headroom.
pub fn paced_budget(scale: &Scale) -> LatencyBudget {
    LatencyBudget::new(1e3 / scale.paced_hz, ManagerConfig::default().headroom)
}

fn step(engine: &mut StreamEngine, stream: &StreamInput, k: usize) -> bool {
    engine
        .step_on(StripePool::global(), k, &stream.frames[stream.order[k]])
        .is_ok()
}

/// Closed loop, one client. Per clip: a fresh engine, warm-in frames untimed
/// until tracking locks, then the timed steps. The clock runs over the timed
/// steps only.
fn steady_pass(inputs: &Inputs, scale: &Scale) -> Pass {
    let mut pass = Pass::default();
    let n = inputs.streams.len();
    for (which, stream) in inputs.streams.iter().enumerate() {
        pass.attempted += stream.order.len();
        let mut engine = new_engine(inputs, which, None);
        let mut ok = (0..scale.steady_warm_in).all(|k| step(&mut engine, stream, k));
        let cpu0 = host::cpu_ms();
        let t0 = Instant::now();
        let mut observed = t0;
        for k in scale.steady_warm_in..stream.order.len() {
            if !ok {
                break;
            }
            let issued = Instant::now();
            pass.gen_late_ms.push(ms(issued - observed));
            ok = step(&mut engine, stream, k);
            observed = Instant::now();
            pass.lat_ms.push(ms(observed - issued));
        }
        pass.wall_s += t0.elapsed().as_secs_f64();
        pass.cpu_ms += host::cpu_ms() - cpu0;
        pass.absorb_result(stream, &engine.finish(), n);
    }
    pass.frames = pass.lat_ms.len();
    pass
}

/// Closed loop, one client: every clip opening pays engine construction
/// (charged to its first frame) and `finish` (charged to its last).
fn cold_pass(inputs: &Inputs, scale: &Scale) -> Pass {
    let mut pass = Pass::default();
    let mut results = Vec::with_capacity(scale.cold_opens);
    let cpu0 = host::cpu_ms();
    let t0 = Instant::now();
    let mut observed = t0;
    for open in 0..scale.cold_opens {
        let which = open % inputs.streams.len();
        let stream = &inputs.streams[which];
        pass.attempted += stream.order.len();
        let mut issued = Instant::now();
        pass.gen_late_ms.push(ms(issued - observed));
        let mut engine = new_engine(inputs, which, None);
        let mut lats = Vec::with_capacity(stream.order.len());
        for k in 0..stream.order.len() {
            if !step(&mut engine, stream, k) {
                break;
            }
            observed = Instant::now();
            lats.push(ms(observed - issued));
            issued = observed;
        }
        let result = engine.finish();
        observed = Instant::now();
        if let Some(last) = lats.last_mut() {
            *last += ms(observed - issued);
        }
        pass.lat_ms.extend(lats);
        results.push((which, result));
    }
    pass.wall_s = t0.elapsed().as_secs_f64();
    pass.cpu_ms = host::cpu_ms() - cpu0;
    pass.frames = pass.lat_ms.len();
    let n = results.len();
    for (which, result) in &results {
        pass.absorb_result(&inputs.streams[*which], result, n);
    }
    pass
}

/// Open loop at `paced_hz`: a generator thread issues each frame at its due
/// time whatever the engine is doing. Latency runs from the due time.
///
/// The stream is a succession of short runs, each on a fresh engine under
/// a one-period budget, so every run's first frame is a full-frame
/// acquisition that overruns the period and leaves a backlog behind it.
/// Hidden-device episodes inside one long run were sized first and do not
/// do this reliably: marker extraction finds a false couple in most hidden
/// frames, tracking survives, and the full-frame share came to 1–2 % on six
/// seeds where 8–15 % is needed.
fn paced_pass(inputs: &Inputs, scale: &Scale) -> Pass {
    let period = Duration::from_secs_f64(1.0 / scale.paced_hz);
    // (run, step) in issue order
    let feed: Vec<(usize, usize)> = (0..scale.paced_opens)
        .map(|open| open % inputs.streams.len())
        .flat_map(|which| (0..inputs.streams[which].order.len()).map(move |k| (which, k)))
        .collect();
    let mut pass = Pass {
        attempted: feed.len(),
        ..Default::default()
    };
    let (tx, rx) = mpsc::channel::<(usize, usize)>();
    let budget = paced_budget(scale);
    let cpu0 = host::cpu_ms();
    let t0 = Instant::now() + Duration::from_millis(2);
    let mut results = Vec::new();
    let mut done = Vec::new();
    // the engines live on this thread, as in every other workload, so their
    // buffers come from the same allocator arena on every run; the generator
    // is the spawned thread
    pass.gen_late_ms = std::thread::scope(|scope| {
        let feed = &feed;
        let generator = scope.spawn(move || {
            let mut late = Vec::with_capacity(feed.len());
            for (i, &item) in feed.iter().enumerate() {
                let due = t0 + period * i as u32;
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                late.push(ms(Instant::now().saturating_duration_since(due)));
                if tx.send(item).is_err() {
                    break;
                }
            }
            late
        });
        let mut engine: Option<StreamEngine> = None;
        for (which, k) in rx {
            let stream = &inputs.streams[which];
            let e = engine.get_or_insert_with(|| new_engine(inputs, which, Some(budget)));
            if !step(e, stream, k) {
                break;
            }
            if k + 1 == stream.order.len() {
                if let Some(e) = engine.take() {
                    results.push((which, e.finish()));
                }
            }
            done.push(Instant::now());
        }
        generator.join().expect("paced generator panicked")
    });
    pass.cpu_ms = host::cpu_ms() - cpu0;
    pass.frames = done.len();
    pass.wall_s = done
        .last()
        .map_or(0.0, |end| end.saturating_duration_since(t0).as_secs_f64());
    pass.lat_ms = done
        .iter()
        .enumerate()
        .map(|(i, end)| ms(end.saturating_duration_since(t0 + period * i as u32)))
        .collect();
    // a run cut short by a failed step never reached `finish`
    pass.failed += feed.len() - done.len();
    let n = results.len();
    for (which, result) in &results {
        pass.absorb_result(&inputs.streams[*which], result, n);
    }
    pass
}

/// The `bench_sessions` service configuration (8 modelled cores in
/// per-core-group shards, 5-frame time slices, 8 streams at once), with
/// ingress queues deep enough that the generator never blocks.
pub fn service_config(frames: usize) -> ServiceConfig {
    ServiceConfig {
        total_cores: 8,
        layout: ShardLayout::PerCoreGroup,
        queue_capacity: frames.max(1),
        backpressure: BackpressurePolicy::Block,
        eviction: EvictionPolicy::TimeSlice { frames: 5 },
        max_concurrent: 8,
    }
}

/// Batch through the service tier over the first `streams` streams: one
/// generator thread submits every frame round-robin at once, closes, and
/// polls for completions. A stream's latency runs from the start of the
/// batch, when all its frames were due.
pub fn service_pass(inputs: &Inputs, streams: usize) -> Pass {
    let used = &inputs.streams[..streams];
    let frames = used.iter().map(|s| s.order.len()).max().unwrap_or(0);
    let specs: Vec<StreamSpec> = (0..streams)
        .map(|i| {
            StreamSpec::builder(
                used[i].cfg.clone(),
                inputs.app.clone(),
                inputs.model.clone(),
            )
            .build()
        })
        .collect();
    // `submit` takes the frame by value; the copies are the generator's
    // business and are made before the clock starts
    let mut feed: Vec<(StreamId, usize, ImageU16)> = Vec::with_capacity(streams * frames);
    for k in 0..frames {
        for (i, s) in used.iter().enumerate() {
            if let Some(&pos) = s.order.get(k) {
                feed.push((i as StreamId, k, s.frames[pos].clone()));
            }
        }
    }
    let mut pass = Pass {
        attempted: feed.len(),
        ..Default::default()
    };
    let core = ServiceCore::new(service_config(frames));

    let cpu0 = host::cpu_ms();
    let t0 = Instant::now();
    let handle = core.spawn(specs);
    let spawn_ms = ms(t0.elapsed());
    for (id, k, image) in feed {
        handle.submit(id, k, image);
        pass.gen_late_ms.push(ms(t0.elapsed()));
    }
    handle.close_all();
    let mut done = 0;
    while done < streams {
        match handle.try_poll() {
            Some(_) => {
                done += 1;
                pass.lat_ms.push(ms(t0.elapsed()));
            }
            None => std::thread::sleep(Duration::from_micros(200)),
        }
    }
    let t_finish = Instant::now();
    let report = handle.finish();
    pass.wall_s = t0.elapsed().as_secs_f64();
    pass.cpu_ms = host::cpu_ms() - cpu0;
    let finish_ms = ms(t_finish.elapsed());

    pass.frames = report.session.total_frames;
    // a failed stream has no result to compare: all its frames count
    for f in &report.session.failures {
        pass.failed += used[f.stream as usize].order.len();
    }
    // 1280 displays take 0.6 s to digest on one thread; spread the streams
    // over the host's cores, then fold the parts together in stream order
    let results = &report.session.streams;
    let n = results.len();
    let chunk = n.div_ceil(host::nproc()).max(1);
    let parts: Vec<Pass> = std::thread::scope(|scope| {
        let handles: Vec<_> = results
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let mut sub = Pass::default();
                    for result in part {
                        sub.absorb_result(&used[result.stream as usize], result, n);
                    }
                    sub
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("verification thread panicked"))
            .collect()
    });
    for sub in parts {
        pass.failed += sub.failed;
        pass.striped_frames += sub.striped_frames;
        pass.pred_accuracy += sub.pred_accuracy;
        pass.p95_coverage += sub.p95_coverage;
    }
    pass.service = Some(ServicePass {
        spawn_ms,
        finish_ms,
        evictions: report.streams.iter().map(|s| s.evictions).sum(),
        migrations: report.streams.iter().map(|s| s.migrations).sum(),
        max_queue_depth: report
            .streams
            .iter()
            .map(|s| s.queue.max_depth)
            .max()
            .unwrap_or(0),
        admission_wait_ms: report.streams.iter().map(|s| s.admission_wait_ms).collect(),
    });
    pass
}

pub fn run_pass(inputs: &Inputs, scale: &Scale) -> Pass {
    match inputs.workload {
        Workload::Steady => steady_pass(inputs, scale),
        Workload::Cold => cold_pass(inputs, scale),
        Workload::Fanin => service_pass(inputs, inputs.streams.len()),
        Workload::Paced => paced_pass(inputs, scale),
    }
}
