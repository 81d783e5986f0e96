//! In-memory span recorder for the `--trace` run, written out as Chrome
//! trace JSON when the run ends. Spans are opened and closed by the
//! benchmark around its calls into each layer; the program is not touched.

use std::time::Instant;

struct Span {
    name: &'static str,
    cat: &'static str,
    parent: Option<usize>,
    start_us: f64,
    dur_us: f64,
}

pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span that is a child of the innermost open span,
    /// and returns `f`'s result with the span's duration in ms.
    pub fn timed<R>(
        &mut self,
        name: &'static str,
        cat: &'static str,
        f: impl FnOnce(&mut Self) -> R,
    ) -> (R, f64) {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            cat,
            parent: self.open.last().copied(),
            start_us: self.epoch.elapsed().as_secs_f64() * 1e6,
            dur_us: 0.0,
        });
        self.open.push(id);
        let t0 = Instant::now();
        let out = f(self);
        let dur = t0.elapsed();
        self.open.pop();
        self.spans[id].dur_us = dur.as_secs_f64() * 1e6;
        (out, dur.as_secs_f64() * 1e3)
    }

    /// Like [`Spans::timed`] for a leaf call that opens no child spans.
    pub fn leaf<R>(
        &mut self,
        name: &'static str,
        cat: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        self.timed(name, cat, |_| f())
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Chrome `trace_event` JSON (complete events; `args.parent` is the id
    /// of the span that caused this one).
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent}}}}}",
                s.name, s.cat, s.start_us, s.dur_us
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}
