//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's own code, around calls into each
//! layer's public functions; nothing is recorded inside the program. Each
//! thread owns a [`Tracer`]; tracers are merged and written out when the
//! workload ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the run's common epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The module a span belongs to: the part of its name before the dot.
    pub fn module(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A per-thread span recorder. Span ids carry the tracer's tag in their top
/// bits, so ids from different threads never collide after a merge.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    tag: u64,
    spans: Vec<Span>,
}

/// An open span: close it with [`Tracer::close`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    index: usize,
    pub id: u64,
}

impl Tracer {
    pub fn new(epoch: Instant, tag: u64) -> Self {
        Tracer {
            epoch,
            tag,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: Option<u64>, request: u64) -> Open {
        let index = self.spans.len();
        let id = (self.tag << 48) | index as u64;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns: start_ns,
        });
        Open { index, id }
    }

    /// Closes a span and returns its duration in milliseconds.
    pub fn close(&mut self, open: Open) -> f64 {
        let end = self.now_ns();
        let span = &mut self.spans[open.index];
        span.end_ns = end;
        span.duration_ns() as f64 / 1e6
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in milliseconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let open = self.open(name, parent, request);
        let out = f();
        let ms = self.close(open);
        (out, ms)
    }

    /// A tracer for another thread, on the same epoch.
    pub fn fork(&self, tag: u64) -> Tracer {
        Tracer::new(self.epoch, tag)
    }

    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the time its children cover.
/// Children of one parent run one after another on one thread, so their
/// durations do not overlap.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.duration_ns();
        }
    }
    spans
        .iter()
        .map(|s| {
            s.duration_ns()
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0))
        })
        .collect()
}

/// Writes the span dump (one JSON object per line) and a per-module
/// self-time summary next to it; `extra` lines (the measured tracing
/// overhead, the layer decomposition) are appended to the summary.
pub fn write_dump(
    spans: &[Span],
    dir: &Path,
    stem: &str,
    extra: &[String],
) -> std::io::Result<String> {
    std::fs::create_dir_all(dir)?;
    let dump = dir.join(format!("{stem}.spans.jsonl"));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&dump)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.request,
            s.name,
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()?;

    let selfs = self_times(spans);
    let mut by_module: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    let mut by_name: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(&selfs) {
        let m = by_module.entry(s.module()).or_default();
        m.0 += self_ns;
        m.1 += 1;
        let n = by_name.entry(s.name).or_default();
        n.0 += self_ns;
        n.1 += 1;
    }
    let total: u64 = selfs.iter().sum();
    let mut summary = String::new();
    let _ = writeln!(summary, "# self time by module ({} spans)", spans.len());
    for (module, (ns, count)) in &by_module {
        let _ = writeln!(
            summary,
            "{module:<12} {:>12.3} ms  {:>6.2}%  spans={count}",
            *ns as f64 / 1e6,
            100.0 * *ns as f64 / total.max(1) as f64
        );
    }
    let _ = writeln!(summary, "# self time by span name");
    for (name, (ns, count)) in &by_name {
        let _ = writeln!(
            summary,
            "{name:<24} {:>12.3} ms  spans={count}",
            *ns as f64 / 1e6
        );
    }
    for line in extra {
        let _ = writeln!(summary, "{line}");
    }
    let path = dir.join(format!("{stem}.summary.txt"));
    std::fs::write(&path, &summary)?;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                id: 1,
                parent: None,
                request: 0,
                name: "core.query",
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                id: 2,
                parent: Some(1),
                request: 0,
                name: "storage.read",
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                id: 3,
                parent: Some(1),
                request: 0,
                name: "compress.decompress",
                start_ns: 40,
                end_ns: 60,
            },
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 20]);
        assert_eq!(spans[2].module(), "compress");
    }
}
