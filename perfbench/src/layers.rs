//! The traced pass: per-layer time and counts, measured by calling each
//! layer's public function on the pages and queries a timed call planned.
//!
//! For every traced operation the benchmark first makes the timed call
//! (`MithriLog::query`, `query_shared`, or `ShardedLog::query_shared`), then
//! replays it stage by stage from outside the program: `MithriLog::explain`
//! for the plan, `SsdReader::read` and `Lzah::decompress_into` for the pages
//! the call could not serve from the page cache, `Tokenizer::tokens` and
//! `FilterPipeline::filter_text_with_stats_into` for every page a query
//! planned, and line materialization for every kept line. One span covers
//! each stage of one operation.
//!
//! The plan reports planned pages per segment but not their ids: the replay
//! takes a segment's pages whole when the plan keeps all of them, and for a
//! partly pruned segment the pages holding the query's matches first, then
//! the segment's other pages in order up to the planned count. The count is
//! exact; `replay_pages_approximated` counts the pages whose identity is not.
//! The replay is single-threaded, so stage times are busy time summed over
//! pages; the timed call spreads them over `query_threads` workers.

use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::hint::black_box;
use std::ops::Range;

use mithrilog::{MithriLog, PlanExplain, PreparedIngest, QueryOutcome, QueryRequest};
use mithrilog_compress::{compress_paged, Lzah, LzahScratch};
use mithrilog_filter::{FilterPipeline, HashFilter};
use mithrilog_query::Query;
use mithrilog_storage::PageId;
use mithrilog_tokenizer::Tokenizer;

use crate::common::Report;
use crate::stats::Samples;
use crate::trace::Tracer;

/// Data pages of one device grouped by segment (sealed segments oldest
/// first, the open segment last), the order `PlanExplain::segments` uses.
pub struct PageMap {
    segments: Vec<(Option<u64>, Vec<PageId>)>,
}

impl PageMap {
    pub fn of(sys: &MithriLog) -> PageMap {
        let data = sys.data_pages();
        let mut segments = Vec::new();
        let mut last_sealed: Option<u64> = None;
        for seg in sys.sealed_segments() {
            let pages = data
                .iter()
                .filter(|p| p.0 >= seg.first_page && p.0 <= seg.last_page)
                .copied()
                .collect();
            segments.push((Some(seg.id), pages));
            last_sealed = Some(last_sealed.map_or(seg.last_page, |l| l.max(seg.last_page)));
        }
        let open = data
            .iter()
            .filter(|p| last_sealed.is_none_or(|l| p.0 > l))
            .copied()
            .collect();
        segments.push((None, open));
        PageMap { segments }
    }

    fn pages_of(&self, segment: Option<u64>) -> &[PageId] {
        self.segments
            .iter()
            .find(|(id, _)| *id == segment)
            .map_or(&[], |(_, pages)| pages.as_slice())
    }

    /// The pages `plan` scans for a query whose timed call returned
    /// `outcome`, and how many of them were chosen without knowing their id.
    fn planned(&self, plan: &PlanExplain, outcome: &QueryOutcome) -> (Vec<PageId>, u64) {
        let matched: BTreeSet<u64> = outcome.line_pages.iter().copied().collect();
        let mut out = Vec::new();
        let mut approximated = 0;
        for seg in &plan.segments {
            let pages = self.pages_of(seg.segment_id);
            let want = seg.planned_pages as usize;
            if want >= pages.len() {
                out.extend_from_slice(pages);
                continue;
            }
            let mut chosen: Vec<PageId> = pages
                .iter()
                .filter(|p| matched.contains(&p.0))
                .take(want)
                .copied()
                .collect();
            let known = chosen.len();
            for p in pages {
                if chosen.len() >= want {
                    break;
                }
                if !matched.contains(&p.0) {
                    chosen.push(*p);
                }
            }
            approximated += (chosen.len() - known) as u64;
            out.extend(chosen);
        }
        out.sort_unstable();
        (out, approximated)
    }
}

/// Decompressed page text the replay has already produced, so pages the
/// timed call served from its cache are filtered without being charged to
/// the storage and decompress stages.
#[derive(Default)]
pub struct TextCache {
    pages: HashMap<u64, Vec<u8>>,
}

impl TextCache {
    fn fill(&mut self, sys: &MithriLog, page: PageId) {
        if self.pages.contains_key(&page.0) {
            return;
        }
        let raw = sys
            .device()
            .reader()
            .read(page)
            .expect("a committed page reads back");
        let mut scratch = LzahScratch::new();
        let text = Lzah::new(sys.config().lzah)
            .decompress_into(&raw, &mut scratch)
            .expect("a committed page decompresses");
        self.pages.insert(page.0, text.to_vec());
    }
}

/// Per-layer accumulators over the traced operations of one run.
#[derive(Default)]
pub struct Layers {
    pub ops: u64,
    pub call_ms: f64,
    pub threads: f64,
    pub plan_ms: f64,
    pub probe_demanded: u64,
    pub probe_physical: u64,
    pub pages_planned: u64,
    pub pruned_by_index: u64,
    pub pruned_by_bitmap: u64,
    pub read_ms: f64,
    pub pages_read: u64,
    pub decompress_ms: f64,
    pub bytes_out: u64,
    pub union_pages: u64,
    pub cache_hits: u64,
    pub demanded_passes: u64,
    pub tokenize_ms: f64,
    pub tokens: u64,
    pub filter_ms: f64,
    pub lines_in: u64,
    pub lines_kept: u64,
    pub materialize_ms: f64,
    pub merge_ms: f64,
    pub replay_approximated: u64,
    pub replay_mismatches: u64,
    pub build_ms: Samples,
    pub compress_ms: Samples,
    pub apply_ms: Samples,
}

/// One timed operation to replay: its queries and the outcomes the timed
/// call returned, plus how many of its union pages the call read from
/// flash (the rest were page-cache hits).
pub struct Op<'a> {
    pub request: u64,
    pub root: Option<u64>,
    pub queries: &'a [Query],
    pub outcomes: &'a [QueryOutcome],
    pub flash_reads: u64,
}

/// Replays one timed operation stage by stage under spans (see the module
/// documentation) and folds its counts into `acc`; the caller counts the
/// operation in `acc.ops`.
pub fn replay(
    tr: &mut Tracer,
    sys: &mut MithriLog,
    map: &PageMap,
    texts: &mut TextCache,
    op: &Op<'_>,
    acc: &mut Layers,
) {
    let (req, root) = (op.request, op.root);
    let mut plans: Vec<Vec<PageId>> = Vec::with_capacity(op.queries.len());
    for (q, outcome) in op.queries.iter().zip(op.outcomes) {
        let (plan, ms) = tr.time("index.plan", root, req, || {
            sys.explain(&QueryRequest::new(q.clone()))
        });
        let plan = plan.expect("explain of a query that just ran");
        acc.plan_ms += ms;
        acc.pages_planned += plan.planned_pages;
        acc.pruned_by_index += plan.pruned_by_index();
        acc.pruned_by_bitmap += plan.pruned_by_bitmap();
        let (pages, approximated) = map.planned(&plan, outcome);
        acc.replay_approximated += approximated;
        plans.push(pages);
    }
    let union: Vec<PageId> = plans
        .iter()
        .flatten()
        .copied()
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let flash = (op.flash_reads as usize).min(union.len());
    acc.union_pages += union.len() as u64;
    acc.cache_hits += (union.len() - flash) as u64;
    acc.demanded_passes += plans.iter().map(|p| p.len() as u64).sum::<u64>();

    let (raws, ms) = tr.time("storage.read", root, req, || {
        let mut reader = sys.device().reader();
        union[..flash]
            .iter()
            .map(|p| reader.read(*p).expect("a committed page reads back"))
            .collect::<Vec<_>>()
    });
    acc.read_ms += ms;
    acc.pages_read += flash as u64;

    let codec = Lzah::new(sys.config().lzah);
    let mut scratch = LzahScratch::new();
    let (decoded, ms) = tr.time("compress.decompress", root, req, || {
        raws.iter()
            .map(|raw| {
                codec
                    .decompress_into(raw, &mut scratch)
                    .expect("a committed page decompresses")
                    .to_vec()
            })
            .collect::<Vec<_>>()
    });
    acc.decompress_ms += ms;
    for (p, text) in union[..flash].iter().zip(decoded) {
        acc.bytes_out += text.len() as u64;
        texts.pages.insert(p.0, text);
    }
    for p in &union[flash..] {
        texts.fill(sys, *p);
    }

    let tokenizer = Tokenizer::new(sys.config().tokenizer.clone());
    let (tokens, ms) = tr.time("tokenizer.tokenize", root, req, || {
        let mut n = 0u64;
        for pages in &plans {
            for p in pages {
                for line in texts.pages[&p.0].split(|b| *b == b'\n') {
                    n += tokenizer.tokens(line).count() as u64;
                }
            }
        }
        black_box(n)
    });
    acc.tokenize_ms += ms;
    acc.tokens += tokens;

    let config = sys.config();
    let pipelines: Vec<Option<FilterPipeline>> = op
        .queries
        .iter()
        .map(|q| FilterPipeline::compile_with(q, config.filter, config.tokenizer.clone()).ok())
        .collect();
    let (kept, ms) = tr.time("filter.filter", root, req, || {
        let mut kept: Vec<(u64, Vec<Range<usize>>)> = Vec::new();
        let (mut lines_in, mut lines_kept) = (0u64, 0u64);
        for ((pages, pipeline), q) in plans.iter().zip(&pipelines).zip(op.queries) {
            let mut filter = pipeline.as_ref().map(|p| HashFilter::new(p.compiled()));
            let mut ranges = Vec::new();
            for p in pages {
                let text = &texts.pages[&p.0];
                match (pipeline, filter.as_mut()) {
                    (Some(pipeline), Some(filter)) => {
                        let stats = pipeline.filter_text_with_stats_into(text, filter, &mut ranges);
                        lines_in += stats.lines_in;
                    }
                    _ => software_filter(q, text, &mut ranges, &mut lines_in),
                }
                lines_kept += ranges.len() as u64;
                kept.push((p.0, std::mem::take(&mut ranges)));
            }
        }
        (kept, lines_in, lines_kept)
    });
    acc.filter_ms += ms;
    let (kept, lines_in, lines_kept) = kept;
    acc.lines_in += lines_in;
    acc.lines_kept += lines_kept;
    let expected: u64 = op.outcomes.iter().map(QueryOutcome::match_count).sum();
    if lines_kept != expected {
        acc.replay_mismatches += 1;
    }

    let (_, ms) = tr.time("core.materialize", root, req, || {
        let mut lines: Vec<String> = Vec::with_capacity(lines_kept as usize);
        for (page, ranges) in &kept {
            let text = &texts.pages[page];
            for r in ranges {
                lines.push(String::from_utf8_lossy(&text[r.clone()]).into_owned());
            }
        }
        black_box(lines.len())
    });
    acc.materialize_ms += ms;
}

/// The engine the program falls back to when a query does not fit the
/// hardware filter: the reference evaluator, line by line.
fn software_filter(q: &Query, text: &[u8], ranges: &mut Vec<Range<usize>>, lines_in: &mut u64) {
    ranges.clear();
    let mut offset = 0;
    for line in text.split(|b| *b == b'\n') {
        let start = offset;
        offset += line.len() + 1;
        if line.is_empty() {
            continue;
        }
        *lines_in += 1;
        if q.matches_line(&String::from_utf8_lossy(line)) {
            ranges.push(start..start + line.len());
        }
    }
}

/// One ingest batch under spans: `PreparedIngest::build`, then `apply`
/// (the device half, `MithriLog::apply_ingest` or the shard layer's
/// `apply_prepared`), then `compress_paged` over the same text, which
/// isolates the codec's share of the build.
pub fn traced_ingest<E: std::fmt::Debug>(
    tr: &mut Tracer,
    request: u64,
    config: &mithrilog::SystemConfig,
    batch: &[u8],
    acc: &mut Layers,
    apply: impl FnOnce(&PreparedIngest<'_>) -> Result<mithrilog::IngestReport, E>,
) {
    let root = tr.open("core.ingest", None, request);
    let (prep, ms) = tr.time("core.ingest_build", Some(root.id), request, || {
        PreparedIngest::build(config, Cow::Borrowed(batch))
    });
    acc.build_ms.push(ms);
    let (report, ms) = tr.time("core.ingest_apply", Some(root.id), request, || apply(&prep));
    let report = report.expect("ingest of generated text");
    assert_eq!(
        report.raw_bytes,
        batch.len() as u64,
        "ingest took every byte"
    );
    acc.apply_ms.push(ms);
    let (_, ms) = tr.time("compress.compress_paged", Some(root.id), request, || {
        black_box(compress_paged(batch, config.lzah, config.device.page_bytes))
    });
    acc.compress_ms.push(ms);
    tr.close(root);
}

/// Writes the index size and the accelerator model's scan rate of the
/// system a workload ran on (summed, and for the rate averaged, over shards).
pub fn put_system(report: &mut Report, tokens_indexed: u64, index_bytes: u64, modeled_gbps: f64) {
    report.put("index.tokens_indexed", tokens_indexed as f64, "tokens", 1);
    report.put("index.memory_bytes", index_bytes as f64, "B", 1);
    report.put("sim.modeled_scan_gbps", modeled_gbps, "GB/s", 1);
}

/// Mean of the last tenth of `v` over the mean of the first tenth.
fn growth(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let k = (v.len() / 10).max(1);
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    let first = mean(&v[..k]);
    if first > 0.0 {
        mean(&v[v.len() - k..]) / first
    } else {
        0.0
    }
}

impl Layers {
    /// Writes the replay-derived per-layer metrics into `report`.
    /// `passes` overrides the union/demand counts with the ones the program
    /// reported, when the timed calls grouped queries differently from the
    /// replay (the service forms its own waves).
    pub fn put(&self, report: &mut Report, passes: Option<(u64, u64)>, hit_rate: Option<f64>) {
        let ops = self.ops.max(1) as f64;
        let n = self.ops as usize;
        let per = |v: f64| v / ops;
        report.put("index.plan_ms", per(self.plan_ms), "ms/op", n);
        report.put(
            "index.probe_visits_demanded",
            per(self.probe_demanded as f64),
            "visits/op",
            n,
        );
        report.put(
            "index.probe_visits_physical",
            per(self.probe_physical as f64),
            "visits/op",
            n,
        );
        report.put(
            "core.pages_planned",
            per(self.pages_planned as f64),
            "pages/op",
            n,
        );
        report.put(
            "core.pages_pruned_by_index",
            per(self.pruned_by_index as f64),
            "pages/op",
            n,
        );
        report.put(
            "core.pages_pruned_by_bitmap",
            per(self.pruned_by_bitmap as f64),
            "pages/op",
            n,
        );
        report.put("storage.read_ms", per(self.read_ms), "ms/op", n);
        report.put(
            "storage.pages_read",
            per(self.pages_read as f64),
            "pages/op",
            n,
        );
        report.put(
            "compress.decompress_ms",
            per(self.decompress_ms),
            "ms/op",
            n,
        );
        report.put("compress.bytes_out", per(self.bytes_out as f64), "B/op", n);
        let hit_rate =
            hit_rate.unwrap_or_else(|| self.cache_hits as f64 / self.union_pages.max(1) as f64);
        report.put("core.cache_hit_rate", hit_rate, "ratio", n);
        report.put("tokenizer.tokenize_ms", per(self.tokenize_ms), "ms/op", n);
        report.put("tokenizer.tokens", per(self.tokens as f64), "tokens/op", n);
        report.put(
            "filter.evaluate_ms",
            per(self.filter_ms - self.tokenize_ms),
            "ms/op",
            n,
        );
        report.put(
            "filter.lines_kept_ratio",
            self.lines_kept as f64 / self.lines_in.max(1) as f64,
            "ratio",
            n,
        );
        let (demanded, union) = passes.unwrap_or((self.demanded_passes, self.union_pages));
        report.put(
            "filter.passes_per_union_page",
            demanded as f64 / union.max(1) as f64,
            "ratio",
            n,
        );
        report.put("core.materialize_ms", per(self.materialize_ms), "ms/op", n);
        report.put(
            "core.shared_read_ratio",
            union as f64 / demanded.max(1) as f64,
            "ratio",
            n,
        );
        let stages = (self.read_ms + self.decompress_ms + self.filter_ms + self.materialize_ms)
            / self.threads.max(1.0);
        report.put(
            "core.unattributed_ms",
            per(self.call_ms - self.plan_ms - stages),
            "ms/op",
            n,
        );
        let batches = self.apply_ms.len();
        report.put(
            "core.ingest_build_ms",
            self.build_ms.mean(),
            "ms/batch",
            batches,
        );
        report.put(
            "compress.compress_ms",
            self.compress_ms.mean(),
            "ms/batch",
            batches,
        );
        report.put(
            "core.ingest_apply_ms",
            self.apply_ms.mean(),
            "ms/batch",
            batches,
        );
        report.put(
            "core.ingest_apply_growth",
            growth(self.apply_ms.values()),
            "ratio",
            batches,
        );
        report.put("shard.merge_ms", per(self.merge_ms), "ms/op", n);
        report.record.push(format!(
            "replay_pages_approximated={} replay_count_mismatches={}",
            self.replay_approximated, self.replay_mismatches
        ));
    }
}
