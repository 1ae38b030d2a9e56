//! `ingest_cold_scan`: write, then read, a corpus four times the page cache.
//!
//! 16 MB of liberty2 is ingested through `MithriLog::ingest` in 256 KiB
//! batches (a log shipper's flush size); then one closed-loop client makes
//! solo `query` calls, mostly full scans, with a 4 MiB page cache. This
//! loads storage read + CRC, LZAH decompress, tokenize and the per-commit
//! ingest cost, and barely uses wave planning or sharing.

use std::time::Instant;

use mithrilog::{MithriLog, SystemConfig};
use mithrilog_loggen::DatasetProfile;
use mithrilog_query::Query;

use crate::common::{
    batches, corpus, oracle_counts, repeated_setup, Class, Order, Pool, Report, SETUP_REPS,
};
use crate::layers::{put_system, replay, traced_ingest, Layers, Op, PageMap, TextCache};
use crate::stats::{ms, overhead_pct, Samples};
use crate::trace::Tracer;
use crate::Args;

const CORPUS_BYTES: usize = 16_000_000;
const BATCH_BYTES: usize = 256 * 1024;
const PAGE_CACHE_BYTES: u64 = 4 * 1024 * 1024;
/// Ingests of the corpus in an untraced run; `ingest_mb_s` is their median.
const INGEST_REPS: usize = 5;
/// Eights plan every page on liberty2; the negations are pruned by the
/// segment bitmaps to under half, and singles and pairs use the index. The
/// mix is mostly full scans, so the median is a full scan.
const MIX: [(Class, usize); 4] = [
    (Class::Single, 2),
    (Class::Pair, 2),
    (Class::Eight, 10),
    (Class::Negation, 2),
];

fn config() -> SystemConfig {
    SystemConfig {
        query_threads: 2,
        page_cache_bytes: PAGE_CACHE_BYTES,
        ..SystemConfig::default()
    }
}

struct Inputs {
    text: Vec<u8>,
    pool: Pool,
    expected: Vec<u64>,
}

fn setup(seed: u64) -> Inputs {
    let text = corpus(DatasetProfile::Liberty2, CORPUS_BYTES, seed);
    let pool = Pool::draw(DatasetProfile::Liberty2, &MIX);
    let expected = oracle_counts(&text, &pool.queries);
    Inputs {
        text,
        pool,
        expected,
    }
}

/// One solo query, checked against the oracle; returns its latency.
fn timed_query(sys: &mut MithriLog, q: &Query, expected: u64, report: &mut Report) -> f64 {
    let t = Instant::now();
    let out = sys.query(q);
    let lat = ms(t.elapsed());
    match out {
        Ok(out) => report.check(!out.degraded.is_lossy(), out.match_count() != expected),
        Err(_) => report.check(false, false),
    }
    lat
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let (inputs, setup_times) = repeated_setup(reps, || setup(args.seed));
    report.put("setup_s", setup_times.median(), "s", setup_times.len());
    let Inputs {
        text,
        pool,
        expected,
    } = inputs;
    let config = config();
    let mut layers = Layers {
        threads: config.resolved_query_threads() as f64,
        ..Layers::default()
    };

    // Ingest phase, repeated into fresh systems; the last one is scanned.
    let ingest_reps = if args.trace { 1 } else { INGEST_REPS };
    let parts = batches(&text, BATCH_BYTES);
    let raw = text.len() as f64;
    let mut ingest_lat = Samples::default();
    let mut rates = Samples::default();
    let mut last = None;
    for _ in 0..ingest_reps {
        drop(last.take());
        let mut sys = MithriLog::new(config.clone());
        let start = Instant::now();
        for (i, part) in parts.iter().enumerate() {
            let t = Instant::now();
            if args.trace {
                traced_ingest(tracer, i as u64, &config, part, &mut layers, |p| {
                    sys.apply_ingest(p)
                });
                report.check(true, false);
            } else {
                let ok = sys
                    .ingest(part)
                    .is_ok_and(|r| r.raw_bytes == part.len() as u64);
                report.check(ok, false);
            }
            ingest_lat.push(ms(t.elapsed()));
        }
        rates.push(raw / 1e6 / start.elapsed().as_secs_f64());
        last = Some(sys);
    }
    let mut sys = last.expect("at least one ingest pass");
    report.put("ingest_mb_s", rates.median(), "MB/s", rates.len());
    report.put("ingest_p50_ms", ingest_lat.median(), "ms", ingest_lat.len());
    let stored = sys.device().page_count() as f64 * config.device.page_bytes as f64;
    report.put("stored_bytes_per_raw_byte", stored / raw, "B/B", 1);

    // Scan phase: one closed-loop client, the pool in seeded passes.
    let mut order = Order::new((0..pool.len()).collect(), args.seed ^ 0x5ca1);
    let scan_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut lat = Samples::default();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < scan_s {
        let i = order.next_item();
        lat.push(timed_query(
            &mut sys,
            &pool.queries[i],
            expected[i],
            &mut report,
        ));
    }
    let elapsed = start.elapsed().as_secs_f64();
    let n = lat.len();
    report.put("scan_p50_ms", lat.median(), "ms", n);
    report.put("scan_p90_ms", lat.percentile(90.0), "ms", n);
    report.put("scan_qps", n as f64 / elapsed, "1/s", n);
    report.put("scan_mb_s", n as f64 * raw / 1e6 / elapsed, "MB/s", n);

    if args.trace {
        // Traced pass: every pool query once, in the order the untraced
        // loop began with, so the deterministic counts repeat exactly for
        // one seed and the two passes compare like for like.
        let map = PageMap::of(&sys);
        let mut texts = TextCache::default();
        let mut traced = Samples::default();
        let mut order = Order::new((0..pool.len()).collect(), args.seed ^ 0x5ca1);
        for k in 0..pool.len() {
            let i = order.next_item();
            let q = &pool.queries[i];
            let req = 1_000_000 + k as u64;
            let root = tracer.open("op", None, req);
            let before = *sys.device().ledger();
            let (out, call_ms) = tracer.time("core.query", Some(root.id), req, || sys.query(q));
            let after = *sys.device().ledger();
            traced.push(call_ms);
            let Ok(out) = out else {
                report.check(false, false);
                tracer.close(root);
                continue;
            };
            report.check(!out.degraded.is_lossy(), out.match_count() != expected[i]);
            let hits = after.cache_hits - before.cache_hits;
            let flash = out.pages_scanned.saturating_sub(hits);
            let probe = (after.pages_read - before.pages_read).saturating_sub(flash);
            layers.probe_demanded += probe;
            layers.probe_physical += probe;
            layers.call_ms += call_ms;
            let queries = [q.clone()];
            let op = Op {
                request: req,
                root: Some(root.id),
                queries: &queries,
                outcomes: std::slice::from_ref(&out),
                flash_reads: flash,
            };
            replay(tracer, &mut sys, &map, &mut texts, &op, &mut layers);
            layers.ops += 1;
            tracer.close(root);
        }
        layers.put(&mut report, None, None);
        report.put(
            "trace.overhead_pct",
            overhead_pct(traced.values(), lat.values()),
            "%",
            traced.len(),
        );
        put_system(
            &mut report,
            sys.index().tokens_indexed(),
            sys.index().memory_footprint() as u64,
            sys.modeled_throughput().total_gbps,
        );
    }
    report
}
