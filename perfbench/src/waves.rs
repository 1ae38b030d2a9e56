//! `warm_waves`: 8-query shared-scan waves over a corpus that fits the
//! page cache.
//!
//! 8 MB of bgl2 is loaded under the default 32 MiB page cache and warmed;
//! one closed-loop client then sends `query_shared` waves of 8 queries,
//! two of each query class. Read and decompress drop to about zero, so
//! filter fan-out, tokenize, batched index probes, bitmap pruning and line
//! materialization set the time. An I/O or codec change should show no
//! movement here.

use std::time::Instant;

use mithrilog::{MithriLog, QueryRequest, SharedBatchOutcome, SystemConfig};
use mithrilog_loggen::DatasetProfile;

use crate::common::{
    batches, corpus, oracle_counts, repeated_setup, Class, Order, Pool, Report, SETUP_REPS,
};
use crate::layers::{put_system, replay, traced_ingest, Layers, Op, PageMap, TextCache};
use crate::stats::{ms, overhead_pct, Samples};
use crate::trace::Tracer;
use crate::Args;

const CORPUS_BYTES: usize = 8_000_000;
const PRELOAD_BATCH_BYTES: usize = 1024 * 1024;
const WAVE: usize = 8;
const CLASSES: [Class; 4] = [Class::Single, Class::Pair, Class::Eight, Class::Negation];
const MIX: [(Class, usize); 4] = [
    (Class::Single, 8),
    (Class::Pair, 8),
    (Class::Eight, 8),
    (Class::Negation, 8),
];
/// Waves replayed by the traced pass: a fixed count, so the deterministic
/// counts repeat exactly for one seed.
const TRACED_WAVES: usize = 6;

fn config() -> SystemConfig {
    SystemConfig {
        query_threads: 2,
        ..SystemConfig::default()
    }
}

struct Loaded {
    sys: MithriLog,
    pool: Pool,
    expected: Vec<u64>,
    raw_bytes: f64,
    preload: Samples,
    preload_s: f64,
    layers: Layers,
    /// Preload batches and warm-up queries run, and how many failed or
    /// disagreed with the oracle.
    attempted: u64,
    failed: u64,
}

/// Draws waves of two queries of each class, each class in seeded passes.
struct Waves {
    orders: Vec<Order>,
}

impl Waves {
    fn new(pool: &Pool, seed: u64) -> Waves {
        Waves {
            orders: CLASSES
                .iter()
                .enumerate()
                .map(|(k, c)| Order::new(pool.of(*c), seed ^ (0x3a7e + k as u64)))
                .collect(),
        }
    }

    fn next_wave(&mut self) -> Vec<usize> {
        let per = WAVE / self.orders.len();
        self.orders
            .iter_mut()
            .flat_map(|o| (0..per).map(|_| o.next_item()).collect::<Vec<_>>())
            .collect()
    }
}

fn setup(seed: u64, trace: Option<&mut Tracer>) -> Loaded {
    let text = corpus(DatasetProfile::Bgl2, CORPUS_BYTES, seed);
    let pool = Pool::draw(DatasetProfile::Bgl2, &MIX);
    let expected = oracle_counts(&text, &pool.queries);
    let config = config();
    let mut sys = MithriLog::new(config.clone());
    let mut layers = Layers {
        threads: config.resolved_query_threads() as f64,
        ..Layers::default()
    };
    let mut preload = Samples::default();
    let mut failed = 0;
    let start = Instant::now();
    let mut tracer = trace;
    for (i, part) in batches(&text, PRELOAD_BATCH_BYTES).into_iter().enumerate() {
        let t = Instant::now();
        match tracer.as_deref_mut() {
            Some(tr) => traced_ingest(tr, i as u64, &config, part, &mut layers, |p| {
                sys.apply_ingest(p)
            }),
            None => {
                if !sys
                    .ingest(part)
                    .is_ok_and(|r| r.raw_bytes == part.len() as u64)
                {
                    failed += 1;
                }
            }
        }
        preload.push(ms(t.elapsed()));
    }
    let preload_s = start.elapsed().as_secs_f64();
    let attempted = preload.len() as u64 + pool.len() as u64;
    // Warm the page cache: every pool query once, in waves.
    for chunk in (0..pool.len()).collect::<Vec<_>>().chunks(WAVE) {
        let reqs: Vec<QueryRequest> = chunk
            .iter()
            .map(|&i| QueryRequest::new(pool.queries[i].clone()))
            .collect();
        match sys.query_shared(&reqs) {
            Ok(batch) => {
                failed += chunk
                    .iter()
                    .zip(&batch.outcomes)
                    .filter(|(&i, o)| o.match_count() != expected[i])
                    .count() as u64;
            }
            Err(_) => failed += chunk.len() as u64,
        }
    }
    Loaded {
        sys,
        pool,
        expected,
        raw_bytes: text.len() as f64,
        preload,
        preload_s,
        layers,
        attempted,
        failed,
    }
}

/// Checks every member of a wave against the oracle.
fn check_wave(
    batch: &Result<SharedBatchOutcome, mithrilog::MithriLogError>,
    wave: &[usize],
    expected: &[u64],
    report: &mut Report,
) {
    match batch {
        Ok(batch) => {
            for (&i, out) in wave.iter().zip(&batch.outcomes) {
                report.check(!out.degraded.is_lossy(), out.match_count() != expected[i]);
            }
        }
        Err(_) => {
            for _ in wave {
                report.check(false, false);
            }
        }
    }
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    // Preload throughput and batch latency are taken over every set-up.
    let mut rates = Samples::default();
    let mut preload = Samples::default();
    let (mut attempted, mut failed) = (0, 0);
    let mut keep = |loaded: Loaded| {
        attempted += loaded.attempted;
        failed += loaded.failed;
        rates.push(loaded.raw_bytes / 1e6 / loaded.preload_s);
        for v in loaded.preload.values() {
            preload.push(*v);
        }
        loaded
    };
    let (loaded, setup_times) = if args.trace {
        repeated_setup(1, || keep(setup(args.seed, Some(&mut *tracer))))
    } else {
        repeated_setup(SETUP_REPS, || keep(setup(args.seed, None)))
    };
    report.put("setup_s", setup_times.median(), "s", setup_times.len());
    let Loaded {
        mut sys,
        pool,
        expected,
        raw_bytes,
        mut layers,
        ..
    } = loaded;
    report.attempted += attempted;
    report.failed += failed;
    report.put("ingest_mb_s", rates.median(), "MB/s", rates.len());
    report.put("ingest_p50_ms", preload.median(), "ms", preload.len());
    let stored = sys.device().page_count() as f64 * sys.config().device.page_bytes as f64;
    report.put("stored_bytes_per_raw_byte", stored / raw_bytes, "B/B", 1);

    let mut waves = Waves::new(&pool, args.seed);
    let wave_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut lat = Samples::default();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < wave_s {
        let wave = waves.next_wave();
        let reqs: Vec<QueryRequest> = wave
            .iter()
            .map(|&i| QueryRequest::new(pool.queries[i].clone()))
            .collect();
        let t = Instant::now();
        let batch = sys.query_shared(&reqs);
        lat.push(ms(t.elapsed()));
        check_wave(&batch, &wave, &expected, &mut report);
    }
    let elapsed = start.elapsed().as_secs_f64();
    let n = lat.len();
    report.put("wave_p50_ms", lat.median(), "ms", n);
    report.put("wave_p90_ms", lat.percentile(90.0), "ms", n);
    report.put("wave_qps", (n * WAVE) as f64 / elapsed, "1/s", n);
    report.put(
        "wave_mb_s",
        (n * WAVE) as f64 * raw_bytes / 1e6 / elapsed,
        "MB/s",
        n,
    );

    if args.trace {
        let map = PageMap::of(&sys);
        let mut texts = TextCache::default();
        let mut traced = Samples::default();
        let mut waves = Waves::new(&pool, args.seed);
        for k in 0..TRACED_WAVES {
            let wave = waves.next_wave();
            let queries: Vec<_> = wave.iter().map(|&i| pool.queries[i].clone()).collect();
            let reqs: Vec<QueryRequest> = queries.iter().cloned().map(QueryRequest::new).collect();
            let req = 1_000_000 + k as u64;
            let root = tracer.open("op", None, req);
            let (batch, call_ms) = tracer.time("core.query_shared", Some(root.id), req, || {
                sys.query_shared(&reqs)
            });
            traced.push(call_ms);
            check_wave(&batch, &wave, &expected, &mut report);
            if let Ok(batch) = batch {
                let shared = &batch.shared;
                layers.call_ms += call_ms;
                layers.probe_demanded += shared.probe_node_visits_demanded;
                layers.probe_physical += shared.probe_node_visits_physical;
                let op = Op {
                    request: req,
                    root: Some(root.id),
                    queries: &queries,
                    outcomes: &batch.outcomes,
                    flash_reads: shared.unique_pages_read - shared.cache_hits,
                };
                replay(tracer, &mut sys, &map, &mut texts, &op, &mut layers);
                layers.ops += 1;
            }
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
