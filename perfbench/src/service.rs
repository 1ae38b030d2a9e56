//! `service_mixed`: reads beside small writes through the service and shard
//! layers.
//!
//! 8 MB of liberty2 is preloaded across a 2-shard `ShardedLog` behind
//! `Service::spawn`. One generator thread sends an open loop at a fixed
//! arrival rate: queries from two tenants, and every 25th arrival a 64 KiB
//! ingest. The main thread collects completions; latency is timed from each
//! request's scheduled send time. A closed phase then keeps `max_batch`
//! queries outstanding to measure capacity. This is the only workload with
//! queue wait, wave formation, shard merge, routed ingest and ingest
//! overlapped with a wave.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use mithrilog::{PreparedIngest, QueryRequest, SystemConfig};
use mithrilog_loggen::DatasetProfile;
use mithrilog_service::{JobId, JobOutput, Priority, Service, ServiceConfig, ServiceHandle};
use mithrilog_shard::{RouteMode, ShardOptions, ShardedLog};
use mithrilog_storage::MemStore;

use crate::common::{
    batches, corpus, oracle_counts, repeated_setup, Class, Order, Pool, Report, SETUP_REPS,
};
use crate::layers::{put_system, replay, traced_ingest, Layers, Op, PageMap, TextCache};
use crate::stats::{ms, Samples};
use crate::trace::Tracer;
use crate::Args;

const PRELOAD_BYTES: usize = 8_000_000;
const PRELOAD_BATCH_BYTES: usize = 1024 * 1024;
const INGEST_BYTES: usize = 64 * 1024;
const INGEST_EVERY: u64 = 25;
const SHARDS: u32 = 2;
const MAX_BATCH: usize = 8;
/// Open-loop arrivals per second: about half the knee measured on a 2-CPU
/// host (see perfbench/README.md), so the queue stays short and latency
/// reflects service time plus wave formation, not a growing backlog.
pub const RATE_PER_S: f64 = 10.0;
/// Share of `--seconds` spent in the open loop; the rest is the closed
/// capacity phase.
const OPEN_SHARE: f64 = 0.6;
/// The closed phase sends a fixed number of jobs, sized so it takes the
/// rest of `--seconds` at this many jobs per second. Fixed work keeps what
/// the service retains (and so peak memory) the same from run to run.
const CLOSED_JOBS_PER_S: f64 = 20.0;
/// Blocks the closed phase's completions are split into (see
/// `block_rates`).
const CAPACITY_BLOCKS: usize = 5;

/// Open-loop arrivals and closed-phase jobs of a run of `seconds`.
fn submissions(seconds: f64, rate: f64) -> (u64, u64) {
    (
        (seconds * OPEN_SHARE * rate).floor() as u64,
        (seconds * (1.0 - OPEN_SHARE) * CLOSED_JOBS_PER_S).round() as u64,
    )
}
/// A generator later than this behind its schedule invalidates the run.
const MAX_LATENESS_MS: f64 = 100.0;
/// Queries of the traced open-loop phase replayed against the replica.
const REPLAYED_QUERIES: usize = 16;
/// Pairs and eights: on liberty2 most of them scan 80-100% of the pages,
/// so the latency percentiles sit inside one band of similar-cost queries.
/// With singles in the mix, about 40% of the queries plan no page at all
/// and the median fell on the edge between the two bands, swinging between
/// 12 and 37 ms from seed to seed. Singles and negations are measured by
/// the other workloads.
const MIX: [(Class, usize); 2] = [(Class::Pair, 8), (Class::Eight, 4)];

fn config() -> SystemConfig {
    SystemConfig {
        query_threads: 2,
        ..SystemConfig::default()
    }
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        max_batch: MAX_BATCH,
        max_queue: 256,
        ..ServiceConfig::default()
    }
}

/// A run's inputs: the preload, the ingest batches the open loop
/// sends, the query pool, and the oracle counts over each piece of text.
struct Inputs {
    preload: Vec<u8>,
    ingests: Vec<Vec<u8>>,
    pool: Pool,
    /// Expected count of each pool query over the preload.
    base: Vec<u64>,
    /// Expected count of each pool query over each ingest batch.
    per_ingest: Vec<Vec<u64>>,
}

impl Inputs {
    fn new(seed: u64, seconds: f64, rate: f64) -> Inputs {
        let (open, closed) = submissions(seconds, rate);
        let needed = ((open + closed) / INGEST_EVERY + 2) as usize;
        let text = corpus(
            DatasetProfile::Liberty2,
            PRELOAD_BYTES + (needed + 1) * INGEST_BYTES,
            seed,
        );
        let mut cut = PRELOAD_BYTES.min(text.len());
        while cut < text.len() && text[cut - 1] != b'\n' {
            cut += 1;
        }
        let ingests: Vec<Vec<u8>> = batches(&text[cut..], INGEST_BYTES)
            .into_iter()
            .take(needed)
            .map(<[u8]>::to_vec)
            .collect();
        let pool = Pool::draw(DatasetProfile::Liberty2, &MIX);
        let base = oracle_counts(&text[..cut], &pool.queries);
        let per_ingest = ingests
            .iter()
            .map(|b| oracle_counts(b, &pool.queries))
            .collect();
        Inputs {
            preload: text[..cut].to_vec(),
            ingests,
            pool,
            base,
            per_ingest,
        }
    }

    /// Expected count of pool query `i` after the first `ingested` batches.
    fn expected(&self, i: usize, ingested: usize) -> u64 {
        self.base[i]
            + self.per_ingest[..ingested]
                .iter()
                .map(|c| c[i])
                .sum::<u64>()
    }
}

/// Preloads a 2-shard topology in 1 MiB batches and warms its page caches
/// with every pool query; returns per-batch preload latencies and the
/// number of warm-up queries that disagreed with the oracle.
fn preload(
    inputs: &Inputs,
    seed: u64,
    mut trace: Option<(&mut Tracer, &mut Layers)>,
) -> (ShardedLog<MemStore>, Samples, f64, u64) {
    let config = config();
    let mut log = ShardedLog::new(
        config.clone(),
        ShardOptions {
            shards: SHARDS,
            mode: RouteMode::LineHash,
            salt: seed,
        },
    );
    let mut lat = Samples::default();
    let mut failed = 0;
    let start = Instant::now();
    for (i, part) in batches(&inputs.preload, PRELOAD_BATCH_BYTES)
        .into_iter()
        .enumerate()
    {
        let t = Instant::now();
        match trace.as_mut() {
            Some((tr, layers)) => traced_ingest(tr, i as u64, &config, part, layers, |p| {
                log.apply_prepared(None, p)
            }),
            None => {
                if !log
                    .ingest(part)
                    .is_ok_and(|r| r.raw_bytes == part.len() as u64)
                {
                    failed += 1;
                }
            }
        }
        lat.push(ms(t.elapsed()));
    }
    let preload_s = start.elapsed().as_secs_f64();
    for chunk in (0..inputs.pool.len()).collect::<Vec<_>>().chunks(MAX_BATCH) {
        let reqs: Vec<QueryRequest> = chunk
            .iter()
            .map(|&i| QueryRequest::new(inputs.pool.queries[i].clone()))
            .collect();
        match log.query_shared(&reqs) {
            Ok(batch) => {
                failed += chunk
                    .iter()
                    .zip(&batch.outcomes)
                    .filter(|(&i, o)| o.match_count() != inputs.expected(i, 0))
                    .count() as u64;
            }
            Err(_) => failed += chunk.len() as u64,
        }
    }
    (log, lat, preload_s, failed)
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Query(usize),
    Ingest(usize),
}

/// One open-loop arrival as the generator sent it.
struct Sent {
    kind: Kind,
    job: Option<JobId>,
    due: Instant,
    submitted: Instant,
    /// Ingest batches submitted before this arrival.
    ingested: usize,
    traced: bool,
}

/// What the collector observed for one open-loop query.
struct Done {
    query: usize,
    ingested: usize,
    traced: bool,
}

struct Setup {
    inputs: Inputs,
    service: Service,
    preload_lat: Samples,
    preload_s: f64,
    stored: f64,
    tokens_indexed: u64,
    index_bytes: u64,
    modeled_gbps: f64,
    failed: u64,
}

fn setup(args: &Args, trace: Option<(&mut Tracer, &mut Layers)>) -> Setup {
    let inputs = Inputs::new(args.seed, args.seconds, args.rate);
    let (log, preload_lat, preload_s, failed) = preload(&inputs, args.seed, trace);
    let page_bytes = log.config().device.page_bytes as f64;
    let shards = (0..log.shard_count()).map(|k| log.shard(k));
    let stored = shards
        .clone()
        .map(|s| s.device().page_count() as f64)
        .sum::<f64>()
        * page_bytes;
    let tokens_indexed = shards.clone().map(|s| s.index().tokens_indexed()).sum();
    let index_bytes = shards
        .clone()
        .map(|s| s.index().memory_footprint() as u64)
        .sum();
    let modeled_gbps = shards
        .map(|s| s.modeled_throughput().total_gbps)
        .sum::<f64>()
        / log.shard_count() as f64;
    Setup {
        stored: stored / inputs.preload.len() as f64,
        service: Service::spawn(log, service_config()),
        inputs,
        preload_lat,
        preload_s,
        tokens_indexed,
        index_bytes,
        modeled_gbps,
        failed,
    }
}

/// Submits one arrival; `None` when the service refused it.
fn submit(handle: &ServiceHandle, inputs: &Inputs, kind: Kind, arrival: u64) -> Option<JobId> {
    match kind {
        Kind::Query(i) => handle
            .submit_tagged(
                QueryRequest::new(inputs.pool.queries[i].clone()),
                Priority::Normal,
                Some(if arrival.is_multiple_of(2) {
                    "tenant-a"
                } else {
                    "tenant-b"
                }),
            )
            .ok(),
        Kind::Ingest(j) => handle.ingest(inputs.ingests[j].clone()).ok(),
    }
}

/// Checks one settled query job; returns its outcome's wall time.
fn check_query(
    out: Result<JobOutput, String>,
    expected: u64,
    report: &mut Report,
) -> Option<Duration> {
    match out {
        Ok(JobOutput::Query { outcome, .. }) => {
            report.check(
                !outcome.degraded.is_lossy(),
                outcome.match_count() != expected,
            );
            Some(outcome.wall_time)
        }
        _ => {
            report.check(false, false);
            None
        }
    }
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    let mut layers = Layers {
        threads: config().resolved_query_threads() as f64,
        ..Layers::default()
    };
    // Preload throughput and batch latency are taken over every set-up.
    let mut rates = Samples::default();
    let mut preload = Samples::default();
    let (mut attempted, mut failed) = (0, 0);
    let mut keep = |s: Setup| {
        rates.push(s.inputs.preload.len() as f64 / 1e6 / s.preload_s);
        for v in s.preload_lat.values() {
            preload.push(*v);
        }
        attempted += s.preload_lat.len() as u64 + s.inputs.pool.len() as u64;
        failed += s.failed;
        s
    };
    let (s, setup_times) = if args.trace {
        repeated_setup(1, || keep(setup(args, Some((&mut *tracer, &mut layers)))))
    } else {
        repeated_setup(SETUP_REPS, || keep(setup(args, None)))
    };
    report.put("setup_s", setup_times.median(), "s", setup_times.len());
    let Setup {
        inputs,
        service,
        stored,
        tokens_indexed,
        index_bytes,
        modeled_gbps,
        ..
    } = s;
    report.attempted += attempted;
    report.failed += failed;
    report.put("ingest_mb_s", rates.median(), "MB/s", rates.len());
    report.put("ingest_p50_ms", preload.median(), "ms", preload.len());
    report.put("stored_bytes_per_raw_byte", stored, "B/B", 1);

    let handle = service.handle();
    let stats = |tracer: &mut Tracer| {
        if args.trace {
            tracer.time("service.stats", None, 0, || handle.stats()).0
        } else {
            handle.stats()
        }
    };
    let stats_before = stats(tracer);
    // Open loop. In a traced run the first half of the arrivals is sent
    // untraced and the second half traced, so the difference is the
    // tracing overhead.
    let rate = args.rate;
    let (arrivals, closed_jobs) = submissions(args.seconds, rate);
    let traced_from = if args.trace { arrivals / 2 } else { arrivals };
    let (tx, rx) = mpsc::channel::<Sent>();
    let mut tr = tracer.fork(2);
    let mut svc_lat = Samples::default();
    let mut svc_traced = Samples::default();
    let mut ingest_lat = Samples::default();
    let mut queue_wait = Samples::default();
    let mut done: Vec<Done> = Vec::new();
    let mut ingested = 0usize;
    let (max_late_ms, gen_tracer) = std::thread::scope(|scope| {
        let gen_handle = handle.clone();
        let inputs = &inputs;
        let seed = args.seed;
        let generator = scope.spawn(move || {
            let mut order = Order::new((0..inputs.pool.len()).collect(), seed ^ 0x0be7);
            let start = Instant::now();
            let mut ingested = 0;
            let mut max_late = Duration::ZERO;
            for i in 0..arrivals {
                let due = start + Duration::from_secs_f64(i as f64 / rate);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                max_late = max_late.max(Instant::now().saturating_duration_since(due));
                let kind = if (i + 1) % INGEST_EVERY == 0 && ingested < inputs.ingests.len() {
                    Kind::Ingest(ingested)
                } else {
                    Kind::Query(order.next_item())
                };
                let traced = i >= traced_from;
                let submitted = Instant::now();
                let job = if traced {
                    let name = match kind {
                        Kind::Query(_) => "service.submit",
                        Kind::Ingest(_) => "service.ingest",
                    };
                    tr.time(name, None, i, || submit(&gen_handle, inputs, kind, i))
                        .0
                } else {
                    submit(&gen_handle, inputs, kind, i)
                };
                let sent = Sent {
                    kind,
                    job,
                    due,
                    submitted,
                    ingested,
                    traced,
                };
                if let Kind::Ingest(_) = kind {
                    ingested += 1;
                }
                if tx.send(sent).is_err() {
                    break;
                }
            }
            (ms(max_late), tr)
        });
        for (arrival, sent) in rx.iter().enumerate() {
            let Some(job) = sent.job else {
                report.check(false, false);
                continue;
            };
            let out = if sent.traced {
                tracer
                    .time("service.wait", None, arrival as u64, || handle.wait(job))
                    .0
            } else {
                handle.wait(job)
            };
            let now = Instant::now();
            let latency = ms(now - sent.due);
            match sent.kind {
                Kind::Query(i) => {
                    let expected = inputs.expected(i, sent.ingested);
                    if let Some(wall) = check_query(out, expected, &mut report) {
                        svc_lat.push(latency);
                        if sent.traced {
                            svc_traced.push(latency);
                        }
                        queue_wait.push(ms(now - sent.submitted) - ms(wall));
                        done.push(Done {
                            query: i,
                            ingested: sent.ingested,
                            traced: sent.traced,
                        });
                    }
                }
                Kind::Ingest(j) => {
                    ingested = j + 1;
                    let ok = matches!(out, Ok(JobOutput::Ingest(r))
                        if r.raw_bytes == inputs.ingests[j].len() as u64);
                    report.check(ok, false);
                    ingest_lat.push(latency);
                }
            }
        }
        generator.join().expect("open-loop generator panicked")
    });
    tracer.absorb(gen_tracer);

    // Closed phase: keep `max_batch` jobs outstanding, every 25th an ingest,
    // so ingests overlap running waves.
    let mut order = Order::new((0..inputs.pool.len()).collect(), args.seed ^ 0xc105);
    let mut outstanding: VecDeque<(Option<JobId>, Kind, usize)> = VecDeque::new();
    let mut finished: Vec<Instant> = Vec::new();
    let start = Instant::now();
    let mut arrival = arrivals;
    loop {
        while arrival < arrivals + closed_jobs && outstanding.len() < MAX_BATCH {
            let kind = if (arrival + 1) % INGEST_EVERY == 0 && ingested < inputs.ingests.len() {
                Kind::Ingest(ingested)
            } else {
                Kind::Query(order.next_item())
            };
            outstanding.push_back((submit(&handle, &inputs, kind, arrival), kind, ingested));
            if let Kind::Ingest(_) = kind {
                ingested += 1;
            }
            arrival += 1;
        }
        let Some((job, kind, before)) = outstanding.pop_front() else {
            break;
        };
        let Some(job) = job else {
            report.check(false, false);
            continue;
        };
        match kind {
            Kind::Query(i) => {
                let out = handle.wait(job);
                if check_query(out, inputs.expected(i, before), &mut report).is_some() {
                    finished.push(Instant::now());
                }
            }
            Kind::Ingest(j) => {
                let ok = matches!(handle.wait(job), Ok(JobOutput::Ingest(r))
                    if r.raw_bytes == inputs.ingests[j].len() as u64);
                report.check(ok, false);
            }
        }
    }
    let capacity = block_rates(start, &finished);
    let stats_after = stats(tracer);
    service.shutdown();

    let n = svc_lat.len();
    report.put("svc_p50_ms", svc_lat.median(), "ms", n);
    report.put("svc_p90_ms", svc_lat.percentile(90.0), "ms", n);
    report.put("svc_p95_ms", svc_lat.percentile(95.0), "ms", n);
    report.put(
        "svc_ingest_p50_ms",
        ingest_lat.median(),
        "ms",
        ingest_lat.len(),
    );
    report.put("svc_capacity_qps", capacity.median(), "1/s", finished.len());
    report.put(
        "svc_capacity_mb_s",
        capacity.median() * inputs.preload.len() as f64 / 1e6,
        "MB/s",
        finished.len(),
    );
    report.record.push(format!(
        "open_loop rate={rate}/s arrivals={arrivals} max_lateness_ms={max_late_ms:.3}"
    ));
    if max_late_ms > MAX_LATENESS_MS {
        report.invalid = Some(format!(
            "open-loop generator fell {max_late_ms:.1} ms behind its schedule"
        ));
    }

    if args.trace {
        let d = |f: fn(&mithrilog_service::ServiceStats) -> u64| f(&stats_after) - f(&stats_before);
        let waves = d(|s| s.waves).max(1);
        let ingests = ingest_lat.len() as u64;
        report.put(
            "service.queue_wait_ms_p50",
            queue_wait.median(),
            "ms",
            queue_wait.len(),
        );
        report.put(
            "service.queue_wait_ms_p95",
            queue_wait.percentile(95.0),
            "ms",
            queue_wait.len(),
        );
        report.put(
            "service.wave_size_mean",
            d(|s| s.completed).saturating_sub(ingests) as f64 / waves as f64,
            "queries",
            waves as usize,
        );
        report.put(
            "service.ingests_overlapped",
            d(|s| s.ingests_overlapped) as f64,
            "count",
            1,
        );
        report.put("service.rejected", d(|s| s.rejected) as f64, "count", 1);
        let passes = (d(|s| s.demanded_page_reads), d(|s| s.unique_pages_read));
        let hit_rate = d(|s| s.cache_hits) as f64 / passes.1.max(1) as f64;
        replay_on_replica(args, &inputs, &done, tracer, &mut layers);
        layers.put(&mut report, Some(passes), Some(hit_rate));
        let untraced: Samples = {
            let mut s = Samples::default();
            for (v, d) in svc_lat.values().iter().zip(&done) {
                if !d.traced {
                    s.push(*v);
                }
            }
            s
        };
        report.put(
            "trace.overhead_pct",
            100.0 * (svc_traced.median() / untraced.median().max(1e-9) - 1.0),
            "%",
            svc_traced.len(),
        );
        put_system(&mut report, tokens_indexed, index_bytes, modeled_gbps);
    }
    report
}

/// Completion rates of `CAPACITY_BLOCKS` consecutive equal blocks of the
/// closed phase's completions; their median is the capacity, so a
/// transient stall of the host moves one block, not the figure.
fn block_rates(start: Instant, finished: &[Instant]) -> Samples {
    let mut rates = Samples::default();
    let per = finished.len() / CAPACITY_BLOCKS;
    if per == 0 {
        return rates;
    }
    let mut from = start;
    for block in finished.chunks_exact(per).take(CAPACITY_BLOCKS) {
        let to = *block.last().expect("blocks are not empty");
        rates.push(block.len() as f64 / (to - from).as_secs_f64());
        from = to;
    }
    rates
}

/// Replays the first traced open-loop queries against a replica topology
/// that receives the same preload and the same ingests in submission order:
/// `ShardedLog::query_shared` (its self time over the members' is the shard
/// merge), each member's `query_shared`, and each member's stage replay.
fn replay_on_replica(
    args: &Args,
    inputs: &Inputs,
    done: &[Done],
    tracer: &mut Tracer,
    layers: &mut Layers,
) {
    let (mut replica, _, _, _) = preload(inputs, args.seed, None);
    let mut applied = 0;
    let mut maps: Vec<PageMap> = Vec::new();
    let mut texts: Vec<TextCache> = (0..SHARDS).map(|_| TextCache::default()).collect();
    for (k, d) in done
        .iter()
        .filter(|d| d.traced)
        .take(REPLAYED_QUERIES)
        .enumerate()
    {
        while applied < d.ingested {
            let prep =
                PreparedIngest::build(replica.config(), inputs.ingests[applied].as_slice().into());
            replica
                .apply_prepared(None, &prep)
                .expect("replica ingest of generated text");
            applied += 1;
            maps.clear();
        }
        if maps.is_empty() {
            maps = (0..replica.shard_count())
                .map(|s| PageMap::of(replica.shard(s)))
                .collect();
        }
        let q = inputs.pool.queries[d.query].clone();
        let req = QueryRequest::new(q.clone());
        let id = 2_000_000 + k as u64;
        let root = tracer.open("op", None, id);
        let (merged, call_ms) = tracer.time("shard.query_shared", Some(root.id), id, || {
            replica.query_shared(std::slice::from_ref(&req))
        });
        let merged = merged.expect("replica query");
        if merged.outcomes[0].match_count() != inputs.expected(d.query, d.ingested) {
            layers.replay_mismatches += 1;
        }
        let mut members = Vec::new();
        let mut member_ms = 0.0;
        for s in 0..replica.shard_count() {
            let (batch, ms) = tracer.time("core.query_shared", Some(root.id), id, || {
                replica
                    .shard_mut(s)
                    .query_shared(std::slice::from_ref(&req))
            });
            member_ms += ms;
            members.push(batch.expect("replica member query"));
        }
        layers.merge_ms += call_ms - member_ms;
        layers.call_ms += call_ms;
        let queries = [q];
        for (s, batch) in members.iter().enumerate() {
            layers.probe_demanded += batch.shared.probe_node_visits_demanded;
            layers.probe_physical += batch.shared.probe_node_visits_physical;
            let op = Op {
                request: id,
                root: Some(root.id),
                queries: &queries,
                outcomes: &batch.outcomes,
                flash_reads: batch.shared.unique_pages_read - batch.shared.cache_hits,
            };
            replay(
                tracer,
                replica.shard_mut(s),
                &maps[s],
                &mut texts[s],
                &op,
                layers,
            );
        }
        layers.ops += 1;
        tracer.close(root);
    }
}
