//! Parallel multi-pipeline execution engine (paper §5, Figure 7).
//!
//! The prototype instantiates N token-filter pipelines, each fed by its own
//! flash channel, and every query is one more consumer of that page stream.
//! This module is the software realization of that dataflow, as a single
//! scan kernel, [`scan_pages_fanout`]: it runs every query, and a solo query
//! is simply a wave of one. The kernel reads and decompresses each distinct
//! page of the wave's union plan once and fans the text out to every query
//! that planned it. Union pages are striped round-robin over a fixed-size
//! pool of scoped worker threads, one per modeled channel
//! (`SystemConfig::query_threads`) — union page *i* rides channel `i mod N`,
//! exactly how pages interleave across flash channels on the device.
//!
//! Each worker owns a complete pipeline replica: a private
//! [`SsdReader`] (shared-access reads with a thread-local cost ledger), a
//! thread-local LZAH codec, and the compiled filters (shared immutably —
//! filtering is `&self`). Workers never exchange state mid-scan.
//!
//! **Determinism invariant:** each query's result is byte-identical to a
//! sequential scan of its plan alone, for every worker count and whatever
//! else rides in the wave. Three properties guarantee it:
//!
//! 1. page outcomes (matched line ranges, skip decisions, retry counts) are
//!    pure per-page functions — no cross-page state exists in the scan;
//! 2. each query's results merge in its own plan order, so matched lines
//!    and `skipped_pages` keep exactly the sequential order;
//! 3. ledger counters are additive, so per-worker ledgers merged in any
//!    order sum to the sequential totals.
//!
//! **Zero-allocation steady state:** the union plan is a sorted page list
//! plus a flat table of the queries that planned each page, and every
//! (page, query) outcome has a preallocated [`Visit`] — all built once per
//! wave. Each [`Worker`] reuses its LZAH decoder workspace, one
//! [`HashFilter`] per hardware-engine query, and the matched-range vector
//! across the page loop. After warm-up, a page with no matches is scanned
//! without a single heap allocation; a page with k matches allocates only
//! its k output `String`s and the vector holding them.
//!
//! **Page cache:** when the system configures a [`PageCache`], the kernel
//! consults it before touching the device. A hit charges each consumer's
//! as-if-solo ledger exactly what a fresh read would have (pages_read +
//! bytes_read of the stored page) and records the physical saving as
//! `cache_hits`/`cache_bytes_saved` on the device ledger — so outcomes and
//! modeled times are byte-identical with and without the cache, like
//! `shared_reads`.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;
use std::thread;

use mithrilog_compress::{compress_paged, Lzah, LzahConfig, LzahScratch, PagedLog};
use mithrilog_filter::{FilterPipeline, HashFilter};
use mithrilog_query::Query;
use mithrilog_storage::{CostLedger, PageId, PageStore, SimSsd, SsdReader, StorageError};

use crate::cache::PageCache;
use crate::control::CancelToken;
use crate::outcome::ScanAttribution;

/// Whether a storage error is survivable by skipping the affected page:
/// corruption, exhausted transient retries, and quarantined pages lose one
/// page of data; anything else (out-of-range access, host I/O failure) is a
/// real bug or environment failure and must propagate.
pub(crate) fn page_is_skippable(e: &StorageError) -> bool {
    matches!(
        e,
        StorageError::Corrupt { .. }
            | StorageError::TransientRead { .. }
            | StorageError::Quarantined { .. }
    )
}

/// The filtering engine a scan runs with: the compiled hardware pipeline
/// when the query fit the filter's resources, or the software evaluator
/// otherwise. Shared immutably across workers; each evaluation builds its
/// own per-line filter state, so `&self` access is enough.
pub(crate) enum Engine<'q> {
    /// Offloaded path: the cuckoo-hash filter model.
    Hardware(&'q FilterPipeline),
    /// Fallback path: reference software evaluation of the query AST.
    Software(&'q Query),
}

/// How pages map to cache generations for one scan.
///
/// The segmented store gives every segment (sealed or open) its own
/// generation, so invalidation is per-segment: retention drops or
/// corruption drills retire only the affected segment's cache entries
/// while the rest of the store stays warm. A scan carries either a single
/// uniform generation (tests, simple stores) or a borrowed per-page map
/// (the system's live `page → generation` view).
#[derive(Clone, Copy, Debug)]
pub(crate) enum GenMap<'c> {
    /// Every page shares one generation. Production scans always carry the
    /// per-page map; the uniform form keeps the scan kernel testable
    /// without a system.
    #[cfg(test)]
    Uniform(u64),
    /// Per-page generations; pages absent from the map bypass the cache.
    PerPage(&'c HashMap<u64, u64>),
}

impl GenMap<'_> {
    fn of(&self, page: u64) -> Option<u64> {
        match self {
            #[cfg(test)]
            GenMap::Uniform(g) => Some(*g),
            GenMap::PerPage(m) => m.get(&page).copied(),
        }
    }
}

/// The page cache view a scan runs against: the cache plus the generation
/// map resolving each page's cache key. `None` means caching is disabled.
pub(crate) type CacheView<'c> = Option<(&'c PageCache, GenMap<'c>)>;

/// Consults the cache for `page` under its current generation, if any.
fn cache_lookup(cache: CacheView<'_>, page: u64) -> Option<crate::cache::CachedPage> {
    let (cache, gens) = cache?;
    cache.get(gens.of(page)?, page)
}

/// Stores one decompressed page under its current generation, if any.
fn cache_store(cache: CacheView<'_>, page: u64, text: &[u8], raw_len: u64) {
    if let Some((cache, gens)) = cache {
        if let Some(generation) = gens.of(page) {
            cache.insert(generation, page, Arc::new(text.to_vec()), raw_len);
        }
    }
}

/// The filter half of a page scan: run `engine` over decompressed `text`,
/// filling `ranges` with the matched line ranges (cleared first) and
/// returning the number of lines examined. Pure in `text`, so the same page
/// fanned out to N queries (or served from the cache) produces exactly what
/// N solo scans would have.
fn filter_page_into<'q>(
    engine: &Engine<'q>,
    text: &[u8],
    filter: &mut Option<HashFilter<'q>>,
    ranges: &mut Vec<Range<usize>>,
) -> u64 {
    match engine {
        Engine::Hardware(pipeline) => {
            let filter = filter
                .as_mut()
                .expect("hardware scratch carries a hash filter");
            pipeline
                .filter_text_with_stats_into(text, filter, ranges)
                .lines_in
        }
        Engine::Software(query) => {
            ranges.clear();
            let mut lines_scanned = 0u64;
            let mut offset = 0usize;
            for line in text.split(|b| *b == b'\n') {
                let start = offset;
                offset += line.len() + 1;
                if line.is_empty() {
                    continue;
                }
                lines_scanned += 1;
                // Log lines are overwhelmingly valid UTF-8: evaluate
                // borrowed. The lossy copy is reserved for invalid lines,
                // where replacement characters cannot introduce matches the
                // byte view lacks (query tokens are valid UTF-8).
                let matched = match std::str::from_utf8(line) {
                    Ok(s) => query.matches_line(s),
                    Err(_) => query.matches_line(&String::from_utf8_lossy(line)),
                };
                if matched {
                    ranges.push(start..start + line.len());
                }
            }
            lines_scanned
        }
    }
}

/// Per-query result of a scan ([`scan_pages_fanout`]).
#[derive(Default)]
pub(crate) struct FanoutQueryScan {
    /// Matching lines in this query's plan order, materialized once.
    pub lines: Vec<String>,
    /// Source page id of each matching line, parallel to `lines`. The
    /// attribution lets a multi-device merge reconstruct global storage
    /// order without re-scanning.
    pub line_pages: Vec<u64>,
    /// Skipped page ids, in this query's plan order.
    pub skipped_pages: Vec<u64>,
    /// Lines examined across this query's scanned pages.
    pub lines_scanned: u64,
    /// Decompressed bytes this query's filter consumed.
    pub bytes_filtered: u64,
    /// Pages that decompressed and were filtered for this query.
    pub pages_filtered: u64,
    /// As-if-solo charges: every page this query reached is charged in
    /// full, exactly as a solo scan would have, even when the physical read
    /// was shared or served from the cache. Those savings live on the
    /// device ledger instead.
    pub ledger: CostLedger,
    /// How this query's plan overlapped the rest of the wave: planned,
    /// exclusive and shared pages, and the even-split attributed page cost
    /// (the pruning counts are the planner's to fill in).
    pub share: ScanAttribution,
}

/// Merged result of a scan.
pub(crate) struct FanoutResult {
    /// One scan result per input query, in input order. Partial, and to be
    /// discarded, when `error` is set.
    pub queries: Vec<FanoutQueryScan>,
    /// Distinct pages in the union of the plans.
    pub union_pages: u64,
    /// Physical device charges: each union page read once, plus
    /// `shared_reads` counting every duplicate read the fan-out avoided and
    /// `cache_hits` every read the page cache served. Fold into the device
    /// with [`SimSsd::merge_ledger`].
    pub device_ledger: CostLedger,
    /// First non-survivable storage error, by union plan position. The
    /// device ledger above still accounts every read issued before workers
    /// stopped.
    pub error: Option<StorageError>,
}

/// One query's contribution to a scan: its filtering engine, its page
/// plan, and an optional cancellation token. A query whose token trips
/// mid-wave drops out of every subsequent union slot — it is neither
/// filtered nor charged for pages it never reached, and a slot every
/// planner has abandoned is not read at all.
pub(crate) struct FanQuery<'q> {
    /// The filtering engine this query scans with.
    pub engine: Engine<'q>,
    /// The query's page plan, in plan order, without duplicates.
    pub pages: &'q [PageId],
    /// Cooperative cancellation, checked at each union-slot boundary.
    pub cancel: Option<CancelToken>,
}

impl FanQuery<'_> {
    fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }
}

/// The union of a wave's plans: every distinct planned page once, ascending
/// by page id, with the queries that planned it laid out flat — row `s`
/// lists the query indexes of `pages[s]`, ascending, in
/// `members[offsets[s]..offsets[s + 1]]`. Built with a fixed number of
/// allocations per wave, whatever the page count.
struct UnionPlan {
    pages: Vec<PageId>,
    offsets: Vec<usize>,
    members: Vec<usize>,
    /// The union slot of every plan position, flattened in query order.
    slot_of: Vec<usize>,
}

impl UnionPlan {
    fn build(queries: &[FanQuery<'_>]) -> Self {
        let mut pages: Vec<PageId> = queries.iter().flat_map(|fq| fq.pages).copied().collect();
        pages.sort_unstable();
        pages.dedup();
        let slot_of: Vec<usize> = queries
            .iter()
            .flat_map(|fq| fq.pages)
            .map(|p| {
                pages
                    .binary_search(p)
                    .expect("a planned page is in the union")
            })
            .collect();
        let mut offsets = vec![0usize; pages.len() + 1];
        for &slot in &slot_of {
            offsets[slot + 1] += 1;
        }
        for s in 0..pages.len() {
            offsets[s + 1] += offsets[s];
        }
        // Filling in query order keeps every row ascending.
        let mut next = offsets.clone();
        let mut members = vec![0usize; slot_of.len()];
        let owners = queries
            .iter()
            .enumerate()
            .flat_map(|(q, fq)| std::iter::repeat_n(q, fq.pages.len()));
        for (&slot, q) in slot_of.iter().zip(owners) {
            members[next[slot]] = q;
            next[slot] += 1;
        }
        UnionPlan {
            pages,
            offsets,
            members,
            slot_of,
        }
    }

    fn row(&self, slot: usize) -> Range<usize> {
        self.offsets[slot]..self.offsets[slot + 1]
    }
}

/// What became of one query at one union page.
#[derive(Default, Clone, Copy, PartialEq, Eq)]
enum VisitState {
    /// Never reached: the query was cancelled before the page's slot came
    /// up, or a hard error stopped the worker first. Nothing is charged.
    #[default]
    Unreached,
    /// The page was survivably lost (quarantined, corrupt, unreadable).
    Skipped,
    /// The page decompressed and this query's filter ran over it.
    Scanned,
}

/// One query's share of one union page, written by the worker that owns
/// the page and moved out in that query's plan order at assembly.
#[derive(Default)]
struct Visit {
    state: VisitState,
    /// The exact device cost of loading the page (read, retries, bytes):
    /// the charge a solo scan of this page would have paid.
    cost: CostLedger,
    /// Decompressed length of the page.
    bytes: u64,
    lines_scanned: u64,
    /// Matching lines of this page, in line order, materialized inside the
    /// page loop so page text never outlives it.
    lines: Vec<String>,
}

/// One worker's pipeline replica: a private device reader and codec, and
/// the reusable scratch that keeps its page loop allocation-free.
struct Worker<'a, 'q, S: PageStore> {
    reader: SsdReader<'a, S>,
    codec: Lzah,
    lzah: LzahScratch,
    /// One hash filter per hardware-engine query, by query index.
    filters: Vec<Option<HashFilter<'q>>>,
    ranges: Vec<Range<usize>>,
    /// Physical savings (`shared_reads`, `cache_hits`,
    /// `cache_bytes_saved`), folded into the device ledger at join.
    saved: CostLedger,
}

impl<'a, 'q, S: PageStore> Worker<'a, 'q, S> {
    fn new(ssd: &'a SimSsd<S>, lzah: LzahConfig, queries: &[FanQuery<'q>]) -> Self {
        Worker {
            reader: ssd.reader(),
            codec: Lzah::new(lzah),
            lzah: LzahScratch::new(),
            filters: queries
                .iter()
                .map(|fq| match &fq.engine {
                    Engine::Hardware(pipeline) => Some(HashFilter::new(pipeline.compiled())),
                    Engine::Software(_) => None,
                })
                .collect(),
            ranges: Vec::new(),
            saved: CostLedger::default(),
        }
    }

    /// One union slot: (cache lookup →) read → decompress once, then filter
    /// and materialize for every query in `members` still live, writing each
    /// one's [`Visit`] into `row`. Pure in the page id given the device
    /// contents — the cache serves only text a fresh read of the same
    /// generation would produce — so striping cannot change results.
    fn scan_slot(
        &mut self,
        queries: &[FanQuery<'q>],
        cache: CacheView<'_>,
        page: PageId,
        members: &[usize],
        row: &mut [Visit],
    ) -> Result<(), StorageError> {
        // Liveness is decided once per slot: a query cancelled by now drops
        // out of it, and a slot every planner abandoned is not read at all.
        // Live queries start `Skipped`, the verdict if the page is lost.
        let mut live = 0u64;
        for (visit, &q) in row.iter_mut().zip(members) {
            if !queries[q].is_cancelled() {
                visit.state = VisitState::Skipped;
                live += 1;
            }
        }
        if live == 0 {
            return Ok(());
        }
        // Quarantine is checked before the cache so cached and uncached runs
        // agree: an uncached read would fail up front with zero charges.
        if !self.reader.is_quarantined(page) {
            let before = *self.reader.ledger();
            let cached = cache_lookup(cache, page.0);
            let text = match &cached {
                Some(hit) => {
                    self.saved.cache_hits += 1;
                    self.saved.cache_bytes_saved += hit.raw_len;
                    Some(hit.text.as_slice())
                }
                None => match self.reader.read(page) {
                    // Corruption the checksum missed still gets caught by
                    // the decoder; one bad page is not worth the wave.
                    Ok(raw) => match self.codec.decompress_into(&raw, &mut self.lzah) {
                        Ok(text) => {
                            cache_store(cache, page.0, text, raw.len() as u64);
                            Some(text)
                        }
                        Err(_) => None,
                    },
                    Err(e) if page_is_skippable(&e) => None,
                    Err(e) => return Err(e),
                },
            };
            // A cache hit is charged as the full read it replaced.
            let mut cost = self.reader.ledger().since(&before);
            if let Some(hit) = &cached {
                cost.pages_read += 1;
                cost.bytes_read += hit.raw_len;
            }
            for (visit, &q) in row.iter_mut().zip(members) {
                if visit.state == VisitState::Unreached {
                    continue;
                }
                visit.cost = cost;
                if let Some(text) = text {
                    visit.lines_scanned = filter_page_into(
                        &queries[q].engine,
                        text,
                        &mut self.filters[q],
                        &mut self.ranges,
                    );
                    visit.lines = self
                        .ranges
                        .iter()
                        .map(|r| String::from_utf8_lossy(&text[r.clone()]).into_owned())
                        .collect();
                    visit.bytes = text.len() as u64;
                    visit.state = VisitState::Scanned;
                }
            }
        }
        // Every page fanned to k live queries saved k-1 physical reads.
        self.saved.shared_reads += live - 1;
        Ok(())
    }

    /// The worker's physical ledger: device reads plus the savings.
    fn into_ledger(self) -> CostLedger {
        let mut ledger = self.reader.into_ledger();
        ledger.merge(&self.saved);
        ledger
    }
}

/// Scans the union of the queries' page plans, reading and decompressing
/// each distinct page once and fanning its text out to every query that
/// planned it (the paper's single flash stream feeding multiple pattern
/// matchers). Union pages are striped across `threads` workers; `threads
/// == 1` runs the identical per-page code inline, without spawning.
///
/// **Determinism:** each query's output is byte-identical to scanning its
/// plan alone — page loading and filtering are pure per-page functions, and
/// per-query results merge in that query's plan order. Only the physical
/// device ledger changes with sharing or cache hits. A cancelled query
/// stops within one union slot per worker and is charged only for pages it
/// actually reached; live co-batched queries are unaffected, because a
/// slot's cost and filter output never depend on how many queries fanned
/// from it.
pub(crate) fn scan_pages_fanout<'q, S: PageStore>(
    ssd: &SimSsd<S>,
    lzah: LzahConfig,
    queries: &[FanQuery<'q>],
    threads: usize,
    cache: CacheView<'_>,
) -> FanoutResult {
    let plan = UnionPlan::build(queries);
    let union_len = plan.pages.len();
    let mut visits: Vec<Visit> = Vec::new();
    visits.resize_with(plan.members.len(), Visit::default);

    // Hand worker `w` the rows of union slots w, w+N, … outright, so each
    // writes its visits with no sharing and no per-page bookkeeping.
    let workers = threads.max(1).min(union_len.max(1));
    let mut lanes: Vec<Vec<(usize, &mut [Visit])>> = (0..workers)
        .map(|_| Vec::with_capacity(union_len.div_ceil(workers)))
        .collect();
    let mut rest: &mut [Visit] = &mut visits;
    for slot in 0..union_len {
        let (row, tail) = std::mem::take(&mut rest).split_at_mut(plan.row(slot).len());
        lanes[slot % workers].push((slot, row));
        rest = tail;
    }
    let run_lane = |lane: Vec<(usize, &mut [Visit])>| {
        let mut worker = Worker::new(ssd, lzah, queries);
        let mut error = None;
        for (slot, row) in lane {
            let members = &plan.members[plan.row(slot)];
            if let Err(e) = worker.scan_slot(queries, cache, plan.pages[slot], members, row) {
                error = Some((slot, e));
                break;
            }
        }
        (worker.into_ledger(), error)
    };
    let outputs: Vec<(CostLedger, Option<(usize, StorageError)>)> = if workers <= 1 {
        lanes.into_iter().map(run_lane).collect()
    } else {
        thread::scope(|scope| {
            let run_lane = &run_lane;
            let handles: Vec<_> = lanes
                .into_iter()
                .map(|lane| scope.spawn(move || run_lane(lane)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("scan worker panicked"))
                .collect()
        })
    };
    let mut device_ledger = CostLedger::default();
    let mut error: Option<(usize, StorageError)> = None;
    for (ledger, err) in outputs {
        device_ledger.merge(&ledger);
        // The earliest union position wins, so the propagated error does
        // not depend on worker interleaving.
        if let Some(err) = err {
            if error.as_ref().is_none_or(|(slot, _)| err.0 < *slot) {
                error = Some(err);
            }
        }
    }

    // Per-query assembly, each in its own plan order: lines were
    // materialized inside the page loop, so assembly only moves them.
    let mut positions = plan.slot_of.iter();
    let results = queries
        .iter()
        .enumerate()
        .map(|(q, fq)| {
            let mut scan = FanoutQueryScan::default();
            scan.share.planned_pages = fq.pages.len() as u64;
            for (page, &slot) in fq.pages.iter().zip(positions.by_ref()) {
                let row = plan.row(slot);
                let sharers = row.len();
                if sharers <= 1 {
                    scan.share.exclusive_pages += 1;
                    scan.share.attributed_page_cost += 1.0;
                } else {
                    scan.share.shared_pages += 1;
                    scan.share.attributed_page_cost += 1.0 / sharers as f64;
                }
                let at = plan.members[row.clone()]
                    .binary_search(&q)
                    .expect("a query is a member of its own pages' rows");
                let visit = &mut visits[row.start + at];
                match visit.state {
                    VisitState::Unreached => continue,
                    VisitState::Skipped => scan.skipped_pages.push(page.0),
                    VisitState::Scanned => {
                        scan.lines_scanned += visit.lines_scanned;
                        scan.bytes_filtered += visit.bytes;
                        scan.pages_filtered += 1;
                        let total = scan.line_pages.len() + visit.lines.len();
                        scan.line_pages.resize(total, page.0);
                        scan.lines.append(&mut visit.lines);
                    }
                }
                scan.ledger.merge(&visit.cost);
            }
            scan
        })
        .collect();

    FanoutResult {
        queries: results,
        union_pages: union_len as u64,
        device_ledger,
        error: error.map(|(_, e)| e),
    }
}

/// Byte target for one ingest compression shard. Shard boundaries are a
/// deterministic function of the input alone — never of the worker count —
/// so the device page layout is identical no matter how many threads
/// compress it (seeded fault plans and the determinism tests rely on that).
/// One shard spans hundreds of 4 KB pages, amortizing the per-shard codec
/// reset to noise; inputs below the target compress exactly as before the
/// pool existed.
const COMPRESS_SHARD_BYTES: usize = 1 << 20;

/// Compresses `text` into page-sized LZAH frames using up to `threads`
/// workers: the input splits at line boundaries into fixed-size shards,
/// each shard compresses independently (pages already reset the codec's
/// hash table, so sharding costs no compression ratio), and the shards
/// return in input order. Concatenating every shard's pages yields frames
/// whose `raw_len`s tile `text` exactly, like a single `compress_paged`.
pub(crate) fn compress_paged_striped(
    text: &[u8],
    config: LzahConfig,
    page_bytes: usize,
    threads: usize,
) -> Vec<PagedLog> {
    let shards = shard_at_lines(text, COMPRESS_SHARD_BYTES);
    let workers = threads.max(1).min(shards.len().max(1));
    if workers <= 1 {
        return shards
            .into_iter()
            .map(|s| compress_paged(s, config, page_bytes))
            .collect();
    }
    let mut slots: Vec<Option<PagedLog>> = Vec::with_capacity(shards.len());
    slots.resize_with(shards.len(), || None);
    let compressed: Vec<(usize, PagedLog)> = thread::scope(|scope| {
        let shards = &shards;
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    (w..shards.len())
                        .step_by(workers)
                        .map(|i| (i, compress_paged(shards[i], config, page_bytes)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("compression worker panicked"))
            .collect()
    });
    for (slot, paged) in compressed {
        slots[slot] = Some(paged);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every shard compressed"))
        .collect()
}

/// Splits `text` into chunks of roughly `target` bytes, never inside a
/// line. A single line longer than `target` stays whole in its shard.
fn shard_at_lines(text: &[u8], target: usize) -> Vec<&[u8]> {
    let mut shards = Vec::new();
    let mut start = 0usize;
    while start < text.len() {
        let mut end = (start + target).min(text.len());
        while end < text.len() && text[end - 1] != b'\n' {
            end += 1;
        }
        shards.push(&text[start..end]);
        start = end;
    }
    if shards.is_empty() {
        shards.push(text);
    }
    shards
}

#[cfg(test)]
mod tests {
    use super::*;
    use mithrilog_compress::Codec;
    use mithrilog_storage::{DevicePerfModel, MemStore};

    fn ssd_with_pages(texts: &[&str]) -> (SimSsd<MemStore>, Vec<PageId>) {
        let config = LzahConfig::default();
        let mut ssd = SimSsd::new(MemStore::new(4096), DevicePerfModel::bluedbm_prototype());
        let mut pages = Vec::new();
        for t in texts {
            let paged = compress_paged(t.as_bytes(), config, 4096);
            for frame in paged.pages() {
                pages.push(ssd.append(frame.data()).unwrap());
            }
        }
        (ssd, pages)
    }

    /// What a scan of one plan must produce, computed the naive way:
    /// sequential device reads, whole-page decompression, and the query AST
    /// evaluated line by line — none of the kernel's scratch, striping,
    /// fan-out or cache machinery.
    #[derive(Default)]
    struct Reference {
        lines: Vec<String>,
        lines_scanned: u64,
        bytes_filtered: u64,
        skipped_pages: Vec<u64>,
        ledger: CostLedger,
    }

    fn reference(ssd: &SimSsd<MemStore>, query: &Query, pages: &[PageId]) -> Reference {
        let mut reader = ssd.reader();
        let mut out = Reference::default();
        for &page in pages {
            let text = match reader.read(page) {
                Ok(raw) => Lzah::default().decompress(&raw).ok(),
                Err(e) => {
                    assert!(page_is_skippable(&e), "{e}");
                    None
                }
            };
            let Some(text) = text else {
                out.skipped_pages.push(page.0);
                continue;
            };
            out.bytes_filtered += text.len() as u64;
            for line in text.split(|b| *b == b'\n').filter(|l| !l.is_empty()) {
                out.lines_scanned += 1;
                let line = String::from_utf8_lossy(line);
                if query.matches_line(&line) {
                    out.lines.push(line.into_owned());
                }
            }
        }
        out.ledger = reader.into_ledger();
        out
    }

    fn assert_matches(got: &FanoutQueryScan, want: &Reference, ctx: &str) {
        assert_eq!(got.lines, want.lines, "{ctx}");
        assert_eq!(got.lines_scanned, want.lines_scanned, "{ctx}");
        assert_eq!(got.bytes_filtered, want.bytes_filtered, "{ctx}");
        assert_eq!(got.skipped_pages, want.skipped_pages, "{ctx}");
        assert_eq!(got.ledger, want.ledger, "{ctx}: as-if-solo ledger");
    }

    /// A wave of one through the kernel: the query's scan plus the device
    /// ledger.
    fn solo(
        ssd: &SimSsd<MemStore>,
        engine: Engine<'_>,
        pages: &[PageId],
        threads: usize,
        cache: CacheView<'_>,
        cancel: Option<CancelToken>,
    ) -> (FanoutQueryScan, CostLedger) {
        let query = FanQuery {
            engine,
            pages,
            cancel,
        };
        let mut fan = scan_pages_fanout(ssd, LzahConfig::default(), &[query], threads, cache);
        assert!(fan.error.is_none());
        (fan.queries.remove(0), fan.device_ledger)
    }

    #[test]
    fn parallel_scan_matches_sequential_exactly() {
        let texts: Vec<String> = (0..12)
            .map(|i| format!("alpha event {i}\nbeta event {i}\ngamma noise {i}\n"))
            .collect();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let (ssd, pages) = ssd_with_pages(&refs);
        let query = mithrilog_query::parse("event AND NOT beta").unwrap();
        let pipeline = FilterPipeline::compile(&query).unwrap();
        let want = reference(&ssd, &query, &pages);
        for threads in [1, 2, 3, 4, 8] {
            let (got, _) = solo(
                &ssd,
                Engine::Hardware(&pipeline),
                &pages,
                threads,
                None,
                None,
            );
            assert_matches(&got, &want, &format!("{threads} threads"));
        }
        assert_eq!(want.lines.len(), 12);
        assert!(want.lines[0].contains("alpha event 0"));
    }

    #[test]
    fn fanout_matches_solo_scans_and_dedupes_device_reads() {
        let texts: Vec<String> = (0..10)
            .map(|i| format!("alpha event {i}\nbeta event {i}\ngamma noise {i}\n"))
            .collect();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let (ssd, pages) = ssd_with_pages(&refs);
        let qa = mithrilog_query::parse("alpha").unwrap();
        let qb = mithrilog_query::parse("event AND NOT beta").unwrap();
        let pa = FilterPipeline::compile(&qa).unwrap();
        let pb = FilterPipeline::compile(&qb).unwrap();
        // Overlapping plans: query A wants pages [0..8), B wants [4..10).
        let plan_a = &pages[..8];
        let plan_b = &pages[4..];
        let lzah = LzahConfig::default();

        let solo_a = reference(&ssd, &qa, plan_a);
        let solo_b = reference(&ssd, &qb, plan_b);
        for threads in [1, 3, 8] {
            let fan = scan_pages_fanout(
                &ssd,
                lzah,
                &[
                    FanQuery {
                        engine: Engine::Hardware(&pa),
                        pages: plan_a,
                        cancel: None,
                    },
                    FanQuery {
                        engine: Engine::Hardware(&pb),
                        pages: plan_b,
                        cancel: None,
                    },
                ],
                threads,
                None,
            );
            assert!(fan.error.is_none());
            for (got, want) in fan.queries.iter().zip([&solo_a, &solo_b]) {
                assert_matches(got, want, &format!("{threads} threads"));
            }
            // Physically: 10 distinct pages read once; the 4 overlapping
            // pages each saved one duplicate read.
            assert_eq!(fan.union_pages, 10);
            assert_eq!(fan.device_ledger.pages_read, 10);
            assert_eq!(fan.device_ledger.shared_reads, 4);
            assert_eq!(fan.device_ledger.demanded_reads(), 14);
            assert!(
                fan.device_ledger.pages_read < solo_a.ledger.pages_read + solo_b.ledger.pages_read
            );
            // Attribution: A owns 4 pages outright and halves 4 shared ones.
            let share = &fan.queries[0].share;
            assert_eq!((share.exclusive_pages, share.shared_pages), (4, 4));
            assert_eq!(share.attributed_page_cost, 6.0);
        }
    }

    #[test]
    fn software_engine_agrees_with_hardware_engine() {
        let texts: Vec<String> = (0..6)
            .map(|i| format!("RAS KERNEL INFO ok {i}\nRAS KERNEL FATAL bad {i}\n"))
            .collect();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let (ssd, pages) = ssd_with_pages(&refs);
        let query = mithrilog_query::parse("FATAL").unwrap();
        let pipeline = FilterPipeline::compile(&query).unwrap();
        let want = reference(&ssd, &query, &pages);
        let (hw, _) = solo(&ssd, Engine::Hardware(&pipeline), &pages, 3, None, None);
        let (sw, _) = solo(&ssd, Engine::Software(&query), &pages, 3, None, None);
        assert_matches(&hw, &want, "hardware");
        assert_matches(&sw, &want, "software");
    }

    #[test]
    fn engines_agree_on_invalid_utf8_lines() {
        // Lines with invalid UTF-8 bytes around valid tokens: the software
        // engine's borrowed fast path must fall back to the lossy copy and
        // agree with the hardware engine byte-for-byte.
        let mut text = Vec::new();
        text.extend_from_slice(b"RAS KERNEL FATAL broken \xff\xfe sensor\n");
        text.extend_from_slice(b"RAS KERNEL INFO fine \xf0\x28\x8c\x28 reading\n");
        text.extend_from_slice(b"RAS KERNEL FATAL clean line\n");
        let config = LzahConfig::default();
        let mut ssd = SimSsd::new(MemStore::new(4096), DevicePerfModel::bluedbm_prototype());
        let mut pages = Vec::new();
        for frame in compress_paged(&text, config, 4096).pages() {
            pages.push(ssd.append(frame.data()).unwrap());
        }
        let query = mithrilog_query::parse("FATAL").unwrap();
        let pipeline = FilterPipeline::compile(&query).unwrap();
        let want = reference(&ssd, &query, &pages);
        let (hw, _) = solo(&ssd, Engine::Hardware(&pipeline), &pages, 1, None, None);
        let (sw, _) = solo(&ssd, Engine::Software(&query), &pages, 1, None, None);
        assert_matches(&hw, &want, "hardware");
        assert_matches(&sw, &want, "software");
        assert_eq!(sw.lines.len(), 2);
        assert!(sw.lines[0].contains('\u{FFFD}'), "lossy replacement kept");
    }

    #[test]
    fn cache_hits_leave_results_and_solo_ledgers_identical() {
        let texts: Vec<String> = (0..8)
            .map(|i| format!("alpha event {i}\nbeta event {i}\n"))
            .collect();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let (ssd, pages) = ssd_with_pages(&refs);
        let query = mithrilog_query::parse("alpha").unwrap();
        let pipeline = FilterPipeline::compile(&query).unwrap();
        let engine = || Engine::Hardware(&pipeline);
        let cold = reference(&ssd, &query, &pages);

        let cache = PageCache::new(1 << 20);
        let view: CacheView<'_> = Some((&cache, GenMap::Uniform(7)));
        let (warm_up, warm_up_device) = solo(&ssd, engine(), &pages, 3, view, None);
        assert_matches(&warm_up, &cold, "cold cache: identical run");
        assert_eq!(warm_up_device.cache_hits, 0);

        let (warm, device) = solo(&ssd, engine(), &pages, 3, view, None);
        // As-if-solo results and ledger are byte-identical; the physical
        // ledger shows every read served from the cache instead of the
        // device.
        assert_matches(&warm, &cold, "warm cache");
        assert_eq!(device.pages_read, 0);
        assert_eq!(device.cache_hits, pages.len() as u64);
        assert_eq!(device.cache_bytes_saved, cold.ledger.bytes_read);
        assert_eq!(device.demanded_reads(), cold.ledger.pages_read);

        // A different generation never sees the cached text.
        let stale: CacheView<'_> = Some((&cache, GenMap::Uniform(8)));
        let (_, fresh) = solo(&ssd, engine(), &pages, 3, stale, None);
        assert_eq!(fresh.cache_hits, 0);
        assert_eq!(fresh.pages_read, cold.ledger.pages_read);
    }

    #[test]
    fn fanout_cache_hits_preserve_solo_accounting() {
        let texts: Vec<String> = (0..10)
            .map(|i| format!("alpha event {i}\nbeta event {i}\n"))
            .collect();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let (ssd, pages) = ssd_with_pages(&refs);
        let qa = mithrilog_query::parse("alpha").unwrap();
        let qb = mithrilog_query::parse("beta").unwrap();
        let pa = FilterPipeline::compile(&qa).unwrap();
        let pb = FilterPipeline::compile(&qb).unwrap();
        let lzah = LzahConfig::default();
        let queries = [
            FanQuery {
                engine: Engine::Hardware(&pa),
                pages: &pages[..8],
                cancel: None,
            },
            FanQuery {
                engine: Engine::Hardware(&pb),
                pages: &pages[4..],
                cancel: None,
            },
        ];
        let cold = scan_pages_fanout(&ssd, lzah, &queries, 3, None);

        let cache = PageCache::new(1 << 20);
        let view: CacheView<'_> = Some((&cache, GenMap::Uniform(1)));
        let warm_up = scan_pages_fanout(&ssd, lzah, &queries, 3, view);
        let warm = scan_pages_fanout(&ssd, lzah, &queries, 3, view);
        for run in [&warm_up, &warm] {
            for (got, want) in run.queries.iter().zip(&cold.queries) {
                assert_eq!(got.lines, want.lines);
                assert_eq!(got.ledger, want.ledger, "as-if-solo must not move");
            }
        }
        // Fully warm: zero physical reads, one hit per union page, and the
        // same demanded total (10 union + 4 overlap) as the cold run.
        assert_eq!(warm.device_ledger.pages_read, 0);
        assert_eq!(warm.device_ledger.cache_hits, 10);
        assert_eq!(warm.device_ledger.shared_reads, 4);
        assert_eq!(warm.device_ledger.demanded_reads(), 14);
        assert_eq!(cold.device_ledger.demanded_reads(), 14);
    }

    #[test]
    fn pre_cancelled_scan_visits_no_pages() {
        let texts: Vec<String> = (0..6).map(|i| format!("alpha event {i}\n")).collect();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let (ssd, pages) = ssd_with_pages(&refs);
        let query = mithrilog_query::parse("alpha").unwrap();
        let pipeline = FilterPipeline::compile(&query).unwrap();
        let token = CancelToken::new();
        token.cancel();
        for threads in [1, 4] {
            let engine = Engine::Hardware(&pipeline);
            let (out, device) = solo(&ssd, engine, &pages, threads, None, Some(token.clone()));
            assert!(out.lines.is_empty(), "{threads} threads");
            assert_eq!(out.pages_filtered, 0);
            assert!(out.skipped_pages.is_empty());
            assert_eq!(out.ledger, CostLedger::default());
            assert_eq!(device, CostLedger::default(), "no read was issued");
        }
    }

    #[test]
    fn quarantined_pages_skip_at_zero_cost_even_with_a_warm_cache() {
        let texts: Vec<String> = (0..4).map(|i| format!("alpha event {i}\n")).collect();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let (mut ssd, pages) = ssd_with_pages(&refs);
        let query = mithrilog_query::parse("alpha").unwrap();
        let pipeline = FilterPipeline::compile(&query).unwrap();

        // Warm the cache with every page, then quarantine one of them.
        let cache = PageCache::new(1 << 20);
        let view: CacheView<'_> = Some((&cache, GenMap::Uniform(1)));
        solo(&ssd, Engine::Hardware(&pipeline), &pages, 1, view, None);
        let victim = pages[1];
        ssd.quarantine_page(victim.0);

        // Cached and uncached runs agree with the reference: the
        // quarantined page is skipped with zero charges in both, even
        // though its text is still cached.
        let want = reference(&ssd, &query, &pages);
        assert_eq!(want.skipped_pages, vec![victim.0]);
        assert_eq!(want.ledger.pages_read, pages.len() as u64 - 1);
        for cache in [view, None] {
            let (got, _) = solo(&ssd, Engine::Hardware(&pipeline), &pages, 1, cache, None);
            assert_matches(&got, &want, &format!("cache {}", cache.is_some()));
        }
    }

    #[test]
    fn cancelled_fanout_query_leaves_live_queries_byte_identical() {
        let texts: Vec<String> = (0..10)
            .map(|i| format!("alpha event {i}\nbeta event {i}\n"))
            .collect();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let (ssd, pages) = ssd_with_pages(&refs);
        let qa = mithrilog_query::parse("alpha").unwrap();
        let qb = mithrilog_query::parse("beta").unwrap();
        let pa = FilterPipeline::compile(&qa).unwrap();
        let pb = FilterPipeline::compile(&qb).unwrap();
        let lzah = LzahConfig::default();
        let solo_a = reference(&ssd, &qa, &pages);

        // Query B is cancelled before the wave starts; A shares every page.
        let cancelled = CancelToken::new();
        cancelled.cancel();
        let fan = scan_pages_fanout(
            &ssd,
            lzah,
            &[
                FanQuery {
                    engine: Engine::Hardware(&pa),
                    pages: &pages,
                    cancel: None,
                },
                FanQuery {
                    engine: Engine::Hardware(&pb),
                    pages: &pages,
                    cancel: Some(cancelled),
                },
            ],
            3,
            None,
        );
        assert!(fan.error.is_none());
        // The live query is byte-identical to its solo run.
        assert_matches(&fan.queries[0], &solo_a, "live query");
        // The cancelled query scanned nothing and was charged nothing.
        assert!(fan.queries[1].lines.is_empty());
        assert_eq!(fan.queries[1].ledger, CostLedger::default());
        // No duplicate reads were saved: only one query was live per slot.
        assert_eq!(fan.device_ledger.shared_reads, 0);
        assert_eq!(fan.device_ledger.pages_read, pages.len() as u64);
    }

    #[test]
    fn sharded_compression_tiles_the_input_exactly() {
        let mut text = Vec::new();
        for i in 0..40_000 {
            text.extend_from_slice(
                format!("log line number {i} with some routine text\n").as_bytes(),
            );
        }
        assert!(text.len() > COMPRESS_SHARD_BYTES, "must span shards");
        for threads in [1, 2, 4] {
            let shards = compress_paged_striped(&text, LzahConfig::default(), 4096, threads);
            let mut rebuilt = Vec::new();
            for frame in shards.iter().flat_map(|p| p.pages()) {
                rebuilt.extend_from_slice(&Lzah::default().decompress(frame.data()).unwrap());
            }
            assert_eq!(rebuilt, text, "{threads} threads");
        }
        // Layout is a function of the input, not of the worker count.
        let one = compress_paged_striped(&text, LzahConfig::default(), 4096, 1);
        let four = compress_paged_striped(&text, LzahConfig::default(), 4096, 4);
        let frames = |logs: &[PagedLog]| {
            logs.iter()
                .flat_map(|p| p.pages())
                .map(|f| f.data().to_vec())
                .collect::<Vec<_>>()
        };
        assert_eq!(frames(&one), frames(&four));
    }

    #[test]
    fn small_inputs_compress_identically_to_the_unsharded_path() {
        let text = b"alpha\nbeta\ngamma\n".repeat(50);
        let sharded = compress_paged_striped(&text, LzahConfig::default(), 4096, 4);
        let direct = compress_paged(&text, LzahConfig::default(), 4096);
        assert_eq!(sharded.len(), 1);
        let a: Vec<Vec<u8>> = sharded[0]
            .pages()
            .iter()
            .map(|f| f.data().to_vec())
            .collect();
        let b: Vec<Vec<u8>> = direct.pages().iter().map(|f| f.data().to_vec()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn shard_boundaries_respect_lines() {
        let text = b"0123456789\nabcdefghij\nklmnopqrst\n".repeat(10);
        let shards = shard_at_lines(&text, 40);
        assert!(shards.len() > 1);
        let rebuilt: Vec<u8> = shards.concat();
        assert_eq!(rebuilt, text);
        for shard in &shards {
            assert_eq!(*shard.last().unwrap(), b'\n');
        }
    }
}
