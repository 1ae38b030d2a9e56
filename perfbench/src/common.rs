//! Inputs shared by the workloads: corpora, the drawn query pool, the
//! correctness oracle, batching, and the report every workload returns.

use std::collections::HashSet;
use std::time::Instant;

use mithrilog_loggen::{generate, DatasetProfile, DatasetSpec};
use mithrilog_query::Query;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::Samples;

/// Generates `bytes` of synthetic log text of one profile from `seed`.
pub fn corpus(profile: DatasetProfile, bytes: usize, seed: u64) -> Vec<u8> {
    generate(&DatasetSpec {
        profile,
        target_bytes: bytes,
        seed,
    })
    .into_text()
}

/// Splits `text` into consecutive batches of about `bytes` each, every
/// batch ending on a line boundary (the flush unit of a log shipper).
pub fn batches(text: &[u8], bytes: usize) -> Vec<&[u8]> {
    let mut out = Vec::new();
    let mut start = 0;
    while start < text.len() {
        let mut end = (start + bytes).min(text.len());
        while end < text.len() && text[end - 1] != b'\n' {
            end += 1;
        }
        out.push(&text[start..end]);
        start = end;
    }
    out
}

/// Seed of the reference sample the query bank is extracted from (the
/// harness default of `mithrilog_bench`).
const BANK_SEED: u64 = 42;

/// Query classes of `mithrilog_bench::query_bank`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Single,
    Pair,
    Eight,
    Negation,
}

/// The queries a run sends, chosen before timing.
pub struct Pool {
    pub queries: Vec<Query>,
    pub classes: Vec<Class>,
}

impl Pool {
    /// Takes `n` distinct queries of each listed class from the query bank
    /// of a 1 MB reference sample of the profile (the bank's templates come
    /// from the profile's generator, so the sample yields the corpus's
    /// templates).
    ///
    /// The reference sample and the bank's combinations use a fixed seed,
    /// and the pick is stratified by selectivity: a class's queries are
    /// ranked by their match count on the sample and the query in the
    /// middle of each of `n` equal rank strata is taken. Every run then
    /// sends the same query mix; the run's seed draws the corpus and the
    /// order queries are sent in. With a bank drawn per seed, the mean
    /// cost of a class varied twofold between seeds.
    pub fn draw(profile: DatasetProfile, mix: &[(Class, usize)]) -> Pool {
        let sample = generate(&DatasetSpec {
            profile,
            target_bytes: 1_000_000,
            seed: BANK_SEED,
        });
        let bank = mithrilog_bench::query_bank(&sample, BANK_SEED);
        let mut queries = Vec::new();
        let mut classes = Vec::new();
        for &(class, n) in mix {
            let source = match class {
                Class::Single => &bank.singles,
                Class::Pair => &bank.pairs,
                Class::Eight => &bank.eights,
                Class::Negation => &bank.negations,
            };
            let counts = oracle_counts(sample.text(), source);
            let mut ranked: Vec<usize> = (0..source.len()).collect();
            ranked.sort_by_key(|&i| (counts[i], i));
            let n = n.min(source.len());
            for k in 0..n {
                let lo = k * source.len() / n;
                let hi = ((k + 1) * source.len() / n).max(lo + 1);
                queries.push(source[ranked[(lo + hi) / 2]].clone());
                classes.push(class);
            }
        }
        Pool { queries, classes }
    }

    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Indices of the pool's queries of `class`.
    pub fn of(&self, class: Class) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.classes[i] == class)
            .collect()
    }
}

/// A seeded endless order over the pool: each pass visits every query once
/// in a fresh shuffled order, so every run sees the same query mix.
pub struct Order {
    rng: StdRng,
    pass: Vec<usize>,
    next: usize,
}

impl Order {
    pub fn new(items: Vec<usize>, seed: u64) -> Order {
        let mut order = Order {
            rng: StdRng::seed_from_u64(seed),
            pass: items,
            next: 0,
        };
        order.shuffle();
        order
    }

    fn shuffle(&mut self) {
        for i in (1..self.pass.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            self.pass.swap(i, j);
        }
        self.next = 0;
    }

    pub fn next_item(&mut self) -> usize {
        if self.next == self.pass.len() {
            self.shuffle();
        }
        self.next += 1;
        self.pass[self.next - 1]
    }
}

/// Expected match count of every query over `text`, from the query crate's
/// reference token evaluator (`Query::matches_token_set`), on two threads.
pub fn oracle_counts(text: &[u8], queries: &[Query]) -> Vec<u64> {
    let mid = {
        let mut m = text.len() / 2;
        while m < text.len() && text[m] != b'\n' {
            m += 1;
        }
        (m + 1).min(text.len())
    };
    let count = |part: &[u8]| -> Vec<u64> {
        let mut counts = vec![0u64; queries.len()];
        for line in part.split(|b| *b == b'\n') {
            if line.is_empty() {
                continue;
            }
            let line = String::from_utf8_lossy(line);
            let tokens: HashSet<&str> = line.split_ascii_whitespace().collect();
            for (c, q) in counts.iter_mut().zip(queries) {
                if q.matches_token_set(&tokens) {
                    *c += 1;
                }
            }
        }
        counts
    };
    let (a, b) = std::thread::scope(|s| {
        let h = s.spawn(|| count(&text[mid..]));
        let a = count(&text[..mid]);
        (a, h.join().expect("oracle worker panicked"))
    });
    a.iter().zip(&b).map(|(x, y)| x + y).collect()
}

/// One named measurement with its unit and the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (queries, waves' member queries, ingests).
    pub attempted: u64,
    /// Operations that failed, were rejected or cancelled, or returned a
    /// match count other than the oracle's.
    pub failed: u64,
    /// Of `failed`, oracle mismatches.
    pub mismatches: u64,
    pub metrics: Vec<Metric>,
    /// Run-record lines (`key=value`) printed before the result.
    pub record: Vec<String>,
    /// False when the run cannot be trusted (the open-loop generator fell
    /// behind its schedule).
    pub invalid: Option<String>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, mismatch: bool) {
        self.attempted += 1;
        if !ok || mismatch {
            self.failed += 1;
        }
        if mismatch {
            self.mismatches += 1;
        }
    }
}

/// Peak resident memory of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set-up repetitions of an untraced run; set-up time and preload
/// throughput are reported as medians over them.
pub const SETUP_REPS: usize = 5;

/// Runs `setup` `reps` times and returns the last result with every set-up
/// time measured, in seconds.
pub fn repeated_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, Samples) {
    let mut times = Samples::default();
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up ran"), times)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_end_on_lines_and_cover_text() {
        let text = b"aa\nbbbb\nc\ndddddd\n";
        let parts = batches(text, 4);
        assert!(parts.iter().all(|p| p.ends_with(b"\n")));
        assert_eq!(parts.concat(), text.to_vec());
    }

    #[test]
    fn oracle_uses_token_semantics() {
        let q = mithrilog_query::parse("FATAL AND NOT ciod:").unwrap();
        let text = b"RAS FATAL x\nRAS FATAL ciod: y\nFATALISM\n";
        assert_eq!(oracle_counts(text, &[q]), vec![1]);
    }

    #[test]
    fn order_visits_every_item_each_pass() {
        let mut o = Order::new((0..5).collect(), 3);
        let mut seen: Vec<usize> = (0..5).map(|_| o.next_item()).collect();
        seen.sort();
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }
}
