//! Concurrency stress for the sharded metrics registry.
//!
//! A Prometheus scrape walks every shard and sorts the series; heavy
//! recording keeps hammering the same shards from several threads while
//! scrapes run. The registry must neither deadlock nor block recorders
//! behind a scrape in a way that loses increments: after the dust
//! settles, every single increment must be visible, and the scraper
//! must have kept producing expositions throughout.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

use mobivine_telemetry::metrics::{Labels, MetricsRegistry};

const RECORDERS: usize = 4;
const INCREMENTS_PER_RECORDER: u64 = 21_000;
const SERIES_PER_RECORDER: u64 = 3;

fn series_labels(recorder: usize, series: u64) -> Labels {
    Labels::new(&[
        ("recorder", &format!("r{recorder}")),
        ("series", &format!("s{series}")),
    ])
}

#[test]
fn scrape_concurrent_with_heavy_recording_loses_nothing() {
    let registry = MetricsRegistry::shared();
    let done = Arc::new(AtomicBool::new(false));
    // Every recorder pauses halfway until the scraper has finished its
    // first scrape, so at least one scrape lands mid-recording however
    // the threads are scheduled.
    let first_scrape = &Barrier::new(RECORDERS + 1);

    let scrapes_seen = thread::scope(|scope| {
        let recorders: Vec<_> = (0..RECORDERS)
            .map(|recorder| {
                let registry = Arc::clone(&registry);
                scope.spawn(move || {
                    // Resolve handles once (the cached-instrument
                    // pattern), then record through them — the shape of
                    // the traced hot path.
                    let series: Vec<_> = (0..SERIES_PER_RECORDER)
                        .map(|s| {
                            let labels = series_labels(recorder, s);
                            (
                                registry.counter("stress_total", &labels),
                                registry.histogram("stress_ms", &labels),
                            )
                        })
                        .collect();
                    for i in 0..INCREMENTS_PER_RECORDER {
                        if i == INCREMENTS_PER_RECORDER / 2 {
                            first_scrape.wait();
                        }
                        let (counter, histogram) = &series[(i % SERIES_PER_RECORDER) as usize];
                        counter.inc();
                        histogram.record(i % 64);
                    }
                })
            })
            .collect();

        // The scraper races the recorders for the registry's shards
        // until every recorder has finished.
        let scraper = {
            let registry = Arc::clone(&registry);
            let done = Arc::clone(&done);
            scope.spawn(move || {
                let mut scrapes = 0u64;
                loop {
                    let exposition = registry.render_prometheus();
                    std::hint::black_box(&exposition);
                    scrapes += 1;
                    if scrapes == 1 {
                        first_scrape.wait();
                    }
                    if done.load(Ordering::Acquire) {
                        break scrapes;
                    }
                }
            })
        };

        for handle in recorders {
            handle.join().expect("recorder thread completes");
        }
        done.store(true, Ordering::Release);
        scraper.join().expect("scraper thread completes")
    });
    assert!(scrapes_seen > 0, "the scraper must have run at least once");

    // Exact accounting: every increment from every recorder landed,
    // scrape interleaving notwithstanding.
    let expected = INCREMENTS_PER_RECORDER / SERIES_PER_RECORDER;
    for recorder in 0..RECORDERS {
        for s in 0..SERIES_PER_RECORDER {
            let labels = series_labels(recorder, s);
            assert_eq!(
                registry.counter_value("stress_total", &labels),
                expected,
                "recorder {recorder} series {s}"
            );
            assert_eq!(registry.histogram("stress_ms", &labels).count(), expected);
        }
    }
    let exposition = registry.render_prometheus();
    assert!(exposition.contains("stress_total"));
    assert!(exposition.contains("stress_ms"));
}
