//! Parallel speedup of the campaign harness: the same quick Fig. 17
//! campaign (4 bearer configurations × 2 videos) timed at 1, 2 and 4
//! workers. On an N-core host the 4-worker run should approach the
//! slowest single job's time (the jobs are near-equal, so ≥2× at 4
//! workers); on a single-core host all three collapse to the serial time.
//! Results land in `results/campaign_speedup.txt` via `scripts`/CI.

use criterion::{criterion_group, criterion_main, Criterion};
use harness::StageMode;

const SEED: u64 = 20140705;
const QUICK_VIDEOS: usize = 2;

fn bench_fig17_campaign(c: &mut Criterion) {
    let mut g = c.benchmark_group("campaign");
    g.sample_size(10);
    for workers in [1usize, 2, 4] {
        g.bench_function(&format!("fig17_quick_jobs{workers}"), |b| {
            b.iter(|| {
                let run = repro::exp75::staged_fig17(QUICK_VIDEOS, SEED)
                    .into_campaign(&StageMode::Inline)
                    .run(workers);
                assert_eq!(run.failed(), 0);
                run.jobs.len()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_fig17_campaign);
criterion_main!(benches);
