//! Reading a lake in row order leaves nothing behind: a column holds each
//! distinct raw cell once, and the row-order reads — `Table::rows`,
//! `Column::cells`, CSV write-back through `save_dir` and the ingest
//! differ — derive rows on every call and cache none.
//!
//! A counting global allocator measures live heap bytes around those reads
//! on a generated lake, so this file holds one test: a second test running
//! beside it would move the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

use datagen::tus::{TusConfig, TusGenerator};
use datagen::{DriftConfig, DriftStream};
use lake::loader::save_dir;

/// Live heap bytes and allocations made, counted around the system
/// allocator (the default `alloc_zeroed` and `realloc` go through these
/// two methods).
struct Counting;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters only read the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What a row read may leave live: std's own lazily built state, never a
/// copy of the lake's cells.
const SLACK_BYTES: isize = 64 * 1024;

#[test]
fn row_reads_retain_nothing() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("row_reads_retain_nothing_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let lake = TusGenerator::new(TusConfig::small(7)).generate().catalog;
    let mut stream = DriftStream::new(DriftConfig::default());
    stream.write_next_generation(dir.join("drift")).unwrap();
    let before = stream.live_tables().to_vec();
    stream.write_next_generation(dir.join("drift")).unwrap();
    let after = stream.live_tables();

    let baseline = LIVE_BYTES.load(Ordering::Relaxed);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);
    save_dir(&lake, dir.join("lake")).unwrap();
    let (mut rows, mut cells) = (0, 0);
    for table in lake.tables() {
        rows += table.rows().count();
        cells += table
            .columns()
            .iter()
            .map(|column| column.cells().len())
            .sum::<usize>();
    }
    let mut ops = 0;
    for (old, new) in before.iter().zip(after) {
        ops += dn_ingest::diff_tables(old, new).delta.len();
    }
    let retained = LIVE_BYTES.load(Ordering::Relaxed) - baseline;
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - allocations;

    std::fs::remove_dir_all(&dir).unwrap();
    assert!(
        rows > 1_000 && cells > rows && ops > 0,
        "{rows} rows, {cells} cells, {ops} ops"
    );
    assert!(
        retained <= SLACK_BYTES,
        "{retained} bytes still live after the reads (slack {SLACK_BYTES}): \
         {rows} rows and {cells} cells read, {} tables diffed into {ops} ops, \
         {allocations} allocations made",
        before.len()
    );
}
