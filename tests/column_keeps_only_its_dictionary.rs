//! A column keeps its name, its dictionary and its row indices, and
//! nothing else: its sorted distinct normalized values are derived on
//! every read, and the lake interns straight from the dictionary.
//!
//! A counting global allocator measures live heap blocks and bytes around
//! each way a column comes to be, so this file holds one test: a second
//! test running beside it would move the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use lake::column::{Column, StringList};

/// Live heap bytes and blocks, counted around the system allocator (the
/// default `alloc_zeroed` and `realloc` go through these two methods).
struct Counting;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
static LIVE_BLOCKS: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters only read the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
            LIVE_BLOCKS.fetch_add(1, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        LIVE_BLOCKS.fetch_sub(1, Ordering::Relaxed);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Live `(bytes, blocks)`.
fn live() -> (isize, isize) {
    (
        LIVE_BYTES.load(Ordering::Relaxed),
        LIVE_BLOCKS.load(Ordering::Relaxed),
    )
}

/// The heap blocks a non-empty column owns: its name, its dictionary's
/// buffer and offsets, and its indices.
const PARTS: isize = 4;

/// The live `(bytes, blocks)` `column` holds: what dropping it frees.
fn held(column: Column) -> (isize, isize) {
    let (bytes, blocks) = live();
    drop(column);
    let (after_bytes, after_blocks) = live();
    (bytes - after_bytes, blocks - after_blocks)
}

#[test]
fn a_column_keeps_only_its_dictionary_and_indices() {
    // Padded, mixed-case cells, so a normalized copy could share nothing
    // with the dictionary.
    let cells: Vec<String> = (0..2_000)
        .map(|i| format!("  Value {}  ", i % 300))
        .collect();
    let reference = Column::new("c", cells.clone());
    let json = serde_json::to_string(&reference).unwrap();
    assert!(
        json.contains(r#""distinct":["VALUE 0","VALUE 1","#),
        "{json}"
    );

    // Column::new consumes the cells and keeps four blocks.
    let input = cells.clone();
    let column = Column::new("c", input);
    assert_eq!(column.cells(), reference.cells());
    let (_, blocks) = held(column);
    assert_eq!(blocks, PARTS, "Column::new");

    // A decoded column keeps four blocks; the decoder's tree and the
    // decoded `distinct` array are gone.
    let before = live();
    let column: Column = serde_json::from_str(&json).unwrap();
    assert_eq!(column.cells(), reference.cells());
    let (_, blocks) = held(column);
    assert_eq!(blocks, PARTS, "JSON decode");
    assert_eq!(live(), before, "JSON decode left heap behind");

    // A derived list is the caller's to drop, and dropping it frees it all.
    let before = live();
    let distinct: StringList = reference.distinct_values();
    assert_eq!(distinct.len(), 300);
    assert_eq!(distinct.get(0), Some("VALUE 0"));
    drop(distinct);
    assert_eq!(live(), before, "distinct_values");
}
