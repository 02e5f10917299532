//! A lake keeps each distinct raw cell text once: a column inside the lake
//! is its name plus one `u32` store id per cell, so indexing tables that
//! repeat the same texts grows the lake's heap by their id vectors and
//! index entries, not by a copy of each column's text.
//!
//! A counting global allocator measures live heap bytes around each
//! `add_table`, so this file holds one test: a second test running beside
//! it would move the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::sync::atomic::{AtomicIsize, Ordering};

use lake::delta::{MutableLake, Slot, TextId};
use lake::table::{Table, TableBuilder};

/// Live heap bytes, counted around the system allocator (the default
/// `alloc_zeroed` and `realloc` go through these two methods).
struct Counting;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter only reads the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
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

fn live() -> isize {
    LIVE_BYTES.load(Ordering::Relaxed)
}

const TABLES: usize = 40;
const ROWS: usize = 1_000;
const DISTINCT: usize = 300;
/// Bytes of each distinct text: long, so a copy per column would show.
const TEXT_LEN: usize = 96;

/// Table `t`: two columns over the same `DISTINCT` texts, in an order of
/// its own.
fn table(t: usize) -> Table {
    let text = |i: usize| format!("{:<width$}", format!("Value {i}"), width = TEXT_LEN);
    TableBuilder::new(format!("t{t}"))
        .column("a", (0..ROWS).map(|r| text((r * 7 + t) % DISTINCT)))
        .column("b", (0..ROWS).map(|r| text((r * 13 + 3 * t) % DISTINCT)))
        .build()
        .unwrap()
}

#[test]
fn indexing_repeated_texts_grows_the_lake_by_ids_not_text() {
    let mut lake = MutableLake::new();
    // What the lake keeps of table `t`: the table is built inside the
    // count and taken apart by `add_table`, so only the lake's share stays.
    let mut retained = |t: usize| {
        let before = live();
        lake.add_table(table(t)).unwrap();
        (live() - before) as usize
    };
    let text_per_column = DISTINCT * TEXT_LEN;
    let first = retained(0);
    assert!(
        first >= text_per_column,
        "the first table stores its {text_per_column} B of text once: {first} B"
    );
    let rest: usize = (1..TABLES).map(&mut retained).sum();
    let added = TABLES - 1;
    // Each later table holds two id vectors (4 B a cell) and its index
    // entries: per column a sorted id list and one attribute id in each
    // value's list (at most 2 × 4 B each with doubling), and names and
    // vector headers (1 KiB in all is generous).
    let ids = added * 2 * ROWS * 4;
    let bound = ids + added * (2 * DISTINCT * (4 + 2 * 4) + 1024);
    assert!(
        rest >= ids,
        "{added} tables hold their {ids} B of ids: {rest} B"
    );
    assert!(
        rest <= bound,
        "{added} tables of repeated texts grew the lake by {rest} B, past {bound} B"
    );
    // A column that kept its own copy of its text would cost more than
    // the whole bound.
    assert!(bound < added * 2 * text_per_column);
    assert_eq!(lake.table_count(), TABLES);
    // Every stored text is one a live cell holds.
    let held: HashSet<TextId> = lake
        .slots()
        .iter()
        .filter_map(Slot::live)
        .flat_map(|table| &table.columns)
        .flat_map(|column| column.cells.iter().copied())
        .collect();
    assert_eq!(held.len(), lake.text_count());
}
