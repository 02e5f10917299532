//! Closed neighbourhoods of value nodes as bitsets over value ids.
//!
//! The closed neighbourhood `B(v)` of a value `v` is `v` with every value
//! that shares an attribute with it, so `|N(v)| = |B(v)| − 1` for a value
//! with an attribute (an isolated value has the empty `B(v)` and no
//! neighbour). Both of the paper's per-value quantities read it:
//! [`BipartiteGraph::value_neighbor_counts`] is its popcount, and the
//! Equation-1 join of [`crate::lcc`] intersects it between classes.
//!
//! A kernel call first lays each attribute's members out as `(word, bits)`
//! runs over value ids, `O(edges)` once. `B(v)` is then the OR of the runs
//! of `v`'s attributes, at most one word write per member *word* rather
//! than one visit per member, and the words it can touch form one span
//! `[lo, hi)`: from the first run of its lowest attribute to the last run
//! of its highest. Popcounts, intersections and clears stay inside spans.

use std::ops::Range;

use crate::bipartite::BipartiteGraph;

/// Each attribute's members as `(word, bits)` runs over value ids.
pub(crate) struct AttributeRuns {
    /// The runs of attribute index `a` are `runs[ends[a]..ends[a + 1]]`,
    /// in ascending word order.
    ends: Vec<usize>,
    runs: Vec<(u32, u64)>,
    n_values: usize,
}

impl AttributeRuns {
    pub(crate) fn of(graph: &BipartiteGraph) -> Self {
        let mut ends = Vec::with_capacity(graph.attribute_count() + 1);
        ends.push(0);
        let mut runs: Vec<(u32, u64)> = Vec::new();
        for attr in graph.attribute_nodes() {
            let start = runs.len();
            // Members are ascending, so one word's members are adjacent.
            for &v in graph.neighbors(attr) {
                let (word, bit) = (v / 64, 1u64 << (v % 64));
                match runs[start..].last_mut() {
                    Some((w, bits)) if *w == word => *bits |= bit,
                    _ => runs.push((word, bit)),
                }
            }
            ends.push(runs.len());
        }
        AttributeRuns {
            ends,
            runs,
            n_values: graph.value_count(),
        }
    }

    /// The length of a bitset over value ids.
    pub(crate) fn words(&self) -> usize {
        self.n_values.div_ceil(64)
    }

    /// OR `B(v)` into `bits` and return its span: the words outside it are
    /// untouched, and it is empty for a value without attributes.
    pub(crate) fn or_closed(
        &self,
        graph: &BipartiteGraph,
        v: u32,
        bits: &mut [u64],
    ) -> Range<usize> {
        let (mut lo, mut hi) = (usize::MAX, 0);
        for &attr in graph.neighbors(v) {
            let a = attr as usize - self.n_values;
            let runs = &self.runs[self.ends[a]..self.ends[a + 1]];
            for &(word, run) in runs {
                bits[word as usize] |= run;
            }
            // `v` is a member, so an attribute of `v` has a run.
            lo = lo.min(runs[0].0 as usize);
            hi = hi.max(runs[runs.len() - 1].0 as usize + 1);
        }
        lo.min(hi)..hi
    }
}

/// The number of set bits in `bits`.
pub(crate) fn popcount(bits: &[u64]) -> usize {
    bits.iter().map(|w| w.count_ones() as usize).sum()
}

/// Call `f` with every set bit of `bits[span]`, ascending, as a value id.
pub(crate) fn for_each_bit(bits: &[u64], span: Range<usize>, mut f: impl FnMut(u32)) {
    for i in span {
        let mut word = bits[i];
        while word != 0 {
            f((i * 64) as u32 + word.trailing_zeros());
            word &= word - 1;
        }
    }
}
