//! # icpe-index — the two-layer GR-index
//!
//! The paper accelerates the per-snapshot range join with a two-layer index
//! (§5.1): a **global grid** that maps locations to cells (the distribution
//! keys of the stream runtime) and a **local R-tree** per grid cell.
//!
//! This crate provides both layers from scratch:
//!
//! * [`rtree::RTree`] — an arena-based R-tree over points with STR bulk
//!   loading (the SRJ baseline's build-then-query strategy), rectangle /
//!   metric range queries and k-nearest search. RJC's streaming GridQuery
//!   replaces the per-cell tree with a sort-sweep (`icpe-cluster`'s
//!   `query` module), which finds the same pairs without building one;
//! * [`grid::Grid`] — cell-key computation (`⟨⌊x/lg⌋, ⌊y/lg⌋⟩`) plus the
//!   Lemma-1 *upper-half* replication key sets;
//! * [`refine::RefinementTree`] — recursive 2×2 sub-cell refinement of hot
//!   cells, with ε-padded replication at sub-cell borders;
//! * [`gr::GrIndex`] — the assembled two-layer index for one snapshot.

pub mod gr;
pub mod grid;
pub mod refine;
pub mod rtree;

pub use gr::GrIndex;
pub use grid::{Grid, GridKey};
pub use refine::RefinementTree;
pub use rtree::RTree;
