//! Streaming k-way merge.
//!
//! Compaction and cross-run aggregation must visit every stored run in
//! global (timestamp, run id) order without materializing all of them:
//! each segment yields its records lazily in file order (which is ingest
//! order, but timestamps may interleave arbitrarily across segments), and
//! this merge repeatedly takes the source whose *next* item has the
//! smallest key. Memory held: one decoded item per source, never the
//! whole store.

use std::iter::Peekable;

/// K-way merge of several already-available iterators by a caller-chosen
/// `(u64, u64)` sort key.
pub struct KWayMerge<T, I: Iterator<Item = T>, F: Fn(&T) -> (u64, u64)> {
    sources: Vec<Peekable<I>>,
    key: F,
}

impl<T, I: Iterator<Item = T>, F: Fn(&T) -> (u64, u64)> KWayMerge<T, I, F> {
    /// Build a merge over `sources`, ordered ascending by `key`.
    pub fn new(sources: Vec<I>, key: F) -> Self {
        Self {
            sources: sources.into_iter().map(Iterator::peekable).collect(),
            key,
        }
    }
}

impl<T, I: Iterator<Item = T>, F: Fn(&T) -> (u64, u64)> Iterator for KWayMerge<T, I, F> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        let mut best: Option<(usize, (u64, u64))> = None;
        for (i, src) in self.sources.iter_mut().enumerate() {
            if let Some(item) = src.peek() {
                let k = (self.key)(item);
                if best.map(|(_, bk)| k < bk).unwrap_or(true) {
                    best = Some((i, k));
                }
            }
        }
        let (i, _) = best?;
        self.sources[i].next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merges_in_key_order() {
        let a = vec![(1u64, "a1"), (4, "a4"), (9, "a9")];
        let b = vec![(2u64, "b2"), (3, "b3")];
        let c = vec![(0u64, "c0"), (9, "c9")];
        let merged: Vec<&str> =
            KWayMerge::new(vec![a.into_iter(), b.into_iter(), c.into_iter()], |item| {
                (item.0, 0)
            })
            .map(|(_, tag)| tag)
            .collect();
        assert_eq!(merged, ["c0", "a1", "b2", "b3", "a4", "a9", "c9"]);
    }

    #[test]
    fn equal_keys_favor_earlier_sources() {
        let a = vec![(5u64, "first")];
        let b = vec![(5u64, "second")];
        let merged: Vec<&str> =
            KWayMerge::new(vec![a.into_iter(), b.into_iter()], |item| (item.0, 0))
                .map(|(_, tag)| tag)
                .collect();
        assert_eq!(merged, ["first", "second"]);
    }

    #[test]
    fn empty_sources_are_fine() {
        let merged: Vec<u64> =
            KWayMerge::new(Vec::<std::vec::IntoIter<u64>>::new(), |&v| (v, 0)).collect();
        assert!(merged.is_empty());
        let merged: Vec<u64> =
            KWayMerge::new(vec![Vec::new().into_iter(), vec![7u64].into_iter()], |&v| {
                (v, 0)
            })
            .collect();
        assert_eq!(merged, [7]);
    }
}
