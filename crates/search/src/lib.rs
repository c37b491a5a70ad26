//! # par-search — a small inverted-index BM25 search engine
//!
//! The paper's e-commerce pipeline (Example 5.1) derives the pre-defined
//! subsets `Q` from search queries: each landing page is the result set of a
//! popular query, and the relevance scores `R` come from the engine's
//! retrieval scores. This crate is that engine, built from scratch:
//!
//! * [`tokenize()`](tokenize::tokenize) — lowercasing alphanumeric tokenizer with a small stopword
//!   list;
//! * [`index`] — an inverted index with per-term postings and document
//!   lengths;
//! * [`bm25`] — Okapi BM25 scoring;
//! * [`SearchEngine`] — build over a corpus of documents, run ranked
//!   queries, obtain `(doc, score)` lists that PHOcus converts into subsets
//!   and relevance scores.

#![forbid(unsafe_code)]

#![warn(missing_docs)]

pub mod bm25;
pub mod index;
pub mod tokenize;

pub use bm25::Bm25Params;
pub use index::InvertedIndex;
pub use tokenize::tokenize;

/// A ranked retrieval result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// Document id (position in the corpus passed to [`SearchEngine::build`]).
    pub doc: u32,
    /// BM25 retrieval score (positive).
    pub score: f64,
}

/// A BM25 search engine over an in-memory corpus.
#[derive(Debug)]
pub struct SearchEngine {
    index: InvertedIndex,
}

impl SearchEngine {
    /// Builds the engine over a corpus; document ids are corpus positions.
    pub fn build(corpus: &[impl AsRef<str>]) -> Self {
        SearchEngine {
            index: InvertedIndex::build(corpus),
        }
    }

    /// Number of indexed documents.
    pub fn num_docs(&self) -> usize {
        self.index.num_docs()
    }

    /// Runs a ranked query, returning up to `limit` hits with positive BM25
    /// scores, best first. Ties are broken by ascending document id so
    /// results are fully deterministic.
    pub fn search(&self, query: &str, limit: usize) -> Vec<Hit> {
        let params = Bm25Params::default();
        let terms = tokenize(query);
        let mut scores: std::collections::HashMap<u32, f64> = std::collections::HashMap::new();
        for term in &terms {
            if let Some(postings) = self.index.postings(term) {
                let idf = bm25::idf(self.index.num_docs(), postings.len());
                for &(doc, tf) in postings {
                    let dl = self.index.doc_len(doc);
                    let s = bm25::score_term(tf, dl, self.index.avg_doc_len(), idf, &params);
                    *scores.entry(doc).or_insert(0.0) += s;
                }
            }
        }
        let mut hits: Vec<Hit> = scores
            .into_iter()
            .filter(|&(_, s)| s > 0.0)
            .map(|(doc, score)| Hit { doc, score })
            .collect();
        hits.sort_unstable_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.doc.cmp(&b.doc)));
        hits.truncate(limit);
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<&'static str> {
        vec![
            "black adidas running shoes",
            "red nike running shoes for men",
            "black office chair with wheels",
            "ergonomic office chair black leather",
            "samsung smartphone 128gb black",
            "apple iphone smartphone silver",
            "black dress shirt buttoned",
        ]
    }

    #[test]
    fn search_ranks_relevant_docs_first() {
        let engine = SearchEngine::build(&corpus());
        let hits = engine.search("office chair", 10);
        assert!(hits.len() >= 2);
        let top2: Vec<u32> = hits[..2].iter().map(|h| h.doc).collect();
        assert!(top2.contains(&2) && top2.contains(&3), "top2 {top2:?}");
    }

    #[test]
    fn rare_terms_outweigh_common_terms() {
        let engine = SearchEngine::build(&corpus());
        // "black" appears in 5 docs, "iphone" in 1: the iphone doc must beat
        // black-only matches for "black iphone".
        let hits = engine.search("black iphone", 10);
        assert_eq!(hits[0].doc, 5);
    }

    #[test]
    fn no_match_returns_empty() {
        let engine = SearchEngine::build(&corpus());
        assert!(engine.search("bicycle helmet", 10).is_empty());
        assert!(engine.search("", 10).is_empty());
    }

    #[test]
    fn limit_truncates_results() {
        let engine = SearchEngine::build(&corpus());
        let hits = engine.search("black", 2);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn scores_are_positive_and_sorted() {
        let engine = SearchEngine::build(&corpus());
        let hits = engine.search("black running shoes", 10);
        assert!(!hits.is_empty());
        for w in hits.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        assert!(hits.iter().all(|h| h.score > 0.0));
    }

    #[test]
    fn deterministic_tie_breaking() {
        let engine = SearchEngine::build(&["shoes socks", "shoes socks"]);
        let hits = engine.search("shoes", 10);
        assert_eq!(hits[0].doc, 0);
        assert_eq!(hits[1].doc, 1);
    }
}
