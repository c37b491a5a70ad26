//! The inverted index: per-term postings `(doc, term frequency)` plus
//! document lengths.

use crate::tokenize::tokenize;
use std::collections::HashMap;

/// An in-memory inverted index.
#[derive(Debug, Default)]
pub struct InvertedIndex {
    postings: HashMap<String, Vec<(u32, u32)>>,
    doc_lens: Vec<u32>,
    total_len: u64,
}

impl InvertedIndex {
    /// Indexes a corpus; document ids are corpus positions.
    pub fn build(corpus: &[impl AsRef<str>]) -> Self {
        let mut postings: HashMap<String, Vec<(u32, u32)>> = HashMap::new();
        let mut doc_lens = Vec::with_capacity(corpus.len());
        let mut total_len = 0u64;
        for (doc, text) in corpus.iter().enumerate() {
            let tokens = tokenize(text.as_ref());
            doc_lens.push(tokens.len().min(u32::MAX as usize) as u32);
            total_len += tokens.len() as u64;
            let mut tf: HashMap<String, u32> = HashMap::new();
            for t in tokens {
                *tf.entry(t).or_insert(0) += 1;
            }
            // phocus-lint: allow(hash-iter) — each term lands in its own postings list, re-sorted by doc below
            for (term, count) in tf {
                postings.entry(term).or_default().push((doc as u32, count));
            }
        }
        // phocus-lint: allow(hash-iter) — each list is sorted independently; visit order is immaterial
        for list in postings.values_mut() {
            list.sort_unstable_by_key(|&(doc, _)| doc);
        }
        InvertedIndex {
            postings,
            doc_lens,
            total_len,
        }
    }

    /// Number of indexed documents.
    pub fn num_docs(&self) -> usize {
        self.doc_lens.len()
    }

    /// The postings list for a term: `(doc, tf)` sorted by doc.
    pub fn postings(&self, term: &str) -> Option<&[(u32, u32)]> {
        self.postings.get(term).map(|v| v.as_slice())
    }

    /// Token count of a document.
    pub fn doc_len(&self, doc: u32) -> u32 {
        self.doc_lens[doc as usize]
    }

    /// Average document length over the corpus.
    pub fn avg_doc_len(&self) -> f64 {
        if self.doc_lens.is_empty() {
            0.0
        } else {
            self.total_len as f64 / self.doc_lens.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn postings_record_term_frequencies() {
        let idx = InvertedIndex::build(&["red red blue", "blue"]);
        assert_eq!(idx.postings("red"), Some(&[(0u32, 2u32)][..]));
        assert_eq!(idx.postings("blue"), Some(&[(0u32, 1u32), (1, 1)][..]));
        assert_eq!(idx.postings("green"), None);
    }

    #[test]
    fn doc_lengths_and_average() {
        let idx = InvertedIndex::build(&["one two three", "four"]);
        assert_eq!(idx.doc_len(0), 3);
        assert_eq!(idx.doc_len(1), 1);
        assert!((idx.avg_doc_len() - 2.0).abs() < 1e-12);
        assert_eq!(idx.num_docs(), 2);
    }

    #[test]
    fn empty_corpus() {
        let corpus: Vec<&str> = Vec::new();
        let idx = InvertedIndex::build(&corpus);
        assert_eq!(idx.num_docs(), 0);
        assert_eq!(idx.avg_doc_len(), 0.0);
    }
}
