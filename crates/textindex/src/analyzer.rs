//! Text analysis pipeline: tokenize → (optional) stopword removal →
//! (optional) Porter stemming.
//!
//! Both documents and queries must pass through the *same* analyzer so that
//! content-summary words and query words live in one token space — exactly
//! as in the paper's Lucene setup where indexing and search shared an
//! analyzer.

use crate::stem::{porter_stem, stem_in_place};
use crate::stopwords::is_stopword;
use crate::tokenize::tokenize;

/// A configurable analysis pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Analyzer {
    /// Remove stopwords before indexing.
    pub remove_stopwords: bool,
    /// Apply the Porter stemmer to each surviving token.
    pub stem: bool,
}

impl Analyzer {
    /// The configuration the paper reports results under: stopword
    /// elimination plus stemming (Section 6.2).
    pub fn english() -> Self {
        Analyzer {
            remove_stopwords: true,
            stem: true,
        }
    }

    /// Tokenization only — used for ablations on the effect of stemming.
    pub fn plain() -> Self {
        Analyzer {
            remove_stopwords: false,
            stem: false,
        }
    }

    /// Run the pipeline over raw text.
    ///
    /// ```
    /// use textindex::Analyzer;
    /// let a = Analyzer::english();
    /// assert_eq!(a.analyze("The databases are failing"), vec!["databas", "fail"]);
    /// ```
    pub fn analyze(&self, text: &str) -> Vec<String> {
        tokenize(text)
            .into_iter()
            .filter(|t| !self.remove_stopwords || !is_stopword(t))
            .map(|t| if self.stem { porter_stem(&t) } else { t })
            .collect()
    }

    /// Analyze a single already-tokenized word (used for query terms that
    /// arrive as individual keywords rather than free text).
    pub fn analyze_term(&self, term: &str) -> Option<String> {
        let mut out = String::new();
        self.analyze_term_into(term, &mut out).then_some(out)
    }

    /// [`Self::analyze_term`] into `out` (cleared first), reusing its
    /// capacity: `true` when the word survives, and `out` then holds it.
    pub fn analyze_term_into(&self, term: &str, out: &mut String) -> bool {
        out.clear();
        if term.is_ascii() {
            out.push_str(term);
            out.make_ascii_lowercase();
        } else {
            // `str::to_lowercase`, not a per-char map: final sigma is
            // context-sensitive.
            out.push_str(&term.to_lowercase());
        }
        if self.remove_stopwords && is_stopword(out) {
            return false;
        }
        if out.chars().count() < crate::tokenize::MIN_TOKEN_LEN {
            return false;
        }
        if self.stem {
            stem_in_place(out);
        }
        true
    }
}

impl Default for Analyzer {
    fn default() -> Self {
        Analyzer::english()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn english_removes_stopwords_and_stems() {
        let a = Analyzer::english();
        assert_eq!(
            a.analyze("the running of the databases"),
            vec!["run", "databas"]
        );
    }

    #[test]
    fn plain_keeps_everything() {
        let a = Analyzer::plain();
        assert_eq!(
            a.analyze("the running dogs"),
            vec!["the", "running", "dogs"]
        );
    }

    #[test]
    fn analyze_term_filters_stopwords() {
        let a = Analyzer::english();
        assert_eq!(a.analyze_term("The"), None);
        assert_eq!(
            a.analyze_term("Hypertension"),
            Some("hypertens".to_string())
        );
    }

    #[test]
    fn analyze_term_filters_short_tokens() {
        let a = Analyzer::plain();
        assert_eq!(a.analyze_term("x"), None);
    }
}
