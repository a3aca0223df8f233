//! The Porter stemming algorithm (M.F. Porter, 1980).
//!
//! The paper reports all database-selection results with stemming applied to
//! both query and document words (Section 6.2), so the content summaries in
//! this reproduction are built over stemmed tokens. This is a faithful port
//! of Porter's reference implementation: the same five steps, the same
//! measure-based conditions, and the same rule ordering.
//!
//! Words containing non-ASCII-alphabetic characters are returned unchanged —
//! the algorithm is defined for English letters only.

/// Stem a single lowercase word with the Porter algorithm.
///
/// ```
/// use textindex::porter_stem;
/// assert_eq!(porter_stem("caresses"), "caress");
/// assert_eq!(porter_stem("hypertension"), "hypertens");
/// assert_eq!(porter_stem("agreed"), "agre");
/// ```
pub fn porter_stem(word: &str) -> String {
    let mut stem = word.to_string();
    stem_in_place(&mut stem);
    stem
}

/// [`porter_stem`] in place: `word`'s buffer is the stemmer's, so a caller
/// that reuses it allocates nothing.
pub(crate) fn stem_in_place(word: &mut String) {
    if word.len() <= 2 || !word.bytes().all(|b| b.is_ascii_lowercase()) {
        return;
    }
    let k = word.len() - 1;
    let mut s = Stemmer {
        b: std::mem::take(word).into_bytes(),
        k,
    };
    s.step1ab();
    s.step1c();
    s.step2();
    s.step3();
    s.step4();
    s.step5();
    s.b.truncate(s.k + 1);
    // The buffer is mutated in place and always stays ASCII.
    *word = String::from_utf8(s.b).expect("porter stemmer output is ASCII");
}

struct Stemmer {
    /// Word buffer; only `b[0..=k]` is live.
    b: Vec<u8>,
    /// Index of the last live byte.
    k: usize,
}

impl Stemmer {
    /// Is `b[i]` a consonant? `y` is a consonant when it follows a vowel
    /// position (i.e., at index 0 or after a consonant).
    fn is_consonant(&self, i: usize) -> bool {
        match self.b[i] {
            b'a' | b'e' | b'i' | b'o' | b'u' => false,
            b'y' => i == 0 || !self.is_consonant(i - 1),
            _ => true,
        }
    }

    /// Porter's *measure* `m` of the stem `b[0..=j]`: the number of
    /// vowel-consonant sequences `(VC){m}`.
    fn measure(&self, j: usize) -> usize {
        let mut n = 0;
        let mut i = 0;
        loop {
            if i > j {
                return n;
            }
            if !self.is_consonant(i) {
                break;
            }
            i += 1;
        }
        i += 1;
        loop {
            loop {
                if i > j {
                    return n;
                }
                if self.is_consonant(i) {
                    break;
                }
                i += 1;
            }
            i += 1;
            n += 1;
            loop {
                if i > j {
                    return n;
                }
                if !self.is_consonant(i) {
                    break;
                }
                i += 1;
            }
            i += 1;
        }
    }

    /// Does the stem `b[0..=j]` contain a vowel?
    fn has_vowel(&self, j: usize) -> bool {
        (0..=j).any(|i| !self.is_consonant(i))
    }

    /// Does `b[0..=j]` end with a double consonant?
    fn double_consonant(&self, j: usize) -> bool {
        j >= 1 && self.b[j] == self.b[j - 1] && self.is_consonant(j)
    }

    /// Does `b[0..=i]` end consonant-vowel-consonant, where the final
    /// consonant is not `w`, `x` or `y`? Used to detect "short" stems.
    fn cvc(&self, i: usize) -> bool {
        if i < 2 || !self.is_consonant(i) || self.is_consonant(i - 1) || !self.is_consonant(i - 2) {
            return false;
        }
        !matches!(self.b[i], b'w' | b'x' | b'y')
    }

    /// Does the live word end with `suffix`? On success sets `j` implicitly:
    /// callers use `self.k - suffix.len()` as the stem end.
    fn ends(&self, suffix: &[u8]) -> bool {
        let len = suffix.len();
        if len > self.k + 1 {
            return false;
        }
        &self.b[self.k + 1 - len..=self.k] == suffix
    }

    /// Replace the current suffix of length `old_len` with `new`.
    fn set_to(&mut self, old_len: usize, new: &[u8]) {
        let start = self.k + 1 - old_len;
        self.b.truncate(start);
        self.b.extend_from_slice(new);
        self.k = start + new.len() - 1;
        debug_assert!(self.k < self.b.len());
    }

    /// If the word ends with `suffix` and the remaining stem has `m > min_m`,
    /// replace the suffix with `new` and report `true` for "rule fired or
    /// suffix matched" (Porter's rules stop at the first matching suffix
    /// even when the measure condition fails). A suffix spanning the whole
    /// word leaves an empty stem with measure 0, so the rule never fires.
    fn replace_if_m_gt(&mut self, suffix: &[u8], new: &[u8], min_m: usize) -> bool {
        if self.ends(suffix) {
            if self.k + 1 > suffix.len() {
                let j = self.k - suffix.len();
                if self.measure(j) > min_m {
                    self.set_to(suffix.len(), new);
                }
            }
            true
        } else {
            false
        }
    }

    /// Step 1a (plurals) and 1b (-ed, -ing).
    fn step1ab(&mut self) {
        if self.b[self.k] == b's' {
            if self.ends(b"sses") {
                self.k -= 2;
            } else if self.ends(b"ies") {
                self.set_to(3, b"i");
            } else if self.b[self.k - 1] != b's' {
                self.k -= 1;
            }
        }
        if self.ends(b"eed") {
            if self.k >= 3 && self.measure(self.k - 3) > 0 {
                self.k -= 1;
            }
        } else if (self.ends(b"ed") && self.k >= 2 && self.has_vowel(self.k - 2))
            || (self.ends(b"ing") && self.k >= 3 && self.has_vowel(self.k - 3))
        {
            self.k -= if self.ends(b"ed") { 2 } else { 3 };
            self.b.truncate(self.k + 1);
            if self.ends(b"at") || self.ends(b"bl") || self.ends(b"iz") {
                self.b.push(b'e');
                self.k += 1;
            } else if self.double_consonant(self.k) && !matches!(self.b[self.k], b'l' | b's' | b'z')
            {
                self.k -= 1;
            } else if self.measure(self.k) == 1 && self.cvc(self.k) {
                self.b.truncate(self.k + 1);
                self.b.push(b'e');
                self.k += 1;
            }
        }
        self.b.truncate(self.k + 1);
    }

    /// Step 1c: terminal `y` becomes `i` when the stem contains a vowel.
    fn step1c(&mut self) {
        if self.b[self.k] == b'y' && self.k >= 1 && self.has_vowel(self.k - 1) {
            self.b[self.k] = b'i';
        }
    }

    /// Step 2: map double suffixes to single ones (`-ization` → `-ize`, ...).
    fn step2(&mut self) {
        if self.k == 0 {
            return;
        }
        let rules: &[(&[u8], &[u8])] = match self.b[self.k - 1] {
            b'a' => &[(b"ational", b"ate"), (b"tional", b"tion")],
            b'c' => &[(b"enci", b"ence"), (b"anci", b"ance")],
            b'e' => &[(b"izer", b"ize")],
            b'l' => &[
                (b"bli", b"ble"),
                (b"alli", b"al"),
                (b"entli", b"ent"),
                (b"eli", b"e"),
                (b"ousli", b"ous"),
            ],
            b'o' => &[(b"ization", b"ize"), (b"ation", b"ate"), (b"ator", b"ate")],
            b's' => &[
                (b"alism", b"al"),
                (b"iveness", b"ive"),
                (b"fulness", b"ful"),
                (b"ousness", b"ous"),
            ],
            b't' => &[(b"aliti", b"al"), (b"iviti", b"ive"), (b"biliti", b"ble")],
            b'g' => &[(b"logi", b"log")],
            _ => return,
        };
        for &(suffix, new) in rules {
            if self.replace_if_m_gt(suffix, new, 0) {
                return;
            }
        }
    }

    /// Step 3: `-icate`, `-ative`, `-alize`, `-iciti`, `-ical`, `-ful`, `-ness`.
    fn step3(&mut self) {
        let rules: &[(&[u8], &[u8])] = match self.b[self.k] {
            b'e' => &[(b"icate", b"ic"), (b"ative", b""), (b"alize", b"al")],
            b'i' => &[(b"iciti", b"ic")],
            b'l' => &[(b"ical", b"ic"), (b"ful", b"")],
            b's' => &[(b"ness", b"")],
            _ => return,
        };
        for &(suffix, new) in rules {
            if self.replace_if_m_gt(suffix, new, 0) {
                return;
            }
        }
    }

    /// Step 4: drop residual suffixes when the measure of the stem exceeds 1.
    fn step4(&mut self) {
        if self.k == 0 {
            return;
        }
        let rules: &[&[u8]] = match self.b[self.k - 1] {
            b'a' => &[b"al"],
            b'c' => &[b"ance", b"ence"],
            b'e' => &[b"er"],
            b'i' => &[b"ic"],
            b'l' => &[b"able", b"ible"],
            b'n' => &[b"ant", b"ement", b"ment", b"ent"],
            b'o' => &[b"ou"], // `-ion` handled below with its t/s guard
            b's' => &[b"ism"],
            b't' => &[b"ate", b"iti"],
            b'u' => &[b"ous"],
            b'v' => &[b"ive"],
            b'z' => &[b"ize"],
            _ => return,
        };
        if self.b[self.k - 1] == b'o' && self.ends(b"ion") {
            if self.k >= 3 {
                let j = self.k - 3;
                if matches!(self.b[j], b's' | b't') && self.measure(j) > 1 {
                    self.k = j;
                    self.b.truncate(self.k + 1);
                }
            }
            return;
        }
        for &suffix in rules {
            if self.ends(suffix) {
                if self.k + 1 > suffix.len() {
                    let j = self.k - suffix.len();
                    if self.measure(j) > 1 {
                        self.k = j;
                        self.b.truncate(self.k + 1);
                    }
                }
                return;
            }
        }
    }

    /// Step 5: remove a final `-e` and reduce `-ll` on long stems.
    fn step5(&mut self) {
        if self.k >= 1 && self.b[self.k] == b'e' {
            let m = self.measure(self.k - 1);
            if m > 1 || (m == 1 && !self.cvc(self.k - 1)) {
                self.k -= 1;
            }
        }
        if self.b[self.k] == b'l' && self.double_consonant(self.k) && self.measure(self.k - 1) > 1 {
            self.k -= 1;
        }
        self.b.truncate(self.k + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(pairs: &[(&str, &str)]) {
        for &(input, expected) in pairs {
            assert_eq!(porter_stem(input), expected, "stem({input:?})");
        }
    }

    #[test]
    fn step1a_plurals() {
        check(&[
            ("caresses", "caress"),
            ("ponies", "poni"),
            ("ties", "ti"),
            ("caress", "caress"),
            ("cats", "cat"),
        ]);
    }

    #[test]
    fn step1b_ed_ing() {
        check(&[
            ("feed", "feed"),
            // Step 1b alone yields "agree"; the final -e then falls to step
            // 5a, giving the canonical full-algorithm output "agre" (the
            // same stem "agree" itself maps to).
            ("agreed", "agre"),
            ("plastered", "plaster"),
            ("motoring", "motor"),
            ("sing", "sing"),
            ("conflated", "conflat"),
            ("troubled", "troubl"),
            ("sized", "size"),
            ("hopping", "hop"),
            ("tanned", "tan"),
            ("falling", "fall"),
            ("hissing", "hiss"),
            ("failing", "fail"),
            ("filing", "file"),
        ]);
    }

    #[test]
    fn step1c_y_to_i() {
        check(&[("happy", "happi"), ("sky", "sky")]);
    }

    #[test]
    fn multi_step_words() {
        check(&[
            ("relational", "relat"),
            ("conditional", "condit"),
            ("electrical", "electr"),
            ("electricity", "electr"),
            ("hopeful", "hope"),
            ("goodness", "good"),
            ("adjustment", "adjust"),
            ("consistency", "consist"),
            ("dependent", "depend"),
            ("hypertension", "hypertens"),
            ("classification", "classif"),
            ("databases", "databas"),
        ]);
    }

    #[test]
    fn short_words_unchanged() {
        check(&[("a", "a"), ("at", "at"), ("is", "is"), ("be", "be")]);
    }

    #[test]
    fn non_ascii_unchanged() {
        assert_eq!(porter_stem("naïve"), "naïve");
        assert_eq!(porter_stem("word2vec"), "word2vec");
    }

    #[test]
    fn stemming_is_idempotent_on_common_words() {
        for w in [
            "computation",
            "running",
            "databases",
            "selection",
            "probabilities",
        ] {
            let once = porter_stem(w);
            let twice = porter_stem(&once);
            // Porter is not idempotent in general, but must never panic and
            // must keep output ASCII-lowercase for lowercase input.
            assert!(twice
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit()));
        }
    }
}
