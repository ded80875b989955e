//! Deterministic pseudo-natural name and word synthesis.
//!
//! Entities, topic words, attribute-value names and filler words all need
//! unique, pronounceable surface forms. We compose them from syllables so
//! that (a) forms are readable in case studies, (b) the generator never
//! collides (a global used-set enforces uniqueness), and (c) everything is
//! reproducible from the world seed.

use rand::Rng;
use std::collections::HashSet;
use ultra_core::rng::UltraRng;

const ONSETS: &[&str] = &[
    "b", "br", "c", "ch", "d", "dr", "f", "g", "gr", "h", "j", "k", "kl", "l", "m", "n", "p", "pr",
    "qu", "r", "s", "sh", "st", "t", "tr", "v", "w", "x", "y", "z", "zh",
];
const NUCLEI: &[&str] = &[
    "a", "e", "i", "o", "u", "ai", "ao", "ei", "ia", "ou", "ua", "uo",
];
const CODAS: &[&str] = &["", "", "", "n", "ng", "r", "s", "l", "k", "m"];

/// Uniqueness-enforcing name factory.
#[derive(Debug, Default)]
pub struct NameFactory {
    used: HashSet<String>,
}

impl NameFactory {
    /// Creates an empty factory.
    pub fn new() -> Self {
        Self::default()
    }

    /// One random syllable.
    fn syllable(rng: &mut UltraRng) -> String {
        let mut s = String::new();
        s.push_str(ONSETS[rng.gen_range(0..ONSETS.len())]);
        s.push_str(NUCLEI[rng.gen_range(0..NUCLEI.len())]);
        s.push_str(CODAS[rng.gen_range(0..CODAS.len())]);
        s
    }

    /// One lowercase pseudo-word of `syllables` syllables.
    fn word(rng: &mut UltraRng, syllables: usize) -> String {
        (0..syllables).map(|_| Self::syllable(rng)).collect()
    }

    /// A unique lowercase word (2–3 syllables) — topic/marker/filler tokens.
    pub fn unique_word(&mut self, rng: &mut UltraRng) -> String {
        loop {
            let n = rng.gen_range(2..=3);
            let w = Self::word(rng, n);
            if self.used.insert(w.clone()) {
                return w;
            }
        }
    }

    /// A unique capitalized entity name of 1–2 words, 2–3 syllables each,
    /// e.g. `"Xinyang"` or `"Graulan Shosei"`.
    pub fn unique_entity_name(&mut self, rng: &mut UltraRng) -> String {
        loop {
            let words = rng.gen_range(1..=2);
            let name = (0..words)
                .map(|_| {
                    let n = rng.gen_range(2..=3);
                    capitalize(&Self::word(rng, n))
                })
                .collect::<Vec<_>>()
                .join(" ");
            if self.used.insert(name.to_lowercase()) {
                return name;
            }
        }
    }

    /// A unique capitalized name built around a shared affix word, e.g.
    /// `"Port Alenzhu"` or `"Kronai Airport"`. Shared affixes give entity
    /// names overlapping token prefixes/suffixes — the structure that makes
    /// the candidate prefix tree (paper Figure 6) non-trivial and lets
    /// unconstrained decoding recombine words into *invalid* names.
    pub fn unique_affixed_name(
        &mut self,
        rng: &mut UltraRng,
        affix: &str,
        affix_is_prefix: bool,
    ) -> String {
        loop {
            let n = rng.gen_range(2..=3);
            let stem = capitalize(&Self::word(rng, n));
            let name = if affix_is_prefix {
                format!("{affix} {stem}")
            } else {
                format!("{stem} {affix}")
            };
            if self.used.insert(name.to_lowercase()) {
                return name;
            }
        }
    }

    /// A unique capitalized value name, e.g. `"Kronai"` for a province.
    pub fn unique_value_name(&mut self, rng: &mut UltraRng) -> String {
        loop {
            let n = rng.gen_range(2..=3);
            let name = capitalize(&Self::word(rng, n));
            if self.used.insert(name.to_lowercase()) {
                return name;
            }
        }
    }
}

fn capitalize(w: &str) -> String {
    let mut chars = w.chars();
    match chars.next() {
        Some(c) => c.to_uppercase().collect::<String>() + chars.as_str(),
        None => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ultra_core::derive_rng;

    #[test]
    fn names_are_unique_across_kinds() {
        let mut rng = derive_rng(1, 0);
        let mut f = NameFactory::new();
        let mut all = HashSet::new();
        for _ in 0..200 {
            assert!(all.insert(f.unique_word(&mut rng)));
            assert!(all.insert(f.unique_entity_name(&mut rng).to_lowercase()));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let mut r1 = derive_rng(9, 1);
        let mut r2 = derive_rng(9, 1);
        let mut f1 = NameFactory::new();
        let mut f2 = NameFactory::new();
        for _ in 0..50 {
            assert_eq!(
                f1.unique_entity_name(&mut r1),
                f2.unique_entity_name(&mut r2)
            );
        }
    }

    #[test]
    fn entity_names_are_capitalized() {
        let mut rng = derive_rng(2, 0);
        let mut f = NameFactory::new();
        for _ in 0..20 {
            let n = f.unique_entity_name(&mut rng);
            assert!(n.chars().next().unwrap().is_uppercase(), "{n}");
        }
    }

    #[test]
    fn words_are_lowercase_alphabetic() {
        let mut rng = derive_rng(3, 0);
        let mut f = NameFactory::new();
        for _ in 0..50 {
            let w = f.unique_word(&mut rng);
            assert!(w.chars().all(|c| c.is_ascii_lowercase()), "{w}");
        }
    }
}
