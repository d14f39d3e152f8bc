//! Content addressing for workloads: a canonical, expansion-level
//! descriptor and its FNV-1a hash, the cache key of the serve layer.
//!
//! Two spec texts that *mean* the same workload must hash to the same
//! key, however they were written: key order, whitespace, and comments
//! vanish in parsing; symbolic strategy arguments (`nonuniform(dist)`)
//! and their resolved forms (`nonuniform(8)`) converge at expansion.
//! Hashing the canonical serialization of the **expanded plan** — not
//! the raw text, and not even the canonical spec form — therefore keys
//! results by what would actually run. Everything that feeds report
//! bytes is in the descriptor: name, key, description, metrics, and
//! every planned cell down to its seed tag and resolved population.
//! Observability stays out by design: no telemetry handle, counter, or
//! snapshot ever reaches the descriptor, so attaching telemetry can
//! never change a cache key or flag drift
//! (`crates/serve/src/cache.rs` pins this from the key side).

use crate::plan::WorkloadPlan;
use std::fmt::Write as _;

/// 128-bit FNV-1a over a byte stream. Dependency-free, stable across
/// platforms, and wide enough that a content-addressed cache shared by
/// many users never worries about accidental collisions (the 64-bit
/// variant's birthday bound is within reach of a large cache; 128 bits
/// is not).
#[derive(Debug, Clone, Copy)]
pub struct Fnv128(u128);

const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

impl Fnv128 {
    /// A fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Fnv128 {
        Fnv128(FNV128_OFFSET)
    }

    /// Fold bytes into the state.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u128::from(b);
            self.0 = self.0.wrapping_mul(FNV128_PRIME);
        }
    }

    /// Fold a length-delimited field: the bytes plus a NUL terminator,
    /// so `("ab", "c")` and `("a", "bc")` hash differently.
    pub fn field(&mut self, text: &str) {
        self.write(text.as_bytes());
        self.write(&[0]);
    }

    /// The digest as 32 lowercase hex characters.
    pub fn finish_hex(self) -> String {
        format!("{:032x}", self.0)
    }
}

impl Default for Fnv128 {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkloadPlan {
    /// The canonical descriptor the content hash covers: one line per
    /// fact, in a fixed order. Human-readable on purpose — the serve
    /// cache stores it next to each entry so a key can be audited by
    /// eye, and a test can assert *why* two specs collide or do not.
    pub fn cache_descriptor(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "plan-descriptor/v3");
        let _ = writeln!(out, "name={}", self.name);
        let _ = writeln!(out, "key={}", self.key);
        let _ = writeln!(out, "description={}", self.description.escape_default());
        let metrics: Vec<&str> = self.metrics.iter().map(|m| m.as_str()).collect();
        let _ = writeln!(out, "metrics={}", metrics.join(","));
        for cell in &self.cells {
            let _ = writeln!(
                out,
                "cell label={} agents={} target={} budget={} ceiling={} trials={} smoke={} \
                 seed_tag={:016x} backend={} population={}",
                cell.label,
                cell.agents,
                cell.target_label(),
                cell.move_budget,
                cell.guess_move_ceiling.map_or_else(|| "-".to_string(), |c| c.to_string()),
                cell.trials,
                cell.smoke_trials,
                cell.seed_tag,
                cell.backend,
                cell.population_label(),
            );
        }
        out
    }

    /// The 128-bit content hash of [`WorkloadPlan::cache_descriptor`],
    /// as 32 hex characters.
    pub fn content_hash(&self) -> String {
        let mut h = Fnv128::new();
        h.field(&self.cache_descriptor());
        h.finish_hex()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadSpec;

    fn hash_of(text: &str) -> String {
        WorkloadPlan::expand(&WorkloadSpec::parse(text).unwrap()).unwrap().content_hash()
    }

    const BASE: &str = "\
name = \"canon\"
[defaults]
trials = 8
seed = 5
[[cells]]
name = \"c\"
agents = 2
target = { model = \"ball\", dist = 8 }
population = [ { strategy = \"nonuniform(dist)\", weight = 2 } ]
";

    /// Key order, whitespace, comments, and symbolic-vs-resolved
    /// arguments are spelling, not meaning: all hash identically.
    #[test]
    fn semantically_identical_specs_hash_equal() {
        let reordered = "\
name = \"canon\"
[defaults]
seed = 5        # comment
trials = 8

[[cells]]
agents   = 2
name     = \"c\"
population = [
  { weight = 2, strategy = \"nonuniform(dist)\" },
]
target = { dist = 8, model = \"ball\" }
";
        // `dist` is 8, so the symbolic argument resolves to the same
        // strategy as writing it out.
        let resolved = BASE.replace("nonuniform(dist)", "nonuniform(8)");
        assert_eq!(hash_of(BASE), hash_of(reordered));
        assert_eq!(hash_of(BASE), hash_of(&resolved));
    }

    /// Any one-bit semantic change misses: different trials, seed,
    /// agents, weight, metric set, or description all move the key.
    #[test]
    fn semantic_changes_move_the_hash() {
        let base = hash_of(BASE);
        for (from, to) in [
            ("trials = 8", "trials = 9"),
            ("seed = 5", "seed = 6"),
            ("agents = 2", "agents = 3"),
            ("weight = 2", "weight = 3"),
            ("dist = 8", "dist = 9"),
            ("name = \"canon\"", "name = \"canon2\""),
        ] {
            let changed = BASE.replace(from, to);
            assert_ne!(base, hash_of(&changed), "{from} -> {to} did not move the hash");
        }
        let with_metrics = format!("{BASE}\n")
            .replace("name = \"canon\"\n", "name = \"canon\"\nmetrics = [\"coverage\"]\n");
        assert_ne!(base, hash_of(&with_metrics));
    }

    #[test]
    fn descriptor_is_readable_and_versioned() {
        let plan = WorkloadPlan::expand(&WorkloadSpec::parse(BASE).unwrap()).unwrap();
        let d = plan.cache_descriptor();
        assert!(d.starts_with("plan-descriptor/v3\n"), "{d}");
        assert!(d.contains("cell label=c agents=2 target=ball(8)"), "{d}");
        assert!(d.contains("backend=mc population=2:nonuniform(8)"), "{d}");
        assert_eq!(plan.content_hash().len(), 32);
    }

    #[test]
    fn fnv128_is_field_delimited() {
        let mut a = Fnv128::new();
        a.field("ab");
        a.field("c");
        let mut b = Fnv128::new();
        b.field("a");
        b.field("bc");
        assert_ne!(a.finish_hex(), b.finish_hex());
        assert_eq!(Fnv128::new().finish_hex(), Fnv128::default().finish_hex());
    }
}
