//! Homograph removal and injection — the TUS-I procedure (§4.3).
//!
//! To measure how homograph properties (cardinality, number of meanings)
//! affect detection, the paper first *removes* every naturally occurring
//! homograph from the TUS lake and then *injects* synthetic ones with
//! controlled properties:
//!
//! 1. **Removal**: each ground-truth homograph is rewritten, per semantic
//!    class, into a class-qualified variant, so every remaining value has a
//!    single meaning.
//! 2. **Injection**: a new homograph is created by picking `meanings`
//!    different values from attributes of `meanings` different (non-unionable)
//!    classes and replacing all of their occurrences with one fresh token
//!    `InjectedHomographN`. Only string values of length ≥ 3 are replaced,
//!    and the attributes they are drawn from must have at least
//!    `min_attr_cardinality` distinct values (Table 2 varies exactly this
//!    threshold).

use std::collections::{BTreeMap, BTreeSet};

use lake::value::normalize;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::truth::GeneratedLake;

/// Configuration for homograph injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct InjectionConfig {
    /// Number of homographs to inject.
    pub count: usize,
    /// Number of meanings per injected homograph (values replaced per token).
    pub meanings: usize,
    /// Minimum number of distinct values an attribute must have for its
    /// values to be eligible for replacement.
    pub min_attr_cardinality: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for InjectionConfig {
    fn default() -> Self {
        InjectionConfig {
            count: 50,
            meanings: 2,
            min_attr_cardinality: 0,
            seed: 7,
        }
    }
}

/// The outcome of an injection run.
#[derive(Debug, Clone)]
pub struct InjectionResult {
    /// The lake with homographs injected (ground-truth classes unchanged).
    pub lake: GeneratedLake,
    /// Normalized injected tokens (e.g. `INJECTEDHOMOGRAPH3`), in order.
    pub injected: Vec<String>,
}

/// Minimum length of a value eligible for replacement (the paper replaces
/// only string values with at least three characters).
const MIN_VALUE_LEN: usize = 3;

/// Rewrite every ground-truth homograph into per-class variants so that the
/// resulting lake has no homographs at all (the starting point of TUS-I).
///
/// A homograph `v` occurring in attributes of classes `c1, c2, …` becomes
/// `v__c1` in the attributes of class `c1`, `v__c2` in those of class `c2`,
/// and so on. Attribute classes are unchanged, so the returned lake's ground
/// truth reports no homographs.
pub fn remove_homographs(lake: &GeneratedLake) -> GeneratedLake {
    let homographs: BTreeSet<String> = lake.homograph_set();
    let truth = lake.truth.clone();
    let mut tables: Vec<_> = lake.catalog.tables().cloned().collect();
    for table in &mut tables {
        let table_name = table.name().to_owned();
        for column in table.columns_mut() {
            let class = match truth.class_of(&table_name, column.name()) {
                Some(c) => c.to_owned(),
                None => continue,
            };
            let present: Vec<String> = column
                .distinct_values()
                .filter(|v| homographs.contains(*v))
                .map(str::to_owned)
                .collect();
            for value in present {
                let replacement = format!("{value}__{}", class.to_uppercase());
                column.replace_value(&value, &replacement);
            }
        }
    }
    let catalog = lake::catalog::LakeCatalog::from_tables(tables)
        .expect("table names unchanged by homograph removal");
    GeneratedLake { catalog, truth }
}

/// Inject `config.count` homographs with `config.meanings` meanings each into
/// a (preferably homograph-free) lake.
///
/// Values to replace are drawn from attributes whose cardinality is at least
/// `config.min_attr_cardinality`, from `config.meanings` *distinct* semantic
/// classes per injected token, and each selected value is replaced everywhere
/// it occurs in the lake.
///
/// Returns `None` if the lake does not contain enough eligible classes.
pub fn inject_homographs(lake: &GeneratedLake, config: InjectionConfig) -> Option<InjectionResult> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let truth = lake.truth.clone();

    // class -> eligible (normalized) values, drawn from attributes of that
    // class with sufficient cardinality.
    let mut eligible: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for attr in lake.catalog.attribute_ids() {
        let aref = lake.catalog.attribute_ref(attr).expect("valid attr id");
        let class = match truth.class_of(&aref.table, &aref.column) {
            Some(c) => c.to_owned(),
            None => continue,
        };
        if lake.catalog.attribute_cardinality(attr) < config.min_attr_cardinality {
            continue;
        }
        let entry = eligible.entry(class).or_default();
        for &vid in lake.catalog.attribute_values(attr) {
            let value = lake.catalog.value(vid).expect("valid value id");
            if value.chars().count() >= MIN_VALUE_LEN && value.parse::<f64>().is_err() {
                entry.insert(value.to_owned());
            }
        }
    }
    // Only classes that actually have replaceable values count.
    let mut classes: Vec<String> = eligible
        .iter()
        .filter(|(_, vs)| !vs.is_empty())
        .map(|(c, _)| c.clone())
        .collect();
    if classes.len() < config.meanings || config.meanings < 2 {
        return None;
    }

    // Plan all replacements first (value -> injected token), making sure a
    // value is only used once.
    let mut used: BTreeSet<String> = BTreeSet::new();
    let mut plan: Vec<(String, String)> = Vec::new(); // (normalized value, token)
    let mut injected = Vec::with_capacity(config.count);
    for i in 0..config.count {
        let token = format!("InjectedHomograph{i}");
        classes.shuffle(&mut rng);
        let mut chosen = 0usize;
        for class in classes.iter() {
            if chosen == config.meanings {
                break;
            }
            let candidates: Vec<&String> = eligible[class]
                .iter()
                .filter(|v| !used.contains(*v))
                .collect();
            if let Some(&value) = candidates.choose(&mut rng) {
                used.insert(value.clone());
                plan.push((value.clone(), token.clone()));
                chosen += 1;
            }
        }
        if chosen < config.meanings {
            // Not enough distinct classes with fresh values left.
            return None;
        }
        injected.push(normalize(&token));
    }

    // Apply the plan to the tables.
    let replacement_of: BTreeMap<&str, &str> =
        plan.iter().map(|(v, t)| (v.as_str(), t.as_str())).collect();
    let mut tables: Vec<_> = lake.catalog.tables().cloned().collect();
    for table in &mut tables {
        for column in table.columns_mut() {
            let present: Vec<(String, String)> = column
                .distinct_values()
                .filter_map(|v| {
                    replacement_of
                        .get(v)
                        .map(|&token| (v.to_owned(), token.to_owned()))
                })
                .collect();
            for (value, token) in present {
                column.replace_value(&value, &token);
            }
        }
    }
    let catalog = lake::catalog::LakeCatalog::from_tables(tables)
        .expect("table names unchanged by injection");
    Some(InjectionResult {
        lake: GeneratedLake { catalog, truth },
        injected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tus::{TusConfig, TusGenerator};

    fn clean_lake(seed: u64) -> GeneratedLake {
        let lake = TusGenerator::new(TusConfig::small(seed)).generate();
        remove_homographs(&lake)
    }

    #[test]
    fn removal_eliminates_all_homographs() {
        let lake = TusGenerator::new(TusConfig::small(11)).generate();
        assert!(
            !lake.homographs().is_empty(),
            "TUS-like lake starts with homographs"
        );
        let clean = remove_homographs(&lake);
        assert!(
            clean.homographs().is_empty(),
            "after removal no homographs remain: {:?}",
            clean.homographs().keys().take(5).collect::<Vec<_>>()
        );
        // The lake keeps its shape.
        assert_eq!(clean.catalog.table_count(), lake.catalog.table_count());
        assert_eq!(
            clean.catalog.attribute_count(),
            lake.catalog.attribute_count()
        );
    }

    #[test]
    fn injection_creates_exactly_the_requested_homographs() {
        let clean = clean_lake(12);
        let config = InjectionConfig {
            count: 10,
            meanings: 2,
            min_attr_cardinality: 0,
            seed: 3,
        };
        let result = inject_homographs(&clean, config).expect("enough classes");
        assert_eq!(result.injected.len(), 10);
        let homographs = result.lake.homographs();
        for token in &result.injected {
            assert!(
                homographs.contains_key(token),
                "{token} should be a ground-truth homograph after injection"
            );
            assert!(homographs[token] >= 2);
        }
        // The injected tokens are the *only* homographs in the clean lake.
        assert_eq!(homographs.len(), result.injected.len());
    }

    #[test]
    fn injection_respects_meanings_count() {
        let clean = clean_lake(13);
        let config = InjectionConfig {
            count: 5,
            meanings: 4,
            min_attr_cardinality: 0,
            seed: 5,
        };
        let result = inject_homographs(&clean, config).expect("enough classes");
        let homographs = result.lake.homographs();
        for token in &result.injected {
            assert_eq!(
                homographs.get(token),
                Some(&4),
                "{token} should span 4 classes"
            );
        }
    }

    #[test]
    fn injection_respects_cardinality_threshold() {
        let clean = clean_lake(14);
        let threshold = 50;
        let config = InjectionConfig {
            count: 8,
            meanings: 2,
            min_attr_cardinality: threshold,
            seed: 9,
        };
        let result = inject_homographs(&clean, config).expect("enough large attributes");
        // Every injected token must appear in at least two attributes whose
        // *post-injection* cardinality is still >= threshold (replacement
        // preserves distinct counts).
        for token in &result.injected {
            let vid = result.lake.catalog.value_id(token).expect("token present");
            let attrs = result.lake.catalog.value_attributes(vid);
            let large = attrs
                .iter()
                .filter(|&&a| result.lake.catalog.attribute_cardinality(a) >= threshold)
                .count();
            assert!(large >= 2, "{token} not drawn from large attributes");
        }
    }

    #[test]
    fn injection_fails_gracefully_when_impossible() {
        let clean = clean_lake(15);
        // Impossibly high cardinality threshold leaves no eligible classes.
        let config = InjectionConfig {
            count: 1,
            meanings: 2,
            min_attr_cardinality: usize::MAX,
            seed: 1,
        };
        assert!(inject_homographs(&clean, config).is_none());
        // meanings < 2 is not a homograph.
        let config = InjectionConfig {
            count: 1,
            meanings: 1,
            min_attr_cardinality: 0,
            seed: 1,
        };
        assert!(inject_homographs(&clean, config).is_none());
    }

    #[test]
    fn injection_is_deterministic() {
        let clean = clean_lake(16);
        let config = InjectionConfig {
            count: 6,
            meanings: 3,
            min_attr_cardinality: 10,
            seed: 21,
        };
        let a = inject_homographs(&clean, config).unwrap();
        let b = inject_homographs(&clean, config).unwrap();
        assert_eq!(a.injected, b.injected);
        assert_eq!(a.lake.homographs(), b.lake.homographs());
    }
}
