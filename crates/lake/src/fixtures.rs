//! Small built-in lakes used in documentation, examples, and tests.

use crate::catalog::LakeCatalog;
use crate::table::TableBuilder;

/// The four-table running example of Figure 1 in the paper.
///
/// * `T1` — corporate donations to protect at-risk species,
/// * `T2` — animal populations in zoos,
/// * `T3` — car imports,
/// * `T4` — corporate revenue.
///
/// `Jaguar` (animal in T1/T2, car maker in T3, company in T4) and `Puma`
/// (animal in T1, company in T4) are homographs; `Panda` and `Toyota` repeat
/// but keep a single meaning.
///
/// ```
/// let lake = lake::fixtures::running_example();
/// assert_eq!(lake.table_count(), 4);
/// assert_eq!(lake.attribute_count(), 12);
/// ```
pub fn running_example() -> LakeCatalog {
    let t1 = TableBuilder::new("T1")
        .column("Donor", ["Google", "Volkswagen", "BMW", "Amazon"])
        .column("At Risk", ["Panda", "Puma", "Jaguar", "Pelican"])
        .column("Donation", ["1M", "2M", "0.9M", "1.5M"])
        .build()
        .expect("running example T1 is rectangular");
    let t2 = TableBuilder::new("T2")
        .column("name", ["Panda", "Panda", "Lemur", "Jaguar"])
        .column("locale", ["Memphis", "Atlanta", "National", "San Diego"])
        .column("num", ["2", "2", "20", "8"])
        .build()
        .expect("running example T2 is rectangular");
    let t3 = TableBuilder::new("T3")
        .column("C1", ["XE", "Prius", "500"])
        .column("C2", ["Jaguar", "Toyota", "Fiat"])
        .column("C3", ["UK", "Japan", "Italy"])
        .build()
        .expect("running example T3 is rectangular");
    let t4 = TableBuilder::new("T4")
        .column("Name", ["Jaguar", "Puma", "Apple", "Toyota"])
        .column("Revenue", ["25.80", "4.64", "456", "123"])
        .column("Total", ["43224", "13000", "370870", "123456"])
        .build()
        .expect("running example T4 is rectangular");
    LakeCatalog::from_tables([t1, t2, t3, t4]).expect("running example tables have unique names")
}

/// The ground-truth homographs of the running example (normalized form).
pub fn running_example_homographs() -> Vec<&'static str> {
    vec!["JAGUAR", "PUMA"]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_example_has_expected_shape() {
        let lake = running_example();
        assert_eq!(lake.table_count(), 4);
        assert_eq!(lake.attribute_count(), 12);
        for h in running_example_homographs() {
            let id = lake.value_id(h).expect("homograph present");
            assert!(lake.value_attribute_count(id) >= 2);
        }
    }
}
