//! The Figure 3 taxonomy as a walkable tree.
//!
//! Figure 3 of the paper arranges the W3C QoS metrics in a two-level tree:
//! categories (performance, dependability, …) with metric leaves. The
//! experiment `exp_fig3` re-emits this tree from code, so the taxonomy is a
//! first-class value here rather than documentation.

use crate::metric::{Category, Metric};
use std::collections::BTreeMap;

/// The QoS taxonomy of Figure 3: categories mapped to their metric leaves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Taxonomy {
    branches: BTreeMap<Category, Vec<Metric>>,
}

impl Taxonomy {
    /// Build the standard W3C taxonomy (all non-application-specific
    /// metrics), grouped by category.
    pub fn standard() -> Self {
        let mut branches: BTreeMap<Category, Vec<Metric>> = BTreeMap::new();
        for m in Metric::ALL_STANDARD {
            branches.entry(m.category()).or_default().push(m);
        }
        Taxonomy { branches }
    }

    /// Iterate `(category, metrics)` pairs in stable category order.
    pub(crate) fn branches(&self) -> impl Iterator<Item = (Category, &[Metric])> {
        self.branches.iter().map(|(c, ms)| (*c, ms.as_slice()))
    }

    /// Iterate every metric leaf in the taxonomy.
    pub fn metrics(&self) -> impl Iterator<Item = Metric> + '_ {
        self.branches.values().flatten().copied()
    }

    /// Render the tree as indented text, the form `exp_fig3` prints.
    pub fn render(&self) -> String {
        let mut out = String::from("QoS for web services\n");
        for (cat, metrics) in self.branches() {
            out.push_str(&format!("  {cat}\n"));
            for m in metrics {
                out.push_str(&format!("    {m}\n"));
            }
        }
        out
    }
}

impl Default for Taxonomy {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(tax: &Taxonomy, category: Category) -> usize {
        tax.branches()
            .find(|(c, _)| *c == category)
            .map_or(0, |(_, metrics)| metrics.len())
    }

    #[test]
    fn standard_taxonomy_covers_all_standard_metrics() {
        let tax = Taxonomy::standard();
        assert_eq!(tax.metrics().count(), Metric::ALL_STANDARD.len());
        for m in Metric::ALL_STANDARD {
            assert!(tax.metrics().any(|x| x == m), "{m} missing");
        }
    }

    #[test]
    fn performance_branch_has_four_leaves() {
        // Figure 3 lists processing time, throughput, response time, latency.
        let tax = Taxonomy::standard();
        assert_eq!(leaves(&tax, Category::Performance), 4);
    }

    #[test]
    fn dependability_branch_has_eight_leaves() {
        let tax = Taxonomy::standard();
        assert_eq!(leaves(&tax, Category::Dependability), 8);
    }

    #[test]
    fn render_mentions_every_category() {
        let text = Taxonomy::standard().render();
        for cat in ["performance", "dependability", "integrity", "security"] {
            assert!(text.contains(cat), "missing {cat} in rendering");
        }
    }

    #[test]
    fn metrics_in_unknown_category_is_empty() {
        let tax = Taxonomy::standard();
        assert_eq!(leaves(&tax, Category::ApplicationSpecific), 0);
    }
}
