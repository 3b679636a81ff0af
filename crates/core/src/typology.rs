//! The Figure 4 typology: three axes and the classification registry.
//!
//! The paper's central contribution is a three-level classification of
//! trust and reputation systems:
//!
//! * **Centralized vs. decentralized** — who manages reputation state;
//! * **Person/agent vs. resource** — whether people/agents or
//!   products/services are being scored;
//! * **Global vs. personalized** — whether everyone sees the same
//!   reputation or each member computes their own.
//!
//! Every mechanism in this crate self-reports its coordinates via
//! [`MechanismInfo`]; [`PUBLISHED`] transcribes where the paper puts each
//! system, and [`render_figure4`] draws the tree from the reports.
//! Experiment `exp_fig4_tree` checks the reports against the
//! transcription and prints the tree.

use std::fmt;

/// First axis: where reputation state lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Centralization {
    /// "A central node will take all the responsibilities of managing
    /// reputations for all the members."
    Centralized,
    /// "The members in the system have to cooperate and share the
    /// responsibilities to manage reputation."
    Decentralized,
}

/// Second axis: what kind of entity is scored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Subject {
    /// People or agents acting on behalf of people (eBay sellers, peers).
    PersonAgent,
    /// Resources: products or services (Amazon items, web services).
    Resource,
    /// Systems that score both (the paper's decentralized web-service
    /// branch is labelled "Person agent/resource").
    Both,
}

/// Third axis: whose opinion the reputation reflects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Scope {
    /// One public value computed from the whole population.
    Global,
    /// Each member derives their own value from members they select.
    Personalized,
}

impl fmt::Display for Centralization {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Centralization::Centralized => "centralized",
            Centralization::Decentralized => "decentralized",
        })
    }
}

impl fmt::Display for Subject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Subject::PersonAgent => "person/agent",
            Subject::Resource => "resource",
            Subject::Both => "person-agent/resource",
        })
    }
}

impl fmt::Display for Scope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Scope::Global => "global",
            Scope::Personalized => "personalized",
        })
    }
}

/// A mechanism's coordinates in the typology, plus provenance.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MechanismInfo {
    /// Short stable identifier (`"eigentrust"`, `"sporas"`, …).
    pub key: &'static str,
    /// Human-readable system name as the paper cites it.
    pub display: &'static str,
    /// First axis.
    pub centralization: Centralization,
    /// Second axis.
    pub subject: Subject,
    /// Third axis.
    pub scope: Scope,
    /// The survey's bracketed reference numbers for the system.
    pub citation: &'static str,
    /// Whether the paper marks it (bold + underline in Figure 4) as one of
    /// the mechanisms already proposed *for web services*.
    pub proposed_for_web_services: bool,
}

impl MechanismInfo {
    /// The `(centralization, subject, scope)` triple — the leaf position in
    /// Figure 4.
    pub fn coordinates(&self) -> (Centralization, Subject, Scope) {
        (self.centralization, self.subject, self.scope)
    }
}

impl fmt::Display for MechanismInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}]: {} / {} / {}",
            self.display, self.citation, self.centralization, self.subject, self.scope
        )
    }
}

/// Figure 4 as the paper draws it: each system's key and leaf, in the
/// figure's left-to-right order. The mechanisms in [`crate::mechanisms`]
/// each report their own [`MechanismInfo`]; this transcription is what
/// those reports are checked against.
pub const PUBLISHED: [(&str, Centralization, Subject, Scope); 21] = {
    use Centralization::*;
    use Scope::*;
    use Subject::*;
    [
        ("ebay", Centralized, PersonAgent, Global),
        ("sporas", Centralized, PersonAgent, Global),
        ("histos", Centralized, PersonAgent, Personalized),
        ("pagerank", Centralized, Resource, Global),
        ("amazon", Centralized, Resource, Global),
        ("epinions", Centralized, Resource, Global),
        ("cf", Centralized, Resource, Personalized),
        ("maximilien", Centralized, Resource, Personalized),
        ("lnz", Centralized, Resource, Personalized),
        ("manikrao", Centralized, Resource, Personalized),
        ("day", Centralized, Resource, Personalized),
        ("karta", Centralized, Resource, Personalized),
        ("yu_singh", Decentralized, PersonAgent, Personalized),
        ("yolum_singh", Decentralized, PersonAgent, Personalized),
        ("damiani", Decentralized, PersonAgent, Personalized),
        ("wang_vassileva", Decentralized, PersonAgent, Personalized),
        ("social", Decentralized, PersonAgent, Global),
        ("complaints", Decentralized, PersonAgent, Global),
        ("peertrust", Decentralized, PersonAgent, Global),
        ("eigentrust", Decentralized, PersonAgent, Global),
        ("vu", Decentralized, Both, Personalized),
    ]
};

/// Render the classification as the three-level tree of Figure 4. Systems
/// proposed for web services are marked with `*` (the paper uses bold and
/// underline).
pub fn render_figure4(entries: &[MechanismInfo]) -> String {
    use std::collections::BTreeMap;
    let mut tree: BTreeMap<(Centralization, Subject, Scope), Vec<&MechanismInfo>> = BTreeMap::new();
    for e in entries {
        tree.entry(e.coordinates()).or_default().push(e);
    }
    let mut out = String::from("Trust and Reputation System\n");
    let mut last: Option<(Centralization, Subject)> = None;
    for ((c, s, g), infos) in &tree {
        if last.map(|(lc, _)| lc) != Some(*c) {
            out.push_str(&format!("  {c}\n"));
        }
        if last != Some((*c, *s)) {
            out.push_str(&format!("    {s}\n"));
        }
        last = Some((*c, *s));
        out.push_str(&format!("      {g}\n"));
        for info in infos {
            let marker = if info.proposed_for_web_services {
                " *"
            } else {
                ""
            };
            out.push_str(&format!(
                "        {} [{}]{}\n",
                info.display, info.citation, marker
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanisms::all_figure4_mechanisms;

    /// Every Figure-4 mechanism's own report, in the figure's order.
    fn reported() -> Vec<MechanismInfo> {
        all_figure4_mechanisms().iter().map(|m| m.info()).collect()
    }

    #[test]
    fn keys_are_unique() {
        let mut keys: Vec<_> = PUBLISHED.iter().map(|&(key, ..)| key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), PUBLISHED.len());
    }

    #[test]
    fn web_service_mechanisms_match_the_papers_bold_entries() {
        // The paper bolds [13, 16, 18-21] (plus Manikrao/Day in the
        // centralized-resource-personalized leaf) and Vu et al. in the
        // decentralized branch.
        let ws: Vec<_> = reported()
            .into_iter()
            .filter(|e| e.proposed_for_web_services)
            .map(|e| e.key)
            .collect();
        assert_eq!(
            ws,
            vec!["maximilien", "lnz", "manikrao", "day", "karta", "vu"]
        );
    }

    #[test]
    fn all_ws_mechanisms_except_vu_are_centralized_resource_personalized() {
        // Section 5: "most of the current trust and reputation mechanisms
        // proposed for web services belong to one branch … centralized,
        // resources-based, and personalized".
        for e in reported().iter().filter(|e| e.proposed_for_web_services) {
            if e.key == "vu" {
                assert_eq!(e.centralization, Centralization::Decentralized);
            } else {
                assert_eq!(
                    e.coordinates(),
                    (
                        Centralization::Centralized,
                        Subject::Resource,
                        Scope::Personalized
                    ),
                    "{}",
                    e.key
                );
            }
        }
    }

    #[test]
    fn ebay_is_centralized_person_global() {
        assert!(PUBLISHED.contains(&(
            "ebay",
            Centralization::Centralized,
            Subject::PersonAgent,
            Scope::Global
        )));
    }

    #[test]
    fn eigentrust_is_decentralized_person_global() {
        assert!(PUBLISHED.contains(&(
            "eigentrust",
            Centralization::Decentralized,
            Subject::PersonAgent,
            Scope::Global
        )));
    }

    #[test]
    fn rendering_contains_all_axis_labels_and_marks() {
        let text = render_figure4(&reported());
        for label in [
            "centralized",
            "decentralized",
            "person/agent",
            "resource",
            "global",
            "personalized",
        ] {
            assert!(text.contains(label), "missing {label}");
        }
        assert!(text.contains("EigenTrust"));
        assert!(text.contains("* ") || text.contains("]*") || text.contains("] *"));
    }

    #[test]
    fn display_formats_info() {
        let s = reported()[0].to_string();
        assert!(s.contains("eBay"));
        assert!(s.contains("centralized"));
    }
}
