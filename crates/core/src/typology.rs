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
//! [`MechanismInfo`], and [`figure4`] reconstructs the paper's tree from
//! those reports — experiment `exp_fig4_tree` asserts the output matches
//! the published figure.

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

/// The classification of every system named in Figure 4 of the paper, in
/// the figure's left-to-right order.
///
/// This is the *expected* classification; the mechanisms implemented in
/// [`crate::mechanisms`] each return their own [`MechanismInfo`], and the
/// test suite checks those agree with this table.
pub fn figure4() -> Vec<MechanismInfo> {
    use Centralization::*;
    use Scope::*;
    use Subject::*;
    vec![
        MechanismInfo {
            key: "ebay",
            display: "eBay",
            centralization: Centralized,
            subject: PersonAgent,
            scope: Global,
            citation: "7",
            proposed_for_web_services: false,
        },
        MechanismInfo {
            key: "sporas",
            display: "Sporas",
            centralization: Centralized,
            subject: PersonAgent,
            scope: Global,
            citation: "37",
            proposed_for_web_services: false,
        },
        MechanismInfo {
            key: "histos",
            display: "Histos",
            centralization: Centralized,
            subject: PersonAgent,
            scope: Personalized,
            citation: "37",
            proposed_for_web_services: false,
        },
        MechanismInfo {
            key: "pagerank",
            display: "Google PageRank",
            centralization: Centralized,
            subject: Resource,
            scope: Global,
            citation: "23",
            proposed_for_web_services: false,
        },
        MechanismInfo {
            key: "amazon",
            display: "Amazon",
            centralization: Centralized,
            subject: Resource,
            scope: Global,
            citation: "2",
            proposed_for_web_services: false,
        },
        MechanismInfo {
            key: "epinions",
            display: "Epinions",
            centralization: Centralized,
            subject: Resource,
            scope: Global,
            citation: "8",
            proposed_for_web_services: false,
        },
        MechanismInfo {
            key: "cf",
            display: "Collaborative filtering",
            centralization: Centralized,
            subject: Resource,
            scope: Personalized,
            citation: "3",
            proposed_for_web_services: false,
        },
        MechanismInfo {
            key: "maximilien",
            display: "E. M. Maximilien & M. P. Singh",
            centralization: Centralized,
            subject: Resource,
            scope: Personalized,
            citation: "18-21",
            proposed_for_web_services: true,
        },
        MechanismInfo {
            key: "lnz",
            display: "Y. Liu & A. Ngu & L. Zeng",
            centralization: Centralized,
            subject: Resource,
            scope: Personalized,
            citation: "16",
            proposed_for_web_services: true,
        },
        MechanismInfo {
            key: "manikrao",
            display: "U. S. Manikrao & T. V. Prabhakar",
            centralization: Centralized,
            subject: Resource,
            scope: Personalized,
            citation: "17",
            proposed_for_web_services: true,
        },
        MechanismInfo {
            key: "day",
            display: "J. Day",
            centralization: Centralized,
            subject: Resource,
            scope: Personalized,
            citation: "6",
            proposed_for_web_services: true,
        },
        MechanismInfo {
            key: "karta",
            display: "K. Karta",
            centralization: Centralized,
            subject: Resource,
            scope: Personalized,
            citation: "13",
            proposed_for_web_services: true,
        },
        MechanismInfo {
            key: "yu_singh",
            display: "B. Yu & M. Singh",
            centralization: Decentralized,
            subject: PersonAgent,
            scope: Personalized,
            citation: "35, 36",
            proposed_for_web_services: false,
        },
        MechanismInfo {
            key: "yolum_singh",
            display: "P. Yolum & M. Singh",
            centralization: Decentralized,
            subject: PersonAgent,
            scope: Personalized,
            citation: "34",
            proposed_for_web_services: false,
        },
        MechanismInfo {
            key: "damiani",
            display: "E. Damiani",
            centralization: Decentralized,
            subject: PersonAgent,
            scope: Personalized,
            citation: "4",
            proposed_for_web_services: false,
        },
        MechanismInfo {
            key: "wang_vassileva",
            display: "Y. Wang & J. Vassileva",
            centralization: Decentralized,
            subject: PersonAgent,
            scope: Personalized,
            citation: "30, 31",
            proposed_for_web_services: false,
        },
        MechanismInfo {
            key: "social",
            display: "Social-network topology analysis",
            centralization: Decentralized,
            subject: PersonAgent,
            scope: Global,
            citation: "24",
            proposed_for_web_services: false,
        },
        MechanismInfo {
            key: "complaints",
            display: "K. Aberer & Z. Despotovic",
            centralization: Decentralized,
            subject: PersonAgent,
            scope: Global,
            citation: "1",
            proposed_for_web_services: false,
        },
        MechanismInfo {
            key: "peertrust",
            display: "L. Xiong & L. Liu (PeerTrust)",
            centralization: Decentralized,
            subject: PersonAgent,
            scope: Global,
            citation: "33",
            proposed_for_web_services: false,
        },
        MechanismInfo {
            key: "eigentrust",
            display: "Kamvar, Schlosser & Garcia-Molina (EigenTrust)",
            centralization: Decentralized,
            subject: PersonAgent,
            scope: Global,
            citation: "11",
            proposed_for_web_services: false,
        },
        MechanismInfo {
            key: "vu",
            display: "L.-H. Vu, M. Hauswirth & K. Aberer",
            centralization: Decentralized,
            subject: Both,
            scope: Personalized,
            citation: "28, 29",
            proposed_for_web_services: true,
        },
    ]
}

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

    #[test]
    fn figure4_has_21_systems() {
        // The figure lists 21 system entries across its leaves.
        assert_eq!(figure4().len(), 21);
    }

    #[test]
    fn keys_are_unique() {
        let entries = figure4();
        let mut keys: Vec<_> = entries.iter().map(|e| e.key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), entries.len());
    }

    #[test]
    fn web_service_mechanisms_match_the_papers_bold_entries() {
        // The paper bolds [13, 16, 18-21] (plus Manikrao/Day in the
        // centralized-resource-personalized leaf) and Vu et al. in the
        // decentralized branch.
        let ws: Vec<_> = figure4()
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
        for e in figure4().iter().filter(|e| e.proposed_for_web_services) {
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
        let e = figure4().into_iter().find(|e| e.key == "ebay").unwrap();
        assert_eq!(
            e.coordinates(),
            (
                Centralization::Centralized,
                Subject::PersonAgent,
                Scope::Global
            )
        );
    }

    #[test]
    fn eigentrust_is_decentralized_person_global() {
        let e = figure4()
            .into_iter()
            .find(|e| e.key == "eigentrust")
            .unwrap();
        assert_eq!(
            e.coordinates(),
            (
                Centralization::Decentralized,
                Subject::PersonAgent,
                Scope::Global
            )
        );
    }

    #[test]
    fn rendering_contains_all_axis_labels_and_marks() {
        let text = render_figure4(&figure4());
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
        let e = &figure4()[0];
        let s = e.to_string();
        assert!(s.contains("eBay"));
        assert!(s.contains("centralized"));
    }
}
