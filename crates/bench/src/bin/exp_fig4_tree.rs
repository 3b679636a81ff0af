//! Experiment F4a — Figure 4: the typology tree itself.
//!
//! Every implemented mechanism self-reports its (centralization, subject,
//! scope) coordinates; this binary checks those reports against the
//! paper's classification, transcribed in `typology::PUBLISHED`, then
//! prints the tree and the flat classification from the reports.

use wsrep_core::mechanisms::all_figure4_mechanisms;
use wsrep_core::typology::{render_figure4, MechanismInfo, PUBLISHED};
use wsrep_select::report::{section, Table};

fn main() {
    println!("# F4a — Figure 4: trust and reputation system classification");

    let implemented: Vec<MechanismInfo> =
        all_figure4_mechanisms().iter().map(|m| m.info()).collect();

    // Cross-check implementations against the published classification.
    let mut mismatches = 0;
    for info in &implemented {
        match PUBLISHED.iter().find(|&&(key, ..)| key == info.key) {
            None => {
                println!("!! `{}` not in the published figure", info.key);
                mismatches += 1;
            }
            Some(&(_, c, s, g)) if (c, s, g) != info.coordinates() => {
                println!(
                    "!! `{}` classified {:?}, paper says {:?}",
                    info.key,
                    info.coordinates(),
                    (c, s, g)
                );
                mismatches += 1;
            }
            _ => {}
        }
    }
    let missing: Vec<&str> = PUBLISHED
        .iter()
        .map(|&(key, ..)| key)
        .filter(|&key| implemented.iter().all(|info| info.key != key))
        .collect();

    section("the tree (systems marked * were proposed for web services)");
    print!("{}", render_figure4(&implemented));

    section("flat classification");
    let mut t = Table::new([
        "system",
        "refs",
        "centralization",
        "subject",
        "scope",
        "web services?",
    ]);
    for e in &implemented {
        t.row([
            e.display,
            e.citation,
            &e.centralization.to_string(),
            &e.subject.to_string(),
            &e.scope.to_string(),
            if e.proposed_for_web_services {
                "yes"
            } else {
                ""
            },
        ]);
    }
    print!("{}", t.render());

    section("verification");
    println!(
        "implemented mechanisms: {} / {} published entries; mismatches: {mismatches}; \
         unimplemented: {missing:?}",
        implemented.len(),
        PUBLISHED.len()
    );
    println!(
        "\nSection 5's observation holds in the implementations too: every\n\
         web-service mechanism except Vu et al. lands in the single leaf\n\
         (centralized, resource, personalized)."
    );
    assert_eq!(mismatches, 0, "implementations must match the paper");
    assert!(
        missing.is_empty(),
        "every Figure 4 system must be implemented"
    );
}
