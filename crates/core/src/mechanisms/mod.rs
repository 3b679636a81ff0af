//! Implementations of every trust and reputation system classified in
//! Figure 4 of the survey, plus the beta-reputation building block.
//!
//! | module | system | typology leaf |
//! |---|---|---|
//! | [`ebay`] | eBay feedback profile \[7\] | centralized / person / global |
//! | [`sporas`] | Sporas \[37\] | centralized / person / global |
//! | [`histos`] | Histos \[37\] | centralized / person / personalized |
//! | [`pagerank`] | Google PageRank \[23\] | centralized / resource / global |
//! | [`amazon`] | Amazon reviews \[2\] | centralized / resource / global |
//! | [`epinions`] | Epinions \[8\] | centralized / resource / global |
//! | [`cf`] | Collaborative filtering \[3\], Karta \[13\] | centralized / resource / personalized |
//! | [`maximilien`] | Maximilien & Singh \[18-21\] | centralized / resource / personalized |
//! | [`lnz`] | Liu, Ngu & Zeng \[16\] | centralized / resource / personalized |
//! | [`manikrao`] | Manikrao & Prabhakar \[17\] | centralized / resource / personalized |
//! | [`day`] | Day \[6\] | centralized / resource / personalized |
//! | [`yu_singh`] | Yu & Singh \[35, 36\] | decentralized / person / personalized |
//! | [`yolum_singh`] | Yolum & Singh \[34\] | decentralized / person / personalized |
//! | [`damiani`] | Damiani et al. (XRep) \[4\] | decentralized / person / personalized |
//! | [`bayesian`] | Wang & Vassileva \[30, 31\] | decentralized / person / personalized |
//! | [`social`] | Pujol et al. NodeRanking \[24\] | decentralized / person / global |
//! | [`complaints`] | Aberer & Despotovic \[1\] | decentralized / person / global |
//! | [`peertrust`] | Xiong & Liu PeerTrust \[33\] | decentralized / person / global |
//! | [`eigentrust`] | Kamvar et al. EigenTrust \[12\] | decentralized / person / global |
//! | [`vu`] | Vu, Hauswirth & Aberer \[28, 29\] | decentralized / both / personalized |
//! | [`beta`] | Jøsang's beta reputation \[11\] | building block |
//!
//! The decentralized entries implement the mechanism's *computation*; the
//! message-passing embodiment on simulated overlays lives in `wsrep-net`.

pub mod amazon;
pub mod bayesian;
pub mod beta;
pub mod cf;
pub mod complaints;
pub mod damiani;
pub mod day;
pub mod ebay;
pub mod eigentrust;
pub mod epinions;
pub mod histos;
pub mod lnz;
pub mod manikrao;
pub mod maximilien;
pub mod pagerank;
pub mod peertrust;
pub mod social;
pub mod sporas;
pub mod vu;
pub mod yolum_singh;
pub mod yu_singh;

use crate::mechanism::ReputationMechanism;
use amazon::AmazonMechanism;
use bayesian::BayesianMechanism;
use cf::{CfMechanism, Similarity};
use complaints::ComplaintsMechanism;
use damiani::DamianiMechanism;
use day::DayMechanism;
use ebay::EbayMechanism;
use eigentrust::EigenTrustMechanism;
use epinions::EpinionsMechanism;
use histos::HistosMechanism;
use lnz::LnzMechanism;
use manikrao::ManikraoMechanism;
use maximilien::MaximilienMechanism;
use pagerank::PageRankMechanism;
use peertrust::PeerTrustMechanism;
use social::SocialMechanism;
use sporas::SporasMechanism;
use vu::VuMechanism;
use yolum_singh::YolumSinghMechanism;
use yu_singh::YuSinghMechanism;

/// Builds one mechanism with default parameters.
type Build = fn() -> Box<dyn ReputationMechanism>;

/// Every Figure 4 system by its typology key, in the figure's order.
const FIGURE4: [(&str, Build); 21] = [
    ("ebay", || Box::new(EbayMechanism::new())),
    ("sporas", || Box::new(SporasMechanism::new())),
    ("histos", || Box::new(HistosMechanism::new())),
    ("pagerank", || Box::new(PageRankMechanism::new())),
    ("amazon", || Box::new(AmazonMechanism::new())),
    ("epinions", || Box::new(EpinionsMechanism::new())),
    ("cf", || Box::new(CfMechanism::new(Similarity::Pearson))),
    ("maximilien", || Box::new(MaximilienMechanism::new())),
    ("lnz", || Box::new(LnzMechanism::new())),
    ("manikrao", || Box::new(ManikraoMechanism::new())),
    ("day", || Box::new(DayMechanism::new())),
    ("karta", || Box::new(CfMechanism::karta())),
    ("yu_singh", || Box::new(YuSinghMechanism::new())),
    ("yolum_singh", || Box::new(YolumSinghMechanism::new())),
    ("damiani", || Box::new(DamianiMechanism::new())),
    ("wang_vassileva", || Box::new(BayesianMechanism::new())),
    ("social", || Box::new(SocialMechanism::new())),
    ("complaints", || Box::new(ComplaintsMechanism::new())),
    ("peertrust", || Box::new(PeerTrustMechanism::new())),
    ("eigentrust", || Box::new(EigenTrustMechanism::new())),
    ("vu", || Box::new(VuMechanism::new())),
];

/// One boxed instance of every Figure 4 mechanism, in the figure's order,
/// with default parameters. The experiment harness iterates this to fill
/// the typology grid.
pub fn all_figure4_mechanisms() -> Vec<Box<dyn ReputationMechanism>> {
    FIGURE4.iter().map(|(_, build)| build()).collect()
}

/// The mechanism `key` names, with default parameters: any Figure 4 key,
/// or `beta` for the beta-reputation building block. `None` for any
/// other key.
pub fn build(key: &str) -> Option<Box<dyn ReputationMechanism>> {
    if key == "beta" {
        return Some(Box::new(beta::BetaMechanism::new()));
    }
    let (_, build) = FIGURE4.iter().find(|(k, _)| *k == key)?;
    Some(build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::typology::PUBLISHED;

    #[test]
    fn every_key_builds_the_mechanism_it_names() {
        for key in FIGURE4.iter().map(|&(key, _)| key).chain(["beta"]) {
            let mechanism = build(key).unwrap_or_else(|| panic!("`{key}` builds nothing"));
            assert_eq!(mechanism.info().key, key);
        }
        assert!(build("gossip").is_none());
    }

    #[test]
    fn implementations_agree_with_the_published_classification() {
        let reported: Vec<_> = all_figure4_mechanisms().iter().map(|m| m.info()).collect();
        assert_eq!(reported.len(), PUBLISHED.len());
        for (info, &(key, centralization, subject, scope)) in reported.iter().zip(&PUBLISHED) {
            assert_eq!(info.key, key, "Figure 4's order");
            assert_eq!(
                info.coordinates(),
                (centralization, subject, scope),
                "`{key}` classified differently from the paper"
            );
        }
    }

    #[test]
    fn mechanisms_start_with_no_feedback() {
        for m in all_figure4_mechanisms() {
            assert_eq!(m.feedback_count(), 0, "{}", m.info().key);
        }
    }
}
