//! The link's memoised BER -> SNR inversion never goes stale.
//!
//! A seeded property test: each case builds one link and drives it through
//! a random sequence of lane edits — powering lanes up and down, taking and
//! re-adding lanes, switching codecs, and writing lane BERs and impairments
//! directly. After every step the link's post-FEC BER must be bit-identical
//! to the uncached formula, and the adaptive FEC recommendation must match
//! the formulation that inverts the BER afresh for every codec it tries.

use rackfabric_phy::fec::FecMode;
use rackfabric_phy::{AdaptiveFecController, Lane, Link, LinkId, Media};
use rackfabric_sim::units::{BitRate, Length};
use rackfabric_sim::DetRng;

const CASES: u64 = 64;
const STEPS: usize = 48;

/// A BER drawn log-uniformly over the range the signal model produces.
fn random_ber(rng: &mut DetRng) -> f64 {
    10f64.powf(-2.0 - 15.0 * rng.next_f64())
}

/// The recommendation as it is defined: the weakest sufficient codec for
/// the worst pre-FEC BER, each check inverting that BER from scratch, with
/// hysteresis on the way down.
fn recommend_uncached(ctl: &AdaptiveFecController, link: &Link) -> Option<FecMode> {
    let pre = link.worst_pre_fec_ber();
    let current = link.fec;
    let ideal = ctl.weakest_sufficient(pre, ctl.ber_target);
    if ideal == current {
        return None;
    }
    let rank = |m: FecMode| FecMode::ALL.iter().position(|x| *x == m);
    if rank(ideal) > rank(current) {
        return Some(ideal);
    }
    let relaxed_target = ctl.ber_target * 10f64.powf(-ctl.hysteresis_decades);
    let relaxed_ideal = ctl.weakest_sufficient(pre, relaxed_target);
    (relaxed_ideal != current).then_some(relaxed_ideal)
}

/// Checks the memoised paths against the uncached formulas for the link as
/// it stands, under every codec (codec switches leave the memo warm).
fn check(link: &mut Link, ctl: &AdaptiveFecController, context: &str) {
    let configured = link.fec;
    for mode in FecMode::ALL {
        link.set_fec(mode);
        let want = mode.post_fec_ber_from_pre(link.worst_pre_fec_ber());
        assert_eq!(
            link.post_fec_ber().to_bits(),
            want.to_bits(),
            "{context}: post-FEC BER under {mode:?}"
        );
        assert_eq!(
            ctl.recommend(link),
            recommend_uncached(ctl, link),
            "{context}: recommendation under {mode:?}"
        );
    }
    link.set_fec(configured);
}

#[test]
fn the_snr_memo_follows_every_lane_edit() {
    let ctl = AdaptiveFecController::default();
    for case in 0..CASES {
        let mut rng = DetRng::new(0x5A1F_0000 + case);
        let media = [
            Media::copper_dac(),
            Media::backplane(),
            Media::optical_fiber(),
        ][rng.index(3)];
        let rate = BitRate::from_gbps([25, 50][rng.index(2)]);
        let lanes = 2 + rng.index(5);
        let length = Length::from_m(1 + rng.index(5) as u64);
        let mut link = Link::new(LinkId(case), 0, 1, media, length, lanes, rate, 0);
        // Lanes taken off the link, waiting to be bundled back.
        let mut spare: Vec<Lane> = Vec::new();
        check(&mut link, &ctl, &format!("case {case} at construction"));
        for step in 0..STEPS {
            let lane = rng.index(link.lanes.len());
            let op = match rng.index(8) {
                0 => {
                    let usable = rng.index(link.lanes.len() + 1);
                    link.set_active_lanes(usable).unwrap();
                    format!("set_active_lanes({usable})")
                }
                1 => {
                    let on = rng.chance(0.7);
                    link.set_power(on);
                    format!("set_power({on})")
                }
                2 if link.lanes.len() > 1 => {
                    let k = 1 + rng.index(link.lanes.len() - 1);
                    spare.extend(link.take_lanes(k).unwrap());
                    format!("take_lanes({k})")
                }
                3 if !spare.is_empty() => {
                    let k = 1 + rng.index(spare.len());
                    let at = spare.len() - k;
                    link.add_lanes(spare.split_off(at));
                    format!("add_lanes({k})")
                }
                4 => {
                    let mode = FecMode::ALL[rng.index(FecMode::ALL.len())];
                    link.set_fec(mode);
                    format!("set_fec({mode:?})")
                }
                5 => {
                    let ber = random_ber(&mut rng);
                    link.lanes[lane].pre_fec_ber = ber;
                    format!("lanes[{lane}].pre_fec_ber = {ber:e}")
                }
                6 => {
                    let db = 12.0 * rng.next_f64();
                    link.lanes[lane].impairment_db = db;
                    link.refresh_ber();
                    format!("lanes[{lane}].impairment_db = {db}, refresh_ber")
                }
                _ => {
                    // Every lane at one BER: the worst lane changes to a
                    // value no lane held before.
                    let ber = random_ber(&mut rng);
                    for l in &mut link.lanes {
                        l.pre_fec_ber = ber;
                    }
                    format!("every lane's pre_fec_ber = {ber:e}")
                }
            };
            check(&mut link, &ctl, &format!("case {case} step {step} ({op})"));
        }
    }
}

#[test]
fn a_cloned_link_answers_for_its_own_lanes() {
    let ctl = AdaptiveFecController::default();
    let link = Link::new(
        LinkId(0),
        0,
        1,
        Media::copper_dac(),
        Length::from_m(5),
        4,
        BitRate::from_gbps(50),
        0,
    );
    // Warm the memo, then clone and move the clone's channel.
    let _ = link.post_fec_ber();
    let mut clone = link.clone();
    for lane in &mut clone.lanes {
        lane.pre_fec_ber = 1e-5;
    }
    let mut original = link;
    check(&mut clone, &ctl, "the clone");
    check(&mut original, &ctl, "the original");
}
