//! Property test for the idle-token hold (`ar_net::hold::IdleHold`):
//! random sequences of token arrivals, cancels, local submits and
//! waits, driven the way the runtime drives it, against the rules it
//! must keep.

use accelerated_ring::core::{ParticipantId, RingId, Round, Seq, Token};
use accelerated_ring::net::hold::{IdleHold, Local, Release};
use proptest::prelude::*;

const RETRANSMIT: u64 = 5_000_000;

#[derive(Debug, Clone)]
enum Ev {
    /// A token arrives carrying `new_msgs` more than the last one, with
    /// its aru `lag` behind its seq and maybe a retransmission request.
    Token {
        new_msgs: u64,
        lag: u64,
        rtr: bool,
    },
    Cancel,
    Submit,
    Wait(u64),
}

fn arb_ev() -> impl Strategy<Value = Ev> {
    // Mostly idle tokens, so runs of them long enough to hold are common.
    (0u8..16, 0u8..4, 0u8..4, 0u64..2 * RETRANSMIT).prop_map(|(pick, msgs, lag, wait)| match pick {
        0..=7 => Ev::Token {
            new_msgs: u64::from(msgs == 3),
            lag: u64::from(lag == 3),
            rtr: pick == 0,
        },
        8 | 9 => Ev::Cancel,
        10 | 11 => Ev::Submit,
        _ => Ev::Wait(wait),
    })
}

/// A token as the driver's model remembers it.
#[derive(Debug, Clone, Copy)]
struct Handed {
    round: u64,
    seq: u64,
    quiet: bool,
}

/// The runtime hands the held token to the participant; the model
/// records it as handed.
fn release(
    hold: &mut IdleHold,
    held: &mut Option<(Handed, u64)>,
    handed: &mut Vec<Handed>,
    now: u64,
) {
    let (tok, since) = held.take().expect("a hold to release");
    let (back, held_ns) = hold.release(now).expect("the hold releases");
    assert_eq!(held_ns, now - since);
    assert_eq!(
        (back.round.as_u64(), back.seq.as_u64()),
        (tok.round, tok.seq)
    );
    handed.push(tok);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn hold_keeps_its_rules(
        representative in any::<bool>(),
        pending in 0usize..2,
        next_timer in prop::option::of(0u64..20 * RETRANSMIT),
        events in prop::collection::vec(arb_ev(), 1..80),
    ) {
        let ring = RingId::new(ParticipantId::new(0), 1);
        let local = Local {
            ring,
            representative,
            operational: true,
            pending,
            next_timer,
            token_retransmit: RETRANSMIT,
        };
        let mut hold = IdleHold::new(true);
        let mut handed: Vec<Handed> = Vec::new();
        let mut held: Option<(Handed, u64)> = None;
        let mut cancelled_since_token = false;
        let (mut now, mut round, mut seq) = (0u64, 0u64, 0u64);

        for ev in events {
            if let Some((_, since)) = held {
                let deadline = hold.deadline().expect("holding");
                prop_assert!(
                    deadline <= since + RETRANSMIT / 2,
                    "hold outlives token_retransmit / 2"
                );
                prop_assert!(hold.due(since + RETRANSMIT / 2).is_some());
            }
            match ev {
                Ev::Wait(d) => {
                    now += d;
                    if let Some(why) = hold.due(now) {
                        prop_assert_eq!(why, Release::Deadline);
                        release(&mut hold, &mut held, &mut handed, now);
                    }
                }
                Ev::Token { new_msgs, lag, rtr } => {
                    if held.is_some() {
                        // Any other message releases the held token first.
                        release(&mut hold, &mut held, &mut handed, now);
                    }
                    round += 1;
                    seq += new_msgs;
                    let mut tok = Token::initial(ring, Seq::new(seq));
                    tok.round = Round::new(round);
                    tok.aru = Seq::new(seq.saturating_sub(lag));
                    if rtr {
                        tok.rtr = vec![Seq::new(seq)];
                    }
                    let this = Handed {
                        round,
                        seq,
                        quiet: tok.aru == tok.seq && !rtr,
                    };
                    if hold.on_token(now, tok, &local).is_none() {
                        prop_assert!(representative, "held at a non-representative");
                        prop_assert!(!cancelled_since_token, "held after an early cancel");
                        prop_assert!(pending == 0 && this.quiet);
                        let idle = handed.len() >= 2
                            && handed[handed.len() - 2..]
                                .iter()
                                .all(|h| h.quiet && h.seq == seq && h.round < round);
                        prop_assert!(idle, "held before two idle rotations: {:?}", handed);
                        held = Some((this, now));
                    } else {
                        handed.push(this);
                    }
                    cancelled_since_token = false;
                }
                Ev::Cancel => {
                    let release_now = hold.on_cancel();
                    prop_assert_eq!(release_now, held.is_some());
                    if release_now {
                        release(&mut hold, &mut held, &mut handed, now);
                    } else {
                        cancelled_since_token = true;
                    }
                }
                Ev::Submit => {
                    let cancel = hold.on_submit(&local);
                    prop_assert!(!(cancel && representative), "the representative cancelled");
                    if held.is_some() {
                        prop_assert!(!cancel);
                        prop_assert_eq!(hold.due(now), Some(Release::Submit));
                        release(&mut hold, &mut held, &mut handed, now);
                    }
                }
            }
        }
    }
}
