//! Reliable assessment of the cooperation state (paper §V-C).
//!
//! "Solutions for reliable cooperation between mobile nodes should have a
//! consistent view about the operational state of cooperating entities and
//! their intentions."  This module provides the building block the vehicles
//! use: a bounded-round **manoeuvre agreement** protocol (after Le Lann's
//! cohort/group primitives).  An initiator proposes a manoeuvre, every
//! required participant must acknowledge within a deadline, otherwise the
//! manoeuvre is aborted — guaranteeing that a manoeuvre is only executed when
//! all involved vehicles have consistently agreed to it.
//!
//! The protocol is expressed as a message-in/message-out state machine so it
//! can be carried over any transport (the middleware event channels in the
//! use cases, plain broadcast frames in the unit tests).

use std::collections::{BTreeMap, BTreeSet};

use karyon_sim::{SimDuration, SimTime};

/// Identifier of a cooperating vehicle (matches the network node id).
pub type VehicleId = u32;

/// Messages exchanged by the manoeuvre-agreement protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum AgreementMessage {
    /// The initiator proposes a manoeuvre to a set of participants.
    Propose {
        /// Proposal identifier (unique per initiator).
        proposal: u64,
        /// The initiating vehicle.
        initiator: VehicleId,
        /// The manoeuvre description, e.g. `"lane-change-left"`.
        manoeuvre: String,
        /// The participants whose acknowledgement is required.
        participants: Vec<VehicleId>,
        /// The deadline by which all acknowledgements must have arrived.
        deadline: SimTime,
    },
    /// A participant acknowledges (accepts) the proposal.
    Accept {
        /// The proposal being acknowledged.
        proposal: u64,
        /// The acknowledging participant.
        participant: VehicleId,
    },
    /// A participant rejects the proposal (e.g. it conflicts with its own).
    Reject {
        /// The proposal being rejected.
        proposal: u64,
        /// The rejecting participant.
        participant: VehicleId,
    },
    /// The initiator announces the outcome to everyone.
    Outcome {
        /// The proposal the outcome refers to.
        proposal: u64,
        /// Whether the manoeuvre was agreed.
        agreed: bool,
    },
}

/// The state of one proposal at the initiator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProposalState {
    /// Waiting for acknowledgements.
    Pending,
    /// Every participant accepted before the deadline.
    Agreed,
    /// Rejected or timed out.
    Aborted,
}

#[derive(Debug, Clone)]
struct PendingProposal {
    participants: BTreeSet<VehicleId>,
    accepted: BTreeSet<VehicleId>,
    deadline: SimTime,
    state: ProposalState,
}

/// The manoeuvre-agreement protocol endpoint of one vehicle.
#[derive(Debug, Clone)]
pub struct AgreementProtocol {
    own_id: VehicleId,
    next_proposal: u64,
    /// Proposals this vehicle initiated.
    initiated: BTreeMap<u64, PendingProposal>,
    /// Proposals this vehicle accepted and is currently bound by
    /// (proposal id → manoeuvre).  Used to refuse conflicting proposals.
    committed: BTreeMap<u64, String>,
}

impl AgreementProtocol {
    /// Creates the protocol endpoint for a vehicle.
    pub fn new(own_id: VehicleId) -> Self {
        AgreementProtocol {
            own_id,
            next_proposal: 0,
            initiated: BTreeMap::new(),
            committed: BTreeMap::new(),
        }
    }

    /// The vehicle's identifier.
    pub fn own_id(&self) -> VehicleId {
        self.own_id
    }

    /// Initiates a proposal; returns the message to broadcast and the
    /// proposal id.
    pub fn propose(
        &mut self,
        manoeuvre: &str,
        participants: &[VehicleId],
        now: SimTime,
        timeout: SimDuration,
    ) -> (AgreementMessage, u64) {
        let proposal = self.next_proposal + self.own_id as u64 * 1_000_000;
        self.next_proposal += 1;
        let deadline = now + timeout;
        let participant_set: BTreeSet<VehicleId> =
            participants.iter().copied().filter(|p| *p != self.own_id).collect();
        let state =
            if participant_set.is_empty() { ProposalState::Agreed } else { ProposalState::Pending };
        self.initiated.insert(
            proposal,
            PendingProposal {
                participants: participant_set.clone(),
                accepted: BTreeSet::new(),
                deadline,
                state,
            },
        );
        (
            AgreementMessage::Propose {
                proposal,
                initiator: self.own_id,
                manoeuvre: manoeuvre.to_string(),
                participants: participant_set.into_iter().collect(),
                deadline,
            },
            proposal,
        )
    }

    /// The state of a proposal this vehicle initiated.
    pub fn proposal_state(&self, proposal: u64) -> Option<ProposalState> {
        self.initiated.get(&proposal).map(|p| p.state)
    }

    /// The manoeuvres this vehicle is currently committed to (accepted and
    /// not yet resolved).
    pub fn commitments(&self) -> Vec<&str> {
        self.committed.values().map(|s| s.as_str()).collect()
    }

    /// Handles an incoming message; returns the messages to send in response.
    pub fn on_message(
        &mut self,
        message: &AgreementMessage,
        now: SimTime,
    ) -> Vec<AgreementMessage> {
        match message {
            AgreementMessage::Propose {
                proposal,
                initiator,
                manoeuvre,
                participants,
                deadline,
            } => {
                if *initiator == self.own_id || !participants.contains(&self.own_id) {
                    return Vec::new();
                }
                if now > *deadline {
                    return vec![AgreementMessage::Reject {
                        proposal: *proposal,
                        participant: self.own_id,
                    }];
                }
                // Refuse proposals that conflict with an existing commitment
                // to the same kind of manoeuvre (e.g. two simultaneous lane
                // changes in the same region).
                if self.committed.values().any(|m| m == manoeuvre) {
                    return vec![AgreementMessage::Reject {
                        proposal: *proposal,
                        participant: self.own_id,
                    }];
                }
                self.committed.insert(*proposal, manoeuvre.clone());
                vec![AgreementMessage::Accept { proposal: *proposal, participant: self.own_id }]
            }
            AgreementMessage::Accept { proposal, participant } => {
                let mut out = Vec::new();
                if let Some(pending) = self.initiated.get_mut(proposal) {
                    if pending.state == ProposalState::Pending && now <= pending.deadline {
                        pending.accepted.insert(*participant);
                        if pending.accepted.is_superset(&pending.participants) {
                            pending.state = ProposalState::Agreed;
                            out.push(AgreementMessage::Outcome {
                                proposal: *proposal,
                                agreed: true,
                            });
                        }
                    }
                }
                out
            }
            AgreementMessage::Reject { proposal, .. } => {
                let mut out = Vec::new();
                if let Some(pending) = self.initiated.get_mut(proposal) {
                    if pending.state == ProposalState::Pending {
                        pending.state = ProposalState::Aborted;
                        out.push(AgreementMessage::Outcome { proposal: *proposal, agreed: false });
                    }
                }
                out
            }
            AgreementMessage::Outcome { proposal, .. } => {
                // A resolved proposal releases the participant's commitment.
                self.committed.remove(proposal);
                Vec::new()
            }
        }
    }

    /// Advances time: proposals whose deadline passed without full agreement
    /// are aborted.  Returns the outcome announcements to broadcast.
    pub fn tick(&mut self, now: SimTime) -> Vec<AgreementMessage> {
        let mut out = Vec::new();
        for (id, pending) in self.initiated.iter_mut() {
            if pending.state == ProposalState::Pending && now > pending.deadline {
                pending.state = ProposalState::Aborted;
                out.push(AgreementMessage::Outcome { proposal: *id, agreed: false });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn all_participants_accepting_reaches_agreement() {
        let mut initiator = AgreementProtocol::new(1);
        let mut p2 = AgreementProtocol::new(2);
        let mut p3 = AgreementProtocol::new(3);
        let (proposal_msg, id) =
            initiator.propose("lane-change-left", &[2, 3], ts(0), SimDuration::from_millis(200));
        assert_eq!(initiator.proposal_state(id), Some(ProposalState::Pending));
        let r2 = p2.on_message(&proposal_msg, ts(10));
        let r3 = p3.on_message(&proposal_msg, ts(12));
        assert_eq!(r2.len(), 1);
        assert!(matches!(r2[0], AgreementMessage::Accept { participant: 2, .. }));
        assert_eq!(p2.commitments(), vec!["lane-change-left"]);
        let out1 = initiator.on_message(&r2[0], ts(20));
        assert!(out1.is_empty(), "agreement needs every participant");
        let out2 = initiator.on_message(&r3[0], ts(25));
        assert_eq!(out2.len(), 1);
        assert!(matches!(out2[0], AgreementMessage::Outcome { agreed: true, .. }));
        assert_eq!(initiator.proposal_state(id), Some(ProposalState::Agreed));
        // The outcome releases the participants' commitments.
        p2.on_message(&out2[0], ts(30));
        assert!(p2.commitments().is_empty());
    }

    #[test]
    fn rejection_aborts_the_manoeuvre() {
        let mut initiator = AgreementProtocol::new(1);
        let mut busy = AgreementProtocol::new(2);
        // Vehicle 2 is already committed to a lane change from vehicle 9.
        let (other_proposal, _) = AgreementProtocol::new(9).propose(
            "lane-change-left",
            &[2],
            ts(0),
            SimDuration::from_millis(500),
        );
        busy.on_message(&other_proposal, ts(1));
        let (msg, id) =
            initiator.propose("lane-change-left", &[2], ts(10), SimDuration::from_millis(200));
        let response = busy.on_message(&msg, ts(20));
        assert!(matches!(response[0], AgreementMessage::Reject { .. }));
        let out = initiator.on_message(&response[0], ts(30));
        assert!(matches!(out[0], AgreementMessage::Outcome { agreed: false, .. }));
        assert_eq!(initiator.proposal_state(id), Some(ProposalState::Aborted));
    }

    #[test]
    fn timeout_aborts_pending_proposals() {
        let mut initiator = AgreementProtocol::new(1);
        let (_, id) = initiator.propose("merge", &[2, 3], ts(0), SimDuration::from_millis(100));
        assert!(initiator.tick(ts(50)).is_empty());
        let out = initiator.tick(ts(150));
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0], AgreementMessage::Outcome { agreed: false, .. }));
        assert_eq!(initiator.proposal_state(id), Some(ProposalState::Aborted));
        // Late accepts are ignored.
        let late = AgreementMessage::Accept { proposal: id, participant: 2 };
        assert!(initiator.on_message(&late, ts(200)).is_empty());
        assert_eq!(initiator.proposal_state(id), Some(ProposalState::Aborted));
    }

    #[test]
    fn proposal_with_no_other_participants_is_immediately_agreed() {
        let mut solo = AgreementProtocol::new(5);
        let (_, id) = solo.propose("merge", &[5], ts(0), SimDuration::from_millis(100));
        assert_eq!(solo.proposal_state(id), Some(ProposalState::Agreed));
    }

    #[test]
    fn late_proposals_are_rejected_by_participants() {
        let mut p = AgreementProtocol::new(2);
        let msg = AgreementMessage::Propose {
            proposal: 7,
            initiator: 1,
            manoeuvre: "merge".into(),
            participants: vec![2],
            deadline: ts(100),
        };
        let out = p.on_message(&msg, ts(200));
        assert!(matches!(out[0], AgreementMessage::Reject { .. }));
        // Proposals not addressed to us are ignored.
        let not_for_us = AgreementMessage::Propose {
            proposal: 8,
            initiator: 1,
            manoeuvre: "merge".into(),
            participants: vec![3],
            deadline: ts(400),
        };
        assert!(p.on_message(&not_for_us, ts(300)).is_empty());
    }
}
