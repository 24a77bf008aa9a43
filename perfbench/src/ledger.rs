//! The client's publication ledger: which member drained which
//! publication in which round, checked as it goes.
//!
//! Members are indexed by schedule slot. A publication's *targets* are
//! the members of its topic that are live when it is published; its
//! latency ends in the round its last still-live target drains it. A
//! target that leaves or crashes first stops counting. Separately, the
//! ledger tracks every `(live member, publication of its topic)` pair not
//! yet drained — late joiners included — which is the client's own view
//! of Theorem 17's convergence.

use skippub_bits::BitStr;
use std::collections::HashMap;

/// One publication as the client issued it.
struct Pub {
    topic: u32,
    author: u64,
    payload: Vec<u8>,
    /// Client round of the `publish` call.
    round: u64,
    /// Live targets that have not drained it yet.
    waiting: u32,
    /// Latest round a target drained it in.
    last_drain: u64,
}

/// One client slot.
struct Member {
    topic: u32,
    live: bool,
    /// Publications issued before this member subscribed — it is a
    /// target only of publications with an index at or above this.
    first_pub: u32,
    /// Bitset over publication indices this member drained.
    drained: Vec<u64>,
    /// Publications of its topic this member drained.
    drained_count: u64,
}

impl Member {
    fn has(&self, p: u32) -> bool {
        self.drained
            .get(p as usize / 64)
            .is_some_and(|w| w >> (p % 64) & 1 == 1)
    }

    fn mark(&mut self, p: u32) {
        let word = p as usize / 64;
        if self.drained.len() <= word {
            self.drained.resize(word + 1, 0);
        }
        self.drained[word] |= 1 << (p % 64);
    }
}

/// A delivery the ledger refuses.
#[derive(Debug, PartialEq, Eq)]
pub enum Violation {
    /// The key was never published, or not on this topic, or its author
    /// or payload differ from what was published.
    Phantom { slot: usize, key: String },
    /// The member already drained this publication.
    Duplicate { slot: usize, key: String },
}

/// Per-publication outcome at the cap.
pub struct Outcome {
    /// Rounds from the `publish` call through the round its last live
    /// target drained it, inclusive; `cap_round − round + 1` when a
    /// target still misses it at the cap.
    pub latency: Vec<u64>,
    /// Rounds from the `publish` call through the round each live target
    /// drained it, inclusive, one sample per `(publication, target)`;
    /// `cap_round − round + 1` for a target still missing it at the cap.
    pub delivery_latency: Vec<u64>,
    /// Publications some live member of their topic (late joiners
    /// included) has not drained at the cap.
    pub undelivered: usize,
}

/// The ledger itself.
#[derive(Default)]
pub struct Ledger {
    pubs: Vec<Pub>,
    by_key: HashMap<BitStr, u32>,
    members: Vec<Member>,
    /// Live members per topic.
    live_by_topic: HashMap<u32, u32>,
    /// Publications per topic.
    pubs_by_topic: HashMap<u32, u64>,
    /// Undrained `(live member, publication of its topic)` pairs.
    outstanding: u64,
    /// Per-delivery latency of every target that drained, in rounds.
    target_latency: Vec<u64>,
    /// Deliveries accepted so far.
    pub delivered: u64,
}

impl Ledger {
    /// Records that `slot` (the next slot in spawn order) subscribed to
    /// `topic`.
    pub fn subscribe(&mut self, slot: usize, topic: u32) {
        assert_eq!(slot, self.members.len(), "slots subscribe in order");
        self.members.push(Member {
            topic,
            live: true,
            first_pub: self.pubs.len() as u32,
            drained: Vec::new(),
            drained_count: 0,
        });
        *self.live_by_topic.entry(topic).or_default() += 1;
        self.outstanding += self.pubs_by_topic.get(&topic).copied().unwrap_or(0);
    }

    /// Records that `slot` left or crashed: it stops being waited for.
    pub fn depart(&mut self, slot: usize) {
        let m = &mut self.members[slot];
        assert!(m.live, "slot {slot} departs twice");
        m.live = false;
        let m = &self.members[slot];
        *self
            .live_by_topic
            .get_mut(&m.topic)
            .expect("member's topic") -= 1;
        self.outstanding -=
            self.pubs_by_topic.get(&m.topic).copied().unwrap_or(0) - m.drained_count;
        for p in m.first_pub as usize..self.pubs.len() {
            let rec = &mut self.pubs[p];
            if rec.topic == m.topic && !m.has(p as u32) {
                rec.waiting -= 1;
            }
        }
    }

    /// Records a `publish` call that returned `key`.
    pub fn publish(&mut self, round: u64, topic: u32, author: u64, payload: Vec<u8>, key: BitStr) {
        let idx = self.pubs.len() as u32;
        let live = self.live_by_topic.get(&topic).copied().unwrap_or(0);
        let fresh = self.by_key.insert(key, idx).is_none();
        assert!(fresh, "publication keys are unique per workload");
        self.pubs.push(Pub {
            topic,
            author,
            payload,
            round,
            waiting: live,
            last_drain: round,
        });
        *self.pubs_by_topic.entry(topic).or_default() += 1;
        self.outstanding += u64::from(live);
    }

    /// Records that `slot` drained `(topic, key, author, payload)` in
    /// `round`; returns the publication's index.
    pub fn drain(
        &mut self,
        slot: usize,
        round: u64,
        topic: u32,
        key: &BitStr,
        author: u64,
        payload: &[u8],
    ) -> Result<u32, Violation> {
        let phantom = || Violation::Phantom {
            slot,
            key: key.to_string(),
        };
        let p = self.by_key.get(key).copied().ok_or_else(phantom)?;
        let rec = &self.pubs[p as usize];
        let m = &self.members[slot];
        if rec.topic != topic || m.topic != topic || rec.author != author || rec.payload != payload
        {
            return Err(phantom());
        }
        if m.has(p) {
            return Err(Violation::Duplicate {
                slot,
                key: key.to_string(),
            });
        }
        let target = m.live && p >= m.first_pub;
        let m = &mut self.members[slot];
        m.mark(p);
        m.drained_count += 1;
        if m.live {
            self.outstanding -= 1;
        }
        self.delivered += 1;
        if target {
            let rec = &mut self.pubs[p as usize];
            rec.waiting -= 1;
            rec.last_drain = rec.last_drain.max(round);
            self.target_latency.push(round - rec.round + 1);
        }
        Ok(p)
    }

    /// Whether every live member has drained every publication of its
    /// topic — the client's view of publication convergence.
    pub fn all_drained(&self) -> bool {
        self.outstanding == 0
    }

    /// Publications issued so far.
    pub fn len(&self) -> usize {
        self.pubs.len()
    }

    /// Publications on topics that have at least one live member — what
    /// the stores' union must hold once converged.
    pub fn live_topic_pubs(&self) -> usize {
        self.pubs
            .iter()
            .filter(|p| self.live_by_topic.get(&p.topic).copied().unwrap_or(0) > 0)
            .count()
    }

    /// Latencies and undelivered publications once the run stops at
    /// `cap_round` (the last round executed).
    pub fn outcome(&self, cap_round: u64) -> Outcome {
        let latency = self
            .pubs
            .iter()
            .map(|p| {
                let end = if p.waiting == 0 {
                    p.last_drain
                } else {
                    cap_round
                };
                end - p.round + 1
            })
            .collect();
        let mut delivery_latency = self.target_latency.clone();
        let mut missing = vec![false; self.pubs.len()];
        for m in self.members.iter().filter(|m| m.live) {
            for (p, rec) in self.pubs.iter().enumerate() {
                if rec.topic == m.topic && !m.has(p as u32) {
                    missing[p] = true;
                    if p as u32 >= m.first_pub {
                        delivery_latency.push(cap_round - rec.round + 1);
                    }
                }
            }
        }
        Outcome {
            latency,
            delivery_latency,
            undelivered: missing.iter().filter(|&&x| x).count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skippub_trie::Publication;

    fn key(author: u64, payload: &[u8]) -> BitStr {
        Publication::new(author, payload.to_vec()).key().clone()
    }

    /// Publishes `payload` from `slot` (author id = slot + 1).
    fn publish(l: &mut Ledger, round: u64, topic: u32, slot: usize, payload: &[u8]) -> BitStr {
        let k = key(slot as u64 + 1, payload);
        l.publish(round, topic, slot as u64 + 1, payload.to_vec(), k.clone());
        k
    }

    #[test]
    fn latency_ends_at_the_last_targets_drain() {
        let mut l = Ledger::default();
        for s in 0..3 {
            l.subscribe(s, 0);
        }
        let k = publish(&mut l, 10, 0, 0, b"a");
        assert!(!l.all_drained());
        for (slot, round) in [(0, 10), (1, 12), (2, 14)] {
            l.drain(slot, round, 0, &k, 1, b"a").unwrap();
        }
        assert!(l.all_drained());
        let out = l.outcome(100);
        assert_eq!(out.latency, vec![5], "rounds 10..=14");
        assert_eq!(out.delivery_latency, vec![1, 3, 5]);
        assert_eq!(out.undelivered, 0);
    }

    #[test]
    fn unfinished_publications_count_at_the_cap() {
        let mut l = Ledger::default();
        l.subscribe(0, 0);
        l.subscribe(1, 0);
        let k = publish(&mut l, 3, 0, 0, b"x");
        l.drain(0, 3, 0, &k, 1, b"x").unwrap();
        let out = l.outcome(50);
        assert_eq!(out.latency, vec![48], "rounds 3..=50, counted at the cap");
        assert_eq!(out.delivery_latency, vec![1, 48]);
        assert_eq!(out.undelivered, 1);
        assert!(!l.all_drained());
    }

    #[test]
    fn departed_targets_stop_counting_and_joiners_are_not_targets() {
        let mut l = Ledger::default();
        l.subscribe(0, 0);
        l.subscribe(1, 0);
        let k = publish(&mut l, 0, 0, 0, b"p");
        l.drain(0, 0, 0, &k, 1, b"p").unwrap();
        // Slot 1 leaves before draining; slot 2 joins late.
        l.depart(1);
        l.subscribe(2, 0);
        assert!(!l.all_drained(), "the joiner still owes a drain");
        let out = l.outcome(9);
        assert_eq!(out.latency, vec![1], "no live target waits");
        assert_eq!(out.undelivered, 1, "but the late joiner misses it");
        l.drain(2, 7, 0, &k, 1, b"p").unwrap();
        assert!(l.all_drained());
        assert_eq!(
            l.outcome(9).latency,
            vec![1],
            "joiners do not extend latency"
        );
        assert_eq!(l.outcome(9).undelivered, 0);
    }

    #[test]
    fn phantoms_and_duplicates_are_refused() {
        let mut l = Ledger::default();
        l.subscribe(0, 0);
        l.subscribe(1, 1);
        let k = publish(&mut l, 0, 0, 0, b"p");
        l.drain(0, 0, 0, &k, 1, b"p").unwrap();
        assert!(matches!(
            l.drain(0, 1, 0, &k, 1, b"p"),
            Err(Violation::Duplicate { .. })
        ));
        // Wrong topic, author, payload, or an unknown key.
        assert!(matches!(
            l.drain(1, 1, 1, &k, 1, b"p"),
            Err(Violation::Phantom { .. })
        ));
        assert!(matches!(
            l.drain(0, 1, 0, &k, 2, b"p"),
            Err(Violation::Phantom { .. })
        ));
        assert!(matches!(
            l.drain(0, 1, 0, &k, 1, b"q"),
            Err(Violation::Phantom { .. })
        ));
        let other = key(9, b"never");
        assert!(matches!(
            l.drain(0, 1, 0, &other, 9, b"never"),
            Err(Violation::Phantom { .. })
        ));
        assert_eq!(l.delivered, 1);
    }

    #[test]
    fn live_topic_pubs_skips_emptied_topics() {
        let mut l = Ledger::default();
        l.subscribe(0, 0);
        l.subscribe(1, 1);
        publish(&mut l, 0, 0, 0, b"a");
        publish(&mut l, 0, 1, 1, b"b");
        assert_eq!(l.live_topic_pubs(), 2);
        l.depart(1);
        assert_eq!(l.live_topic_pubs(), 1);
        assert_eq!(l.len(), 2);
    }
}
