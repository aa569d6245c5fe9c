//! The distributed lock chain.
//!
//! Implements the distributed lock algorithm of §2 ("Network interface
//! locks"): every lock has a static home site that maintains the tail
//! of a distributed chain of requesters; the previous tail hands the
//! lock (and the protocol timestamp stored with it) directly to its
//! successor when its local host releases. The paper moves this
//! algorithm from the hosts into NI firmware without changing it, so
//! there is one machine and two runners: the NI firmware
//! (`comm/lock.rs`; sites are NICs, no host processor other than the
//! requester is ever involved) and, for the Base protocol, the hosts'
//! protocol handlers (`genima-proto`; sites are nodes, every hop is a
//! host message).

use std::fmt;

use genima_net::NicId;

use crate::msg::{LockOp, Tag};

/// Identifies one application/protocol lock.
///
/// # Example
///
/// ```
/// use genima_nic::LockId;
/// let l = LockId::new(3);
/// assert_eq!(l.index(), 3);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LockId(u32);

impl LockId {
    /// Creates a lock id from a zero-based index.
    pub const fn new(index: usize) -> LockId {
        LockId(index as u32)
    }

    /// Returns the zero-based index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lock{}", self.0)
    }
}

/// Ownership state of one lock at one site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SlotState {
    /// This NIC has nothing to do with the lock right now.
    Idle,
    /// The local host asked for the lock; the grant has not arrived.
    AwaitingGrant,
    /// The local host holds the lock.
    HeldLocal,
    /// The local host released the lock but this NIC still owns it
    /// ("the last owner keeps the lock until another processor needs
    /// to acquire it").
    Released,
}

/// Per-NIC firmware slot for one lock.
#[derive(Clone, Copy, Debug)]
struct Slot {
    state: SlotState,
    /// The successor this NIC must hand the lock to, installed by a
    /// `Transfer` message from the home.
    next: Option<(NicId, Tag)>,
}

/// What the runner at one site must do after feeding an input to
/// [`ChainLock`]. Every input yields at most one action, handed back
/// by value (no allocation); the runner maps it onto its messages,
/// upcalls, traces and observability spans and charges the time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockAction {
    /// Put a chain-control message on the wire: the requester's
    /// `Request` to the home, or the home's `Transfer` to the previous
    /// tail. `tag` is the acquire tag the packet carries.
    Send { to: NicId, op: LockOp, tag: Tag },
    /// Ownership leaves this NIC: send the `Grant` (with the protocol
    /// timestamp, hence grant-sized) to `to`, whose acquire was `tag`.
    Departed { to: NicId, tag: Tag },
    /// A grant arrived: this NIC owns the lock and its host, whose
    /// acquire was `tag`, holds it.
    Granted { tag: Tag },
    /// The host re-acquired a lock this NIC kept after the last
    /// release: held again without any ownership change or message.
    Regranted { tag: Tag },
    /// A duplicated grant reached a NIC that already holds the lock
    /// and was discarded.
    DupDropped,
}

/// Chain state of one lock across the cluster, and the algorithm over
/// it. Pure: no clock, no network, no hardware model — the inputs are
/// the three host calls and a chain message's arrival, each naming the
/// site (as a [`NicId`]) that runs it.
#[derive(Clone, Debug)]
pub struct ChainLock {
    id: LockId,
    /// The NIC whose firmware tracks the chain tail.
    home: NicId,
    /// Last requester in the chain (initially the home itself).
    tail: NicId,
    /// One slot per NIC.
    slots: Vec<Slot>,
}

impl ChainLock {
    /// A lock free at its `home`, one of `ports` sites.
    pub fn new(id: LockId, home: NicId, ports: usize) -> ChainLock {
        let mut slots = vec![
            Slot {
                state: SlotState::Idle,
                next: None,
            };
            ports
        ];
        // The lock starts free at its home.
        slots[home.index()].state = SlotState::Released;
        ChainLock {
            id,
            home,
            tail: home,
            slots,
        }
    }

    /// The site that tracks the chain tail.
    pub fn home(&self) -> NicId {
        self.home
    }

    /// `true` if `nic` owns the lock (held or released-but-kept).
    pub fn owned_by(&self, nic: NicId) -> bool {
        matches!(
            self.slots[nic.index()].state,
            SlotState::HeldLocal | SlotState::Released
        )
    }

    /// `nic`'s host asks for the lock with acquire tag `tag`.
    ///
    /// # Panics
    ///
    /// Panics if `nic` already holds or awaits the lock.
    pub fn acquire(&mut self, nic: NicId, tag: Tag) -> LockAction {
        let lock = self.id;
        let slot = &mut self.slots[nic.index()];
        match slot.state {
            // "The last owner keeps the lock": still ours, no messages.
            SlotState::Released => {
                slot.state = SlotState::HeldLocal;
                LockAction::Regranted { tag }
            }
            SlotState::Idle => {
                slot.state = SlotState::AwaitingGrant;
                LockAction::Send {
                    to: self.home,
                    op: LockOp::Request {
                        lock,
                        requester: nic,
                    },
                    tag,
                }
            }
            state @ (SlotState::AwaitingGrant | SlotState::HeldLocal) => {
                panic!("nic {nic} re-requested {lock} while in {state:?}")
            }
        }
    }

    /// `nic`'s host re-holds a lock the NIC kept after a release.
    ///
    /// # Panics
    ///
    /// Panics if the NIC does not own the lock in released state.
    pub fn local_hold(&mut self, nic: NicId) {
        let slot = &mut self.slots[nic.index()];
        assert_eq!(
            slot.state,
            SlotState::Released,
            "nic {nic} cannot locally re-hold {}",
            self.id
        );
        slot.state = SlotState::HeldLocal;
    }

    /// `nic`'s host releases the lock: hand it to the queued successor
    /// if there is one, else keep it.
    ///
    /// # Panics
    ///
    /// Panics if the host does not hold the lock.
    pub fn release(&mut self, nic: NicId) -> Option<LockAction> {
        let slot = &mut self.slots[nic.index()];
        assert_eq!(
            slot.state,
            SlotState::HeldLocal,
            "nic {nic} released {} it does not hold",
            self.id
        );
        match slot.next.take() {
            Some((to, tag)) => {
                slot.state = SlotState::Idle;
                Some(LockAction::Departed { to, tag })
            }
            None => {
                slot.state = SlotState::Released;
                None
            }
        }
    }

    /// A chain message reached `nic`; `tag` is the tag its packet
    /// carries, which for a `Request` is the requester's acquire tag.
    pub fn on_message(&mut self, nic: NicId, op: LockOp, tag: Tag) -> Option<LockAction> {
        match op {
            LockOp::Request { requester, .. } => Some(self.on_request(nic, requester, tag)),
            LockOp::Transfer { requester, tag, .. } => self.on_transfer(nic, requester, tag),
            LockOp::Grant { tag, .. } => Some(self.on_grant(nic, tag)),
        }
    }

    /// A `Request` reached the home `nic`: append `requester` to the
    /// chain and tell the previous tail whom to hand the lock to. The
    /// requester's acquire tag travelled with the request and is
    /// threaded through the transfer so the eventual grant carries it
    /// back.
    fn on_request(&mut self, nic: NicId, requester: NicId, tag: Tag) -> LockAction {
        debug_assert_eq!(self.home, nic, "only the home processes requests");
        let prev = std::mem::replace(&mut self.tail, requester);
        LockAction::Send {
            to: prev,
            op: LockOp::Transfer {
                lock: self.id,
                requester,
                tag,
            },
            tag,
        }
    }

    /// A `Transfer` reached chain member `nic`: hand the lock over now
    /// if it sits released here, else remember the successor.
    fn on_transfer(&mut self, nic: NicId, requester: NicId, tag: Tag) -> Option<LockAction> {
        let slot = &mut self.slots[nic.index()];
        match slot.state {
            SlotState::Released => {
                slot.state = SlotState::Idle;
                Some(LockAction::Departed { to: requester, tag })
            }
            SlotState::HeldLocal | SlotState::AwaitingGrant => {
                debug_assert!(
                    slot.next.is_none(),
                    "chain gives each owner at most one successor"
                );
                slot.next = Some((requester, tag));
                None
            }
            SlotState::Idle => unreachable!("transfer sent to a NIC outside the chain"),
        }
    }

    /// A `Grant` reached `nic`.
    fn on_grant(&mut self, nic: NicId, tag: Tag) -> LockAction {
        let slot = &mut self.slots[nic.index()];
        if slot.state == SlotState::HeldLocal {
            // A duplicated grant that slipped past sequence dedupe (a
            // local-hop copy carries no sequence number): the lock is
            // already held here.
            return LockAction::DupDropped;
        }
        debug_assert_eq!(slot.state, SlotState::AwaitingGrant);
        slot.state = SlotState::HeldLocal;
        LockAction::Granted { tag }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn lock_id_round_trip() {
        assert_eq!(LockId::new(9).index(), 9);
        assert_eq!(LockId::new(9).to_string(), "lock9");
    }

    #[test]
    fn new_lock_is_free_at_home() {
        let l = ChainLock::new(LockId::new(0), NicId::new(1), 4);
        assert_eq!(l.tail, NicId::new(1));
        assert_eq!(l.slots[1].state, SlotState::Released);
        assert_eq!(l.slots[0].state, SlotState::Idle);
        assert!(l.slots.iter().all(|s| s.next.is_none()));
    }

    /// What one NIC's host is doing with the lock.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Host {
        Idle,
        Waiting(Tag),
        Holding,
    }

    /// One state of the exhaustive exploration: the machine, the chain
    /// messages in flight (destination, operation, packet tag — a
    /// multiset, any of them may arrive next), and every host's view.
    #[derive(Clone, Debug)]
    struct World {
        fw: ChainLock,
        wire: Vec<(usize, LockOp, Tag)>,
        host: Vec<Host>,
        /// Acquires each host has still to make.
        left: Vec<u32>,
    }

    impl World {
        fn send(&mut self, to: NicId, op: LockOp, tag: Tag) {
            self.wire.push((to.index(), op, tag));
        }

        /// Carries out `action` at `nic` the way the communication
        /// layer would, then checks the safety invariants.
        fn apply(&mut self, nic: usize, action: Option<LockAction>) {
            let lock = self.fw.id;
            match action {
                None => {}
                Some(LockAction::Send { to, op, tag }) => self.send(to, op, tag),
                Some(LockAction::Departed { to, tag }) => {
                    self.send(to, LockOp::Grant { lock, tag }, tag);
                }
                Some(LockAction::Granted { tag } | LockAction::Regranted { tag }) => {
                    // Exactly once: only the acquire being waited for
                    // can be granted, and granting it ends the wait.
                    assert_eq!(self.host[nic], Host::Waiting(tag), "stray grant at {nic}");
                    self.host[nic] = Host::Holding;
                }
                Some(LockAction::DupDropped) => panic!("duplicate grant on a wire that makes none"),
            }
            let holders: Vec<usize> = (0..self.host.len())
                .filter(|&n| self.host[n] == Host::Holding)
                .collect();
            let owners: Vec<usize> = (0..self.host.len())
                .filter(|&n| self.fw.owned_by(NicId::new(n)))
                .collect();
            assert!(holders.len() <= 1, "two holders: {holders:?}");
            assert!(owners.len() <= 1, "two owners: {owners:?}");
            assert!(
                holders.iter().all(|h| owners.contains(h)),
                "{holders:?} holds a lock owned by {owners:?}"
            );
        }

        /// Every world one step away: a host acquiring or releasing,
        /// or any one message in flight arriving.
        fn successors(&self) -> Vec<World> {
            let mut next = Vec::new();
            for nic in 0..self.host.len() {
                let mut w = self.clone();
                match self.host[nic] {
                    Host::Idle if self.left[nic] > 0 => {
                        w.left[nic] -= 1;
                        let tag = Tag::new((10 * nic) as u64 + w.left[nic] as u64);
                        w.host[nic] = Host::Waiting(tag);
                        let action = w.fw.acquire(NicId::new(nic), tag);
                        w.apply(nic, Some(action));
                    }
                    Host::Holding => {
                        w.host[nic] = Host::Idle;
                        let action = w.fw.release(NicId::new(nic));
                        w.apply(nic, action);
                    }
                    Host::Idle | Host::Waiting(_) => continue,
                }
                next.push(w);
            }
            for i in 0..self.wire.len() {
                let mut w = self.clone();
                let (to, op, pkt_tag) = w.wire.swap_remove(i);
                let nic = NicId::new(to);
                let action = match op {
                    LockOp::Request { requester, .. } => {
                        Some(w.fw.on_request(nic, requester, pkt_tag))
                    }
                    LockOp::Transfer { requester, tag, .. } => {
                        if w.fw.slots[to].state != SlotState::Released {
                            assert!(
                                w.fw.slots[to].next.is_none(),
                                "second successor for owner {to}"
                            );
                        }
                        w.fw.on_transfer(nic, requester, tag)
                    }
                    LockOp::Grant { tag, .. } => Some(w.fw.on_grant(nic, tag)),
                };
                w.apply(to, action);
                next.push(w);
            }
            next
        }
    }

    /// Explores every interleaving of `rounds` acquire/release pairs
    /// per host over `nics` NICs with the lock homed at `home`;
    /// returns (distinct states, quiescent end states).
    fn explore(nics: usize, home: usize, rounds: u32) -> (usize, usize) {
        let start = World {
            fw: ChainLock::new(LockId::new(0), NicId::new(home), nics),
            wire: Vec::new(),
            host: vec![Host::Idle; nics],
            left: vec![rounds; nics],
        };
        let mut seen = HashSet::new();
        let mut ends = 0;
        let mut stack = vec![start];
        while let Some(w) = stack.pop() {
            // The wire is a multiset: the order it lists is no state.
            let mut key = w.clone();
            key.wire.sort_by_cached_key(|m| format!("{m:?}"));
            if !seen.insert(format!("{key:?}")) {
                continue;
            }
            let next = w.successors();
            if next.is_empty() {
                // Quiescent: liveness demands nothing is left undone.
                assert!(
                    w.host.iter().all(|&h| h == Host::Idle) && w.left.iter().all(|&l| l == 0),
                    "stuck with work left: {w:?}"
                );
                ends += 1;
            }
            stack.extend(next);
        }
        (seen.len(), ends)
    }

    /// The chain algorithm, alone, under every delivery order — any
    /// message in flight may arrive next, whichever channel it is on
    /// and however long ago it was sent. That is the transport's whole
    /// failure alphabet as the machine can see it: drop-until-give-up
    /// plus the management channel's forced delivery is an arbitrary
    /// delay of one packet, and sequenced duplicates die in `admit`
    /// before they reach it. Mutual exclusion, every acquire granted
    /// exactly once, at most one successor per owner, and no run gets
    /// stuck. The Base hosts run the same machine, so this covers their
    /// chain too.
    #[test]
    fn chain_is_exclusive_and_live_under_every_delivery_order() {
        for (nics, rounds) in [(1, 3), (2, 3), (3, 3)] {
            for home in 0..nics {
                let (states, ends) = explore(nics, home, rounds);
                assert!(ends >= 1, "{nics} NICs, home {home}: no run completed");
                // A collapsed explorer would pass vacuously.
                assert!(
                    states >= [7, 199, 4705][nics - 1],
                    "{nics} NICs: {states} states"
                );
            }
        }
    }
}
