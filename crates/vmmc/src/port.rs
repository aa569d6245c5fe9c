//! The VMMC port: transfer splitting and completion aggregation.

#![allow(clippy::field_reassign_with_default)]

use std::collections::HashMap;

use genima_net::{NetConfig, NicId};
use genima_nic::{Comm, Event, MsgKind, NiModel, NicConfig, Post, SendDesc, Step, Tag, Upcall};
use genima_sim::Time;

/// The cluster-wide VMMC instance: one logical port per node on top of
/// the shared [`Comm`] system. It adds exactly two things to the NI:
/// transfers larger than a packet are split, and their fragments'
/// completions are folded into one upcall. Everything the NI serves
/// whole — locks, atomics, collectives, counters — is reached through
/// [`Vmmc::comm`] / [`Vmmc::comm_mut`].
///
/// # Example
///
/// ```
/// use genima_vmmc::{NetConfig, NicConfig, NicId, Tag, Vmmc};
/// use genima_sim::Time;
///
/// let mut vmmc = Vmmc::new(NicConfig::default(), NetConfig::myrinet(), 2, 0);
/// // An 8 KB transfer splits into two 4 KB packets but completes as one.
/// let post = vmmc.deposit(Time::ZERO, NicId::new(0), NicId::new(1), 8192, Tag::new(1));
/// assert_eq!(post.events.len(), 2);
/// ```
#[derive(Debug)]
pub struct Vmmc {
    comm: Comm,
    /// Outstanding fragment counts for multi-packet transfers.
    pending: HashMap<Tag, u32, genima_sim::FixedState>,
}

impl Vmmc {
    /// Creates the communication layer for `nodes` nodes and `nlocks`
    /// NI locks.
    pub fn new(nic: NicConfig, net: NetConfig, nodes: usize, nlocks: usize) -> Vmmc {
        Vmmc {
            comm: Comm::new(nic, net, nodes, nlocks),
            pending: HashMap::default(),
        }
    }

    /// Like [`Vmmc::new`] but with an explicit NI hardware model (the
    /// hardware-profile axis: the 1999 LANai and the 2025 RNIC plug in
    /// here).
    pub fn with_model(
        model: Box<dyn NiModel>,
        nic: NicConfig,
        net: NetConfig,
        nodes: usize,
        nlocks: usize,
    ) -> Vmmc {
        Vmmc {
            comm: Comm::with_model(model, nic, net, nodes, nlocks),
            pending: HashMap::default(),
        }
    }

    /// The underlying NI/communication system.
    pub fn comm(&self) -> &Comm {
        &self.comm
    }

    /// Mutable access to the communication system: NI locks, atomics
    /// and collectives, and configuration of optional NI capabilities.
    pub fn comm_mut(&mut self) -> &mut Comm {
        &mut self.comm
    }

    /// Posts a `bytes`-sized transfer as packet-sized fragments — full
    /// packets first, then the remainder (a zero-byte transfer is one
    /// empty packet) — each posted by `post_one(comm, now, fragment_bytes)`.
    /// The host posts them back to back; a tagged multi-fragment
    /// transfer completes once, when [`Vmmc::handle`] has seen every
    /// fragment land.
    fn post_fragments(
        &mut self,
        now: Time,
        bytes: u32,
        tag: Tag,
        post_one: impl Fn(&mut Comm, Time, u32) -> Post,
    ) -> Post {
        let max = self.comm.network().config().max_packet;
        let frags = bytes.div_ceil(max).max(1);
        if frags > 1 && tag != Tag::NONE {
            self.pending.insert(tag, frags);
        }
        let mut out = Post::default();
        out.host_free = now;
        let mut remaining = bytes;
        for _ in 0..frags {
            let b = remaining.min(max);
            remaining -= b;
            let p = post_one(&mut self.comm, out.host_free, b);
            out.host_free = p.host_free;
            out.events.extend(p.events);
            out.upcalls.extend(p.upcalls);
        }
        out
    }

    /// [`Vmmc::post_fragments`] for transfers whose payload travels in
    /// the posted packets themselves.
    fn post_payload(
        &mut self,
        now: Time,
        src: NicId,
        dst: NicId,
        bytes: u32,
        kind: MsgKind,
        tag: Tag,
    ) -> Post {
        self.post_fragments(now, bytes, tag, |comm, now, bytes| {
            let desc = SendDesc {
                dst,
                bytes,
                kind,
                tag,
            };
            comm.post_send(now, src, desc)
        })
    }

    /// Asynchronously deposits `bytes` into exported memory at `dst`.
    /// Transfers larger than one packet are split; the receiver-side
    /// [`Upcall::DepositArrived`] fires once, when the last fragment
    /// lands.
    pub fn deposit(&mut self, now: Time, src: NicId, dst: NicId, bytes: u32, tag: Tag) -> Post {
        self.post_payload(now, src, dst, bytes, MsgKind::Deposit, tag)
    }

    /// Scatter-gather deposit: all `runs` non-contiguous pieces
    /// (totalling `bytes`) travel in one message (§5 extension;
    /// requires the NI's `scatter_gather` capability).
    pub fn deposit_gather(
        &mut self,
        now: Time,
        src: NicId,
        dst: NicId,
        bytes: u32,
        runs: u32,
        tag: Tag,
    ) -> Post {
        self.post_payload(now, src, dst, bytes, MsgKind::GatherDeposit { runs }, tag)
    }

    /// NI broadcast deposit: one posted descriptor replicated by the
    /// firmware to each destination (§5 extension; requires the NI's
    /// `broadcast` capability).
    pub fn broadcast_deposit(
        &mut self,
        now: Time,
        src: NicId,
        dsts: &[(NicId, Tag)],
        bytes: u32,
    ) -> Post {
        self.comm
            .post_broadcast(now, src, dsts, bytes, MsgKind::Deposit)
    }

    /// Sends a host-bound protocol message (Base protocol traffic).
    pub fn host_msg(&mut self, now: Time, src: NicId, dst: NicId, bytes: u32, tag: Tag) -> Post {
        self.post_payload(now, src, dst, bytes, MsgKind::HostMsg, tag)
    }

    /// Fetches `bytes` of exported remote memory from `from` into
    /// local host memory; completion fires [`Upcall::FetchCompleted`]
    /// after the last fragment arrives. `key` is the translation key
    /// served at the remote NI: a page index for page data, or
    /// [`genima_nic::ALWAYS_MAPPED`] for NI-resident metadata. All
    /// fragments of one fetch share the key (one ODP fault at most).
    pub fn fetch(
        &mut self,
        now: Time,
        nic: NicId,
        from: NicId,
        bytes: u32,
        key: u64,
        tag: Tag,
    ) -> Post {
        self.post_fragments(now, bytes, tag, |comm, now, bytes| {
            comm.fetch(now, nic, from, bytes, key, tag)
        })
    }

    /// Processes one communication event, aggregating multi-fragment
    /// completions so the protocol sees exactly one upcall per
    /// logical transfer.
    pub fn handle(&mut self, now: Time, ev: Event) -> Step {
        let mut step = self.comm.handle(now, ev);
        step.upcalls.retain(|&(_, up)| {
            let tag = match up {
                Upcall::DepositArrived { tag, .. }
                | Upcall::FetchCompleted { tag, .. }
                | Upcall::HostMsgArrived { tag, .. } => tag,
                // Never fragmented: one packet, one upcall.
                Upcall::LockGranted { .. }
                | Upcall::LockDeparted { .. }
                | Upcall::AtomicCompleted { .. }
                | Upcall::CollCompleted { .. }
                | Upcall::PeerUnreachable { .. } => return true,
            };
            match self.pending.get_mut(&tag) {
                None => true,
                Some(left) => {
                    *left -= 1;
                    if *left == 0 {
                        self.pending.remove(&tag);
                        true
                    } else {
                        false
                    }
                }
            }
        });
        step
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genima_sim::EventQueue;

    fn vmmc(nodes: usize) -> Vmmc {
        Vmmc::new(NicConfig::default(), NetConfig::myrinet(), nodes, 1)
    }

    fn drain(v: &mut Vmmc, post: Post) -> Vec<(Time, Upcall)> {
        let mut q = EventQueue::new();
        let mut ups: Vec<(Time, Upcall)> = post.upcalls.into_iter().collect();
        for (t, e) in post.events {
            q.push(t, e);
        }
        while let Some((t, e)) = q.pop() {
            let s = v.handle(t, e);
            ups.extend(s.upcalls);
            for (t2, e2) in s.events {
                q.push(t2, e2);
            }
        }
        ups.sort_by_key(|&(t, _)| t);
        ups
    }

    #[test]
    fn small_transfer_is_one_packet() {
        let mut v = vmmc(2);
        let p = v.deposit(Time::ZERO, NicId::new(0), NicId::new(1), 64, Tag::new(1));
        assert_eq!(p.events.len(), 1);
        let ups = drain(&mut v, p);
        assert_eq!(ups.len(), 1);
    }

    #[test]
    fn large_transfer_splits_but_completes_once() {
        let mut v = vmmc(2);
        let p = v.deposit(
            Time::ZERO,
            NicId::new(0),
            NicId::new(1),
            10_000,
            Tag::new(2),
        );
        assert_eq!(p.events.len(), 3); // 4096 + 4096 + 1808
        let ups = drain(&mut v, p);
        assert_eq!(ups.len(), 1, "one aggregated completion");
        assert!(matches!(
            ups[0].1,
            Upcall::DepositArrived { tag, .. } if tag == Tag::new(2)
        ));
    }

    #[test]
    fn multi_fragment_fetch_completes_once() {
        let mut v = vmmc(2);
        let p = v.fetch(
            Time::ZERO,
            NicId::new(0),
            NicId::new(1),
            8192,
            genima_nic::ALWAYS_MAPPED,
            Tag::new(3),
        );
        let ups = drain(&mut v, p);
        assert_eq!(ups.len(), 1);
        assert!(matches!(
            ups[0].1,
            Upcall::FetchCompleted { nic, tag } if nic == NicId::new(0) && tag == Tag::new(3)
        ));
    }

    #[test]
    fn posts_charge_host_per_fragment() {
        let mut v = vmmc(2);
        let small = v.deposit(Time::ZERO, NicId::new(0), NicId::new(1), 64, Tag::NONE);
        let t_small = small.host_free;
        let mut v2 = vmmc(2);
        let big = v2.deposit(Time::ZERO, NicId::new(0), NicId::new(1), 12_288, Tag::NONE);
        assert!(big.host_free > t_small, "3 fragments post sequentially");
    }

    #[test]
    fn gather_deposit_passthrough() {
        let mut nic = NicConfig::default();
        nic.scatter_gather = true;
        let mut v = Vmmc::new(nic, NetConfig::myrinet(), 2, 0);
        let p = v.deposit_gather(
            Time::ZERO,
            NicId::new(0),
            NicId::new(1),
            400,
            48,
            Tag::new(1),
        );
        assert_eq!(p.events.len(), 1);
        let ups = drain(&mut v, p);
        assert!(matches!(ups[0].1, Upcall::DepositArrived { .. }));
    }

    #[test]
    fn broadcast_passthrough() {
        let mut nic = NicConfig::default();
        nic.broadcast = true;
        let mut v = Vmmc::new(nic, NetConfig::myrinet(), 3, 0);
        let dsts = [(NicId::new(1), Tag::new(1)), (NicId::new(2), Tag::new(2))];
        let p = v.broadcast_deposit(Time::ZERO, NicId::new(0), &dsts, 64);
        assert_eq!(p.events.len(), 2);
        let ups = drain(&mut v, p);
        assert_eq!(ups.len(), 2);
    }
}
