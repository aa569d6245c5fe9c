//! The VMMC port: transfer splitting, completion aggregation, and
//! pin accounting.

#![allow(clippy::field_reassign_with_default)]

use std::collections::HashMap;

use genima_net::{NetConfig, NicId};
use genima_nic::{
    CasWord, CollId, Comm, Event, LockId, MsgKind, NiModel, NiStats, NicConfig, Post, ReduceOp,
    SendDesc, Step, Tag, Upcall,
};
use genima_sim::Time;

/// What a pinned region is for — lets experiments report the memory
/// registration footprint per protocol variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PinClass {
    /// Shared application pages exported for incoming deposits.
    SharedPages,
    /// Protocol metadata regions (timestamps, write-notice buffers,
    /// barrier words).
    ProtocolData,
}

/// The cluster-wide VMMC instance: one logical port per node on top of
/// the shared [`Comm`] system.
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
    /// Pinned bytes per (node, class).
    pinned: HashMap<(usize, PinClass), u64>,
    next_tag: u64,
}

impl Vmmc {
    /// Creates the communication layer for `nodes` nodes and `nlocks`
    /// NI locks.
    pub fn new(nic: NicConfig, net: NetConfig, nodes: usize, nlocks: usize) -> Vmmc {
        Vmmc {
            comm: Comm::new(nic, net, nodes, nlocks),
            pending: HashMap::default(),
            pinned: HashMap::new(),
            next_tag: 1 << 32,
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
            pinned: HashMap::new(),
            next_tag: 1 << 32,
        }
    }

    /// Hardware-mechanism counters of the underlying NI model.
    pub fn ni_stats(&self) -> NiStats {
        self.comm.ni_stats()
    }

    /// The underlying NI/communication system.
    pub fn comm(&self) -> &Comm {
        &self.comm
    }

    /// Mutable access to the communication system (configuration of
    /// optional NI capabilities before a run).
    pub fn comm_mut(&mut self) -> &mut Comm {
        &mut self.comm
    }

    /// Clears the firmware performance monitor (warmup exclusion).
    pub fn reset_monitor(&mut self) {
        self.comm.reset_monitor();
    }

    /// Allocates a tag that no protocol-level tag collides with
    /// (protocol tags stay below 2^32).
    pub fn internal_tag(&mut self) -> Tag {
        let t = Tag::new(self.next_tag);
        self.next_tag += 1;
        t
    }

    /// Records that `node` pinned `bytes` of memory for `class`.
    pub fn register_pinned(&mut self, node: usize, class: PinClass, bytes: u64) {
        *self.pinned.entry((node, class)).or_insert(0) += bytes;
    }

    /// Total bytes `node` has pinned for `class`.
    pub fn pinned(&self, node: usize, class: PinClass) -> u64 {
        self.pinned.get(&(node, class)).copied().unwrap_or(0)
    }

    /// Fragment count for a `bytes`-sized transfer: full packets first,
    /// then the remainder (a zero-byte transfer is one empty packet).
    fn fragments(&self, bytes: u32) -> u32 {
        let max = self.comm.network().config().max_packet;
        bytes.div_ceil(max).max(1)
    }

    fn post_fragments(
        &mut self,
        now: Time,
        src: NicId,
        dst: NicId,
        bytes: u32,
        kind_of: impl Fn(u32) -> MsgKind,
        tag: Tag,
    ) -> Post {
        let max = self.comm.network().config().max_packet;
        let frags = self.fragments(bytes);
        if frags > 1 && tag != Tag::NONE {
            self.pending.insert(tag, frags);
        }
        let mut out = Post::default();
        out.host_free = now;
        let mut remaining = bytes;
        for _ in 0..frags {
            let b = remaining.min(max);
            remaining -= b;
            let p = self.comm.post_send(
                out.host_free,
                src,
                SendDesc {
                    dst,
                    bytes: b,
                    kind: kind_of(b),
                    tag,
                },
            );
            out.host_free = p.host_free;
            out.events.extend(p.events);
            out.upcalls.extend(p.upcalls);
        }
        out
    }

    /// Asynchronously deposits `bytes` into exported memory at `dst`.
    /// Transfers larger than one packet are split; the receiver-side
    /// [`Upcall::DepositArrived`] fires once, when the last fragment
    /// lands.
    pub fn deposit(&mut self, now: Time, src: NicId, dst: NicId, bytes: u32, tag: Tag) -> Post {
        self.post_fragments(now, src, dst, bytes, |_| MsgKind::Deposit, tag)
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
        self.post_fragments(
            now,
            src,
            dst,
            bytes,
            |_| MsgKind::GatherDeposit { runs },
            tag,
        )
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
        self.post_fragments(now, src, dst, bytes, |_| MsgKind::HostMsg, tag)
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
        let max = self.comm.network().config().max_packet;
        let frags = self.fragments(bytes);
        if frags > 1 && tag != Tag::NONE {
            self.pending.insert(tag, frags);
        }
        let mut out = Post::default();
        out.host_free = now;
        let mut remaining = bytes;
        for _ in 0..frags {
            let b = remaining.min(max);
            remaining -= b;
            let p = self.comm.fetch(out.host_free, nic, from, b, key, tag);
            out.host_free = p.host_free;
            out.events.extend(p.events);
            out.upcalls.extend(p.upcalls);
        }
        out
    }

    /// Remote atomic fetch-and-store on a firmware word (see
    /// [`Comm::fetch_and_store`]).
    #[allow(clippy::too_many_arguments)]
    pub fn fetch_and_store(
        &mut self,
        now: Time,
        src: NicId,
        target: NicId,
        cell: u32,
        new: u64,
        tag: Tag,
    ) -> Post {
        self.comm.fetch_and_store(now, src, target, cell, new, tag)
    }

    /// Remote masked compare-and-swap on a firmware word (see
    /// [`Comm::masked_cas`]) — the RDMA-verbs lock primitive.
    pub fn masked_cas(
        &mut self,
        now: Time,
        src: NicId,
        target: NicId,
        cas: CasWord,
        tag: Tag,
    ) -> Post {
        self.comm.masked_cas(now, src, target, cas, tag)
    }

    /// Acquires an NI lock (see [`Comm::lock_acquire`]).
    pub fn lock_acquire(&mut self, now: Time, nic: NicId, lock: LockId, tag: Tag) -> Post {
        self.comm.lock_acquire(now, nic, lock, tag)
    }

    /// Releases an NI lock (see [`Comm::lock_release`]).
    pub fn lock_release(&mut self, now: Time, nic: NicId, lock: LockId) -> Post {
        self.comm.lock_release(now, nic, lock)
    }

    /// Locally re-holds a lock this NIC kept after a release (see
    /// [`Comm::lock_local_hold`]).
    pub fn lock_local_hold(&mut self, now: Time, nic: NicId, lock: LockId) -> Post {
        self.comm.lock_local_hold(now, nic, lock)
    }

    /// Returns `true` if `nic`'s NI currently owns `lock`.
    pub fn lock_owned_by(&self, nic: NicId, lock: LockId) -> bool {
        self.comm.lock_owned_by(nic, lock)
    }

    /// Sets the fan-out of collective trees created from now on (see
    /// [`Comm::set_coll_fanout`]).
    pub fn set_coll_fanout(&mut self, fanout: u32) {
        self.comm.set_coll_fanout(fanout);
    }

    /// Posts `nic`'s contribution to a firmware collective (see
    /// [`Comm::coll_enter`]).
    pub fn coll_enter(
        &mut self,
        now: Time,
        nic: NicId,
        coll: CollId,
        op: ReduceOp,
        vals: &[u64],
    ) -> Post {
        self.comm.coll_enter(now, nic, coll, op, vals)
    }

    /// Root-initiated firmware broadcast over the collective tree (see
    /// [`Comm::coll_broadcast`]).
    pub fn coll_broadcast(&mut self, now: Time, nic: NicId, coll: CollId, vals: &[u64]) -> Post {
        self.comm.coll_broadcast(now, nic, coll, vals)
    }

    /// The combined result of `coll`'s most recent root combine (see
    /// [`Comm::coll_result`]).
    pub fn coll_result(&self, coll: CollId) -> Option<(u32, &[u64])> {
        self.comm.coll_result(coll)
    }

    /// The epoch `nic` would contribute to next on `coll` (see
    /// [`Comm::coll_epoch`]).
    pub fn coll_epoch(&self, coll: CollId, nic: NicId) -> u32 {
        self.comm.coll_epoch(coll, nic)
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
                _ => return true,
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
    fn pin_accounting() {
        let mut v = vmmc(2);
        v.register_pinned(0, PinClass::SharedPages, 4096 * 100);
        v.register_pinned(0, PinClass::SharedPages, 4096);
        v.register_pinned(0, PinClass::ProtocolData, 512);
        assert_eq!(v.pinned(0, PinClass::SharedPages), 4096 * 101);
        assert_eq!(v.pinned(0, PinClass::ProtocolData), 512);
        assert_eq!(v.pinned(1, PinClass::SharedPages), 0);
    }

    #[test]
    fn internal_tags_do_not_collide_with_protocol_tags() {
        let mut v = vmmc(2);
        let t1 = v.internal_tag();
        let t2 = v.internal_tag();
        assert_ne!(t1, t2);
        assert!(t1.value() >= 1 << 32);
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
    fn fetch_and_store_passthrough() {
        let mut v = vmmc(2);
        let p = v.fetch_and_store(Time::ZERO, NicId::new(0), NicId::new(1), 2, 11, Tag::new(5));
        let ups = drain(&mut v, p);
        assert!(matches!(
            ups[0].1,
            Upcall::AtomicCompleted { old: 0, tag, .. } if tag == Tag::new(5)
        ));
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

    #[test]
    fn lock_passthrough_round_trip() {
        let mut v = vmmc(2);
        let lock = LockId::new(0);
        let p = v.lock_acquire(Time::ZERO, NicId::new(1), lock, Tag::new(9));
        let ups = drain(&mut v, p);
        assert!(ups
            .iter()
            .any(|(_, u)| matches!(u, Upcall::LockGranted { nic, .. } if *nic == NicId::new(1))));
        assert!(v.lock_owned_by(NicId::new(1), lock));
    }
}
