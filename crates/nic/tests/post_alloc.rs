//! Once warm, the NI communication layer allocates nothing per call: a
//! `Post` or `Step` takes its lists from `Comm`'s free list, and a
//! caller that hands them back through `Comm::recycle` gets them again.
//! A multi-fragment deposit carries more than four events and takes
//! the same reused lists. A count, not a time: the same on every
//! machine.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use genima_net::NicId;
use genima_nic::{CasWord, Comm, Event, LockId, MsgKind, Post, SendDesc, Tag, Upcall};
use genima_rnic::HwProfile;
use genima_sim::Time;

struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's own
// layout and pointer, so `System`'s contract is the caller's contract;
// the counter never touches the allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        // SAFETY: forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Fragments of the multi-fragment deposit: more than four events.
const FRAGMENTS: u32 = 5;

/// One board's `Comm` on two ports and one NI lock, the clock, the
/// events in flight and the upcalls of the call being settled.
struct Rig {
    comm: Comm,
    rdma: bool,
    now: Time,
    pending: Vec<(Time, Event)>,
    ups: Vec<Upcall>,
    tags: u64,
}

impl Rig {
    fn new(profile: HwProfile) -> Rig {
        Rig {
            comm: Comm::with_model(profile.model(2), profile.nic, profile.net, 2, 1),
            rdma: profile.is_rdma(),
            now: Time::ZERO,
            pending: Vec::with_capacity(64),
            ups: Vec::with_capacity(64),
            tags: 0,
        }
    }

    fn tag(&mut self) -> Tag {
        self.tags += 1;
        Tag::new(self.tags)
    }

    /// Handles a post's events and everything they cause, earliest
    /// first, recycling every list; returns how many events the post
    /// carried.
    fn settle(&mut self, mut post: Post) -> usize {
        let posted = post.events.len();
        self.now = self.now.max(post.host_free);
        self.pending.append(&mut post.events);
        self.ups.extend(post.upcalls.drain(..).map(|(_, u)| u));
        self.comm.recycle(post.events, post.upcalls);
        while let Some(i) = (0..self.pending.len()).min_by_key(|&i| self.pending[i].0) {
            let (t, ev) = self.pending.remove(i);
            self.now = self.now.max(t);
            let mut step = self.comm.handle(t, ev);
            self.pending.append(&mut step.events);
            self.ups.extend(step.upcalls.drain(..).map(|(_, u)| u));
            self.comm.recycle(step.events, step.upcalls);
        }
        posted
    }

    /// Checks that the call just settled completed once, as `done`.
    fn expect(&mut self, done: impl Fn(&Upcall) -> bool) {
        assert_eq!(self.ups.iter().filter(|u| done(u)).count(), 1);
        self.ups.clear();
    }

    fn deposit(&mut self, bytes: u32) -> usize {
        let (src, dst) = (NicId::new(0), NicId::new(1));
        let tag = self.tag();
        let desc = SendDesc {
            dst,
            bytes,
            kind: MsgKind::Deposit,
            tag,
        };
        let post = self.comm.post_send(self.now, src, desc);
        let events = self.settle(post);
        self.expect(|u| matches!(u, Upcall::DepositArrived { .. }));
        events
    }

    /// One round: a one-packet deposit, a multi-fragment deposit, a
    /// remote fetch of one page, and the board's lock verb — an NI lock
    /// taken and dropped from each port on the LANai, a masked CAS
    /// pair on the RNIC.
    fn round(&mut self) {
        self.deposit(64);
        let max_packet = self.comm.network().config().max_packet;
        let events = self.deposit(FRAGMENTS * max_packet);
        assert!(
            events > 4,
            "the multi-fragment deposit carried {events} events"
        );

        let tag = self.tag();
        let post = (self.comm).fetch(self.now, NicId::new(0), NicId::new(1), 4096, 7, tag);
        self.settle(post);
        self.expect(|u| matches!(u, Upcall::FetchCompleted { .. }));

        if self.rdma {
            for (expect, new) in [(0, 1), (1, 0)] {
                let cas = CasWord {
                    cell: 0,
                    expect,
                    new,
                    mask: u64::MAX,
                    wait: false,
                };
                let tag = self.tag();
                let post = (self.comm).masked_cas(self.now, NicId::new(0), NicId::new(1), cas, tag);
                self.settle(post);
                self.expect(|u| matches!(u, Upcall::AtomicCompleted { old, .. } if *old == expect));
            }
        } else {
            for nic in [NicId::new(1), NicId::new(0)] {
                let tag = self.tag();
                let post = self.comm.lock_acquire(self.now, nic, LockId::new(0), tag);
                self.settle(post);
                self.expect(|u| matches!(u, Upcall::LockGranted { .. }));
                let post = self.comm.lock_release(self.now, nic, LockId::new(0));
                self.settle(post);
                self.ups.clear();
            }
        }
    }
}

// The only test in this binary: the counter is process-wide, and a
// second test running beside this one would be counted into it.
#[test]
fn a_warm_comm_posts_and_handles_without_allocating() {
    for profile in [HwProfile::lanai_1999(), HwProfile::rnic_2025()] {
        let mut rig = Rig::new(profile);
        rig.round();
        let before = CALLS.load(Relaxed);
        for _ in 0..50 {
            rig.round();
        }
        let calls = CALLS.load(Relaxed) - before;
        assert_eq!(
            calls, 0,
            "{}: 50 warm rounds allocated {calls} times",
            profile.name
        );
    }
}
