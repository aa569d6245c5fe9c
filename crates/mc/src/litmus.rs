//! The LRC litmus corpus: small programs that probe what lazy release
//! consistency promises.
//!
//! Each litmus places one shared variable per page (so invalidations
//! and diffs are exercised page-by-page), writes small constants into
//! variables, and collects outcomes with [`Op::Observe`]. No litmus
//! states its allowed outcomes: every program synchronizes every access
//! with locks or barriers, release consistency gives a data-race-free
//! program exactly its sequentially consistent results, and
//! [`genima_check::sc_outcomes`] computes those from the programs (and
//! refuses a racy one). The allowed sets are *protocol-column
//! independent*: Base through full GeNIMA implement the same memory
//! model, so an outcome outside the set on any column is a protocol
//! bug, not a weaker consistency choice.
//!
//! Shapes come in two tiers. [`corpus`] is the CI tier: two-process
//! shapes whose state spaces exhaust on every column in seconds.
//! [`extended`] holds the classic larger shapes (`sb`, `iriw`,
//! `lock-handoff`) whose inequivalent-schedule counts on the NI-rich
//! columns run into the millions: exhaustive on the cheap columns
//! locally, bounded elsewhere.

use genima_proto::{
    ops_source, Addr, BarrierId, Column, LockId, Op, OpSource, SvmSystem, Topology, PAGE_SIZE,
};

/// One litmus shape: its programs, one process per node. What it may
/// observe is computed from them ([`genima_check::sc_outcomes`]).
#[derive(Clone, Copy)]
pub struct Litmus {
    /// Short CLI name (`mp`, `sb`, `iriw`, `lock-handoff`,
    /// `lock-reopen`, `barrier-epoch`, `odp-first-touch`).
    pub name: &'static str,
    /// What the shape tests.
    pub desc: &'static str,
    /// Builds the per-process operation streams.
    pub programs: fn() -> Vec<Vec<Op>>,
}

/// Byte address of litmus variable `v` (one variable per page).
fn var(v: usize) -> Addr {
    Addr::new(v as u64 * PAGE_SIZE as u64)
}

fn w(v: usize) -> Op {
    wv(v, 1)
}

/// Write the 32-bit value `val` into variable `v`.
fn wv(v: usize, val: u32) -> Op {
    Op::WriteData {
        addr: var(v),
        data: val.to_le_bytes().to_vec(),
    }
}

/// Write the 32-bit value `val` at byte `off` of variable 0's page.
fn wat(off: u64, val: u32) -> Op {
    Op::WriteData {
        addr: Addr::new(off),
        data: val.to_le_bytes().to_vec(),
    }
}

/// Observe the 32-bit word at byte `off` of variable 0's page.
fn obsat(off: u64) -> Op {
    Op::Observe {
        addr: Addr::new(off),
        len: 4,
    }
}

fn obs(v: usize) -> Op {
    Op::Observe {
        addr: var(v),
        len: 4,
    }
}

fn acq(l: usize) -> Op {
    Op::Acquire(LockId::new(l))
}

fn rel(l: usize) -> Op {
    Op::Release(LockId::new(l))
}

fn bar(b: usize) -> Op {
    Op::Barrier(BarrierId::new(b))
}

/// Message passing: writer publishes data then flag under one lock;
/// reader observes flag then data under the same lock. Seeing the flag
/// without the data would violate the lock's consistency-acquire.
fn mp_programs() -> Vec<Vec<Op>> {
    vec![
        vec![acq(0), w(0), w(1), rel(0)],
        vec![acq(0), obs(1), obs(0), rel(0)],
    ]
}

/// Store buffering: each process writes its own variable (under that
/// variable's lock) and then reads the other's. Both reads returning
/// zero would need both locks acquired "before" the other's release —
/// impossible under the lock-carried vector clocks.
fn sb_programs() -> Vec<Vec<Op>> {
    vec![
        vec![acq(0), w(0), rel(0), acq(1), obs(1), rel(1)],
        vec![acq(1), w(1), rel(1), acq(0), obs(0), rel(0)],
    ]
}

/// IRIW: two independent writers, two readers observing in opposite
/// orders under the writers' locks. The readers disagreeing about the
/// write order is forbidden — lock grants carry vector clocks
/// transitively, so lock-synchronized LRC is store-atomic.
fn iriw_programs() -> Vec<Vec<Op>> {
    vec![
        vec![acq(0), w(0), rel(0)],
        vec![acq(1), w(1), rel(1)],
        vec![acq(0), obs(0), rel(0), acq(1), obs(1), rel(1)],
        vec![acq(1), obs(1), rel(1), acq(0), obs(0), rel(0)],
    ]
}

/// Lock handoff: three processes take one global lock; p0 marks its
/// slot, p1 observes p0's slot and marks its own, p2 observes both.
/// The observations must match *some* total hold order — in
/// particular, if p1 saw p0 and p2 saw p1, then p2 must also see p0:
/// a grant that moves the lock without its full consistency history
/// breaks exactly that transitivity.
///
/// The chain is asymmetric (3/4/5 ops instead of three six-op
/// critical sections) so that exhaustive exploration stays feasible
/// on the NI-rich columns.
fn lock_handoff_programs() -> Vec<Vec<Op>> {
    vec![
        vec![acq(0), w(0), rel(0)],
        vec![acq(0), obs(0), w(1), rel(0)],
        vec![acq(0), obs(0), obs(1), rel(0)],
    ]
}

/// Lost update: both processes read-modify-write one variable under
/// the same lock (p0 stores 1, p1 stores 2), observing the old value
/// first. Whoever holds the lock second must see the first holder's
/// store — both observing zero is the classic lost update, and means
/// the grant moved the lock without the protected write.
fn lost_update_programs() -> Vec<Vec<Op>> {
    vec![
        vec![acq(0), obs(0), wv(0, 1), rel(0)],
        vec![acq(0), obs(0), wv(0, 2), rel(0)],
    ]
}

/// Coherence monotonicity: one process writes 1 then 2 into a single
/// variable in separate critical sections; a reader observes it twice
/// inside one critical section. Reads going backwards (2 then 1, or
/// 1 then 0) would mean a write notice or diff was applied out of
/// interval order.
fn mono_programs() -> Vec<Vec<Op>> {
    vec![
        vec![acq(0), wv(0, 1), rel(0), acq(0), wv(0, 2), rel(0)],
        vec![acq(0), obs(0), obs(0), rel(0)],
    ]
}

/// Lock re-open: p0, at the home of the one page, reads its word and
/// then writes it under the lock in two holdings, and p1 writes another
/// word of the same page under the lock; each observes the other's
/// word. Where home writes go in place, the first holding's write is a
/// protection upgrade, and p0's second acquire re-opens the page before
/// the grant (DESIGN.md §10.4). If p1 held the lock in between, the grant
/// must still invalidate the re-opened page and p0's write wait at the
/// home for p1's diff, or p0 would read p1's word as zero.
fn lock_reopen_programs() -> Vec<Vec<Op>> {
    let (a, b) = (0, PAGE_SIZE as u64 / 2);
    vec![
        vec![
            obsat(a),
            acq(0),
            wat(a, 1),
            rel(0),
            acq(0),
            wat(a, 2),
            obsat(b),
            rel(0),
        ],
        vec![acq(0), obsat(a), wat(b, 1), rel(0)],
    ]
}

/// Lock-then-barrier chaining: the writer publishes under a lock and
/// then crosses the barrier; the reader crosses the barrier and reads
/// without the lock. The barrier join must carry the lock-protected
/// interval, so zero is forbidden.
fn mp_bar_programs() -> Vec<Vec<Op>> {
    vec![vec![acq(0), w(0), rel(0), bar(0)], vec![bar(0), obs(0)]]
}

/// Barrier-epoch publication: everyone writes its variable, crosses
/// one barrier, and observes its neighbour's. The barrier join makes
/// every pre-barrier write visible — zero is forbidden.
///
/// Two processes, not three: barrier arrivals are mutually dependent
/// (a clique), so each extra arrival multiplies the inequivalent
/// interleavings factorially — the three-process shape exceeds two
/// million schedules before exhausting even on Base.
fn barrier_epoch_programs() -> Vec<Vec<Op>> {
    (0..2)
        .map(|i| vec![w(i), bar(0), obs((i + 1) % 2)])
        .collect()
}

/// ODP first touch: p1 writes variable 0, homed at p0's node, under
/// the lock, and p0 reads it under the same lock. The home never
/// writes the page, so nothing advises its NI to map it (DESIGN.md
/// §10.5): p1's fetch-for-write is the page's first remote touch and, on
/// an RDMA NIC with on-demand paging, takes a paging fault that parks
/// its channel (§10.6). The lock still orders the two sections: p0 sees
/// zero or one, nothing else.
fn odp_first_touch_programs() -> Vec<Vec<Op>> {
    vec![vec![acq(0), obs(0), rel(0)], vec![acq(0), w(0), rel(0)]]
}

/// The CI litmus corpus: every shape here is exhaustively explorable
/// on every protocol column (Base through full GeNIMA) in seconds to
/// a couple of minutes on one core, and `bench mc` gates each cell
/// exhaustive and reaching every outcome its programs allow.
pub fn corpus() -> Vec<Litmus> {
    vec![
        Litmus {
            name: "mp",
            desc: "message passing via one lock",
            programs: mp_programs,
        },
        Litmus {
            name: "lost-update",
            desc: "locked read-modify-write never loses a store",
            programs: lost_update_programs,
        },
        Litmus {
            name: "mono",
            desc: "same-variable writes observed in interval order",
            programs: mono_programs,
        },
        Litmus {
            name: "lock-reopen",
            desc: "a lock's home pages re-opened before its grant",
            programs: lock_reopen_programs,
        },
        Litmus {
            name: "mp-bar",
            desc: "barrier join carries lock-protected intervals",
            programs: mp_bar_programs,
        },
        Litmus {
            name: "barrier-epoch",
            desc: "pre-barrier writes visible after the epoch",
            programs: barrier_epoch_programs,
        },
        Litmus {
            name: "odp-first-touch",
            desc: "a fetch-for-write faults in an unadvised home page",
            programs: odp_first_touch_programs,
        },
    ]
}

/// Larger classic shapes whose state spaces exceed what CI can
/// exhaust on the NI-rich columns: `bench mc` explores each on Base,
/// GeNIMA and GeNIMA-2025 at a 1M-schedule cap (`bench mc sb` alone
/// exhausts sb on Base in under a minute).
pub fn extended() -> Vec<Litmus> {
    vec![
        Litmus {
            name: "sb",
            desc: "store buffering with per-variable locks",
            programs: sb_programs,
        },
        Litmus {
            name: "iriw",
            desc: "independent reads of independent writes",
            programs: iriw_programs,
        },
        Litmus {
            name: "lock-handoff",
            desc: "three-way lock handoff carries full history",
            programs: lock_handoff_programs,
        },
    ]
}

/// Finds a litmus by its CLI name, in the CI corpus or the extended
/// set.
pub fn by_name(name: &str) -> Option<Litmus> {
    corpus()
        .into_iter()
        .chain(extended())
        .find(|l| l.name == name)
}

impl Litmus {
    /// Builds a fresh system for one exploration run on an evaluation
    /// column (feature set + hardware generation), so the GeNIMA-2025
    /// RNIC column is model-checked with the same litmus corpus as the
    /// paper's five. Each program runs alone on its own node.
    pub fn build_on(&self, column: Column) -> SvmSystem {
        let programs = (self.programs)();
        let mut params = column.params(Topology::new(programs.len(), 1));
        params.data_mode = true;
        params.locks = 4;
        let sources: Vec<Box<dyn OpSource>> = programs
            .into_iter()
            .map(|ops| Box::new(ops_source(ops)) as Box<dyn OpSource>)
            .collect();
        SvmSystem::new(params, sources)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    fn all_shapes() -> Vec<Litmus> {
        corpus().into_iter().chain(extended()).collect()
    }

    /// The outcomes the named litmus allows.
    fn allowed(name: &str) -> BTreeSet<Vec<Vec<u64>>> {
        let l = by_name(name).expect("a litmus");
        genima_check::sc_outcomes(&(l.programs)()).expect("a race-free litmus")
    }

    /// One outcome from its per-process observations.
    fn outcome<const N: usize>(obs: [&[u64]; N]) -> Vec<Vec<u64>> {
        obs.map(<[u64]>::to_vec).to_vec()
    }

    #[test]
    fn every_litmus_is_race_free() {
        // Under every synchronisation order, not only round-robin.
        for l in all_shapes() {
            let sc = genima_check::sc_outcomes(&(l.programs)());
            assert!(sc.is_ok(), "{}: {sc:?}", l.name);
        }
    }

    #[test]
    fn litmus_names_are_unique() {
        let mut names: Vec<_> = all_shapes().iter().map(|l| l.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all_shapes().len());
    }

    #[test]
    fn fifo_outcomes_are_allowed() {
        for l in all_shapes() {
            let allowed = allowed(l.name);
            for c in Column::all() {
                let mut sys = l.build_on(c);
                sys.run();
                let o = sys.take_observations();
                assert!(
                    allowed.contains(&o),
                    "{} on {c}: FIFO outcome {o:?} forbidden",
                    l.name
                );
            }
        }
    }

    #[test]
    fn lock_handoff_order_logic() {
        // Exactly one outcome per total hold order: a process sees
        // slot j iff process j held before it.
        let orders = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        let by_order: BTreeSet<_> = orders
            .iter()
            .map(|order: &[usize; 3]| {
                let pos = |p| order.iter().position(|&q| q == p);
                let saw = |i, j| u64::from(pos(j) < pos(i));
                outcome([&[], &[saw(1, 0)], &[saw(2, 0), saw(2, 1)]])
            })
            .collect();
        assert_eq!(allowed("lock-handoff"), by_order);
        // Broken transitivity: p1 saw p0 and p2 saw p1, yet p2 missed
        // p0's slot — no total order explains that.
        assert!(!by_order.contains(&outcome([&[], &[1], &[0, 1]])));
        // p2 saw p1's slot but p1 claims it held after p0 while p2
        // missed p0 — also unexplainable.
        assert!(!by_order.contains(&outcome([&[], &[0], &[1, 0]])));
    }

    #[test]
    fn mono_reads_one_value_per_critical_section() {
        // The reader's section lands before, between, or after the
        // writer's two; inside it both reads agree.
        let want = [0, 1, 2].map(|v| outcome([&[], &[v, v]]));
        assert_eq!(allowed("mono"), BTreeSet::from(want));
    }

    #[test]
    fn allowed_sets_reject_the_classic_forbidden_outcomes() {
        let cases: [(&str, Vec<Vec<u64>>, bool); 15] = [
            ("mp", outcome([&[], &[1, 0]]), false),
            ("mp", outcome([&[], &[1, 1]]), true),
            ("sb", outcome([&[0], &[0]]), false),
            ("sb", outcome([&[1], &[0]]), true),
            ("iriw", outcome([&[], &[], &[1, 0], &[1, 0]]), false),
            ("iriw", outcome([&[], &[], &[1, 1], &[1, 0]]), true),
            ("barrier-epoch", outcome([&[1], &[0]]), false),
            // Lost update: both holders observing zero means the
            // second grant dropped the first holder's store.
            ("lost-update", outcome([&[0], &[0]]), false),
            ("lost-update", outcome([&[2], &[0]]), true),
            // Monotonicity: reads never go backwards, and one critical
            // section sees one value.
            ("mono", outcome([&[], &[2, 1]]), false),
            ("mono", outcome([&[], &[1, 0]]), false),
            ("mono", outcome([&[], &[1, 2]]), false),
            ("mp-bar", outcome([&[], &[0]]), false),
            ("odp-first-touch", outcome([&[2], &[]]), false),
            ("odp-first-touch", outcome([&[1], &[]]), true),
        ];
        for (name, o, ok) in cases {
            assert_eq!(allowed(name).contains(&o), ok, "{name}: {o:?}");
        }
    }

    #[test]
    fn odp_first_touch_keeps_the_park_path_in_the_corpus() {
        // The home's prefetch advice covers only pages it writes in
        // place; this litmus's page is written remotely only, so its
        // first fetch still faults on the RNIC and never on the LANai.
        let l = by_name("odp-first-touch").expect("odp-first-touch litmus exists");
        assert!(corpus().iter().any(|c| c.name == l.name), "CI tier");
        for c in Column::all() {
            let faults = l.build_on(c).run().ni.odp_faults;
            if c == Column::genima_2025() {
                assert!(faults >= 1, "{c}: no ODP fault");
            } else {
                assert_eq!(faults, 0, "{c}");
            }
        }
    }
}
