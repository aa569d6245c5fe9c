//! The notice machine, clock-free: the route table (and beside it the
//! diff route's, the other route resolved once per run), one test per
//! transition, then a model of processes that pass a lock and meet at a
//! barrier, driven through the same transitions and enumerated
//! exhaustively at small scope on every route.

use std::collections::{HashSet, VecDeque};

use genima_sim::FixedState;

use super::*;
use crate::column::Column;
use crate::features::FeatureSet;

const PUSH: NoticeRoute = NoticeRoute::Push { replicate: false };

fn clock(lanes: &[u32]) -> VClock {
    let mut vc = VClock::new(lanes.len());
    for (q, &v) in lanes.iter().enumerate() {
        vc.set(ProcId::new(q), v);
    }
    vc
}

/// Two nodes of two processes: 0 and 1 on node 0, 2 and 3 on node 1.
fn two_by_two(route: NoticeRoute) -> Notices {
    Notices::new(route, Topology::new(2, 2))
}

#[test]
fn the_route_is_the_rungs_then_pull_then_the_broadcast() {
    let settings = [(false, false), (false, true), (true, false), (true, true)];
    for column in Column::all() {
        for ((pull, broadcast), nodes) in
            settings.into_iter().flat_map(|s| [1, 2, 4].map(|n| (s, n)))
        {
            let mut p = column.params(Topology::new(nodes, 2));
            p.proto.pull_notices = pull;
            p.hw.nic.broadcast = broadcast;
            let want = if column.features == FeatureSet::base() {
                NoticeRoute::Piggyback
            } else if pull {
                NoticeRoute::Pull
            } else {
                NoticeRoute::Push {
                    replicate: broadcast && nodes > 1,
                }
            };
            let case = format!("{} pull={pull} broadcast={broadcast}", column.name());
            assert_eq!(NoticeRoute::of(&p), want, "{case} nodes={nodes}");
        }
    }
}

/// Lazy below direct diffs whatever the NI can gather, then the rung's
/// release order, gathered where the NI can. With the lock strategy,
/// the notice route and remote fetch, the diff route makes a run
/// interrupt-free.
#[test]
fn the_diff_route_is_the_rungs_then_the_gather() {
    use crate::system::interval::DiffRoute;
    use crate::system::LockStrategy;
    for column in Column::all() {
        for gather in [false, true] {
            let mut p = column.params(Topology::new(4, 2));
            p.hw.nic.scatter_gather = gather;
            let f = column.features;
            let want = if f <= FeatureSet::dw_rf() {
                DiffRoute::Lazy
            } else if f == FeatureSet::genima_2025() {
                DiffRoute::HandsOverFirst { gather }
            } else {
                DiffRoute::Eager { gather }
            };
            let (route, case) = (
                DiffRoute::of(&p),
                format!("{} gather={gather}", column.name()),
            );
            assert_eq!(route, want, "{case}");
            let free = LockStrategy::of(&p) != LockStrategy::HostChain
                && NoticeRoute::of(&p) != NoticeRoute::Piggyback
                && route != DiffRoute::Lazy
                && f.remote_fetch();
            assert_eq!(f.interrupt_free(), free, "{case}");
        }
    }
    // The RNIC gathers every page's runs into one message.
    let p = Column::from(FeatureSet::genima_2025()).params(Topology::new(4, 2));
    let route = DiffRoute::of(&p);
    assert_eq!(route, DiffRoute::HandsOverFirst { gather: true });
}

#[test]
fn a_close_holds_the_record_at_its_node_and_only_push_posts_it() {
    let mut m = two_by_two(PUSH);
    m.closed(2, 1);
    m.closed(2, 2);
    assert_eq!(
        (m.arrived(0), m.arrived(1)),
        (&[0; 4][..], &[0, 0, 2, 0][..])
    );
    assert_eq!(m.announce(), Announce::Post { replicate: false });
    let replicated = two_by_two(NoticeRoute::Push { replicate: true });
    assert_eq!(replicated.announce(), Announce::Post { replicate: true });
    for route in [NoticeRoute::Piggyback, NoticeRoute::Pull] {
        assert_eq!(two_by_two(route).announce(), Announce::Stay, "{route:?}");
    }
}

#[test]
fn a_delivery_raises_the_watermark_and_says_whether_it_did() {
    let mut m = two_by_two(PUSH);
    assert!(m.delivered(0, 2, 2));
    assert!(!m.delivered(0, 2, 1), "never lowered");
    assert!(!m.delivered(0, 2, 2), "a repeat");
    assert_eq!(m.arrived(0), [0, 0, 2, 0]);
}

#[test]
fn a_piggyback_carries_the_senders_board_and_each_record_once_per_pair() {
    let mut m = two_by_two(NoticeRoute::Piggyback);
    m.closed(0, 2);
    m.closed(1, 1);
    let mut ranges = Vec::new();
    let carry = m.carry(0, 1, SyncMsg::Grant, |q, r| ranges.push((q, r)));
    assert_eq!(carry, Carry::Host(Some(vec![2, 1, 0, 0])));
    assert_eq!(ranges, [(0, 0..2), (1, 0..1)]);
    let Carry::Host(Some(upto)) = carry else {
        unreachable!()
    };
    assert!(m.merge(1, upto));
    assert_eq!((m.arrived(1), m.spare.len()), (&[2, 1, 0, 0][..], 1));
    // A barrier message is a host message too, and carries nothing new.
    m.closed(0, 3);
    ranges.clear();
    let msg = SyncMsg::Barrier { deposit_bytes: 64 };
    let carry = m.carry(0, 1, msg, |q, r| ranges.push((q, r)));
    assert_eq!(carry, Carry::Host(Some(vec![3, 1, 0, 0])));
    assert_eq!(m.spare.len(), 0, "the vector came from the spares");
    assert_eq!(ranges, [(0, 2..3)]);
    // The other direction has carried nothing yet.
    ranges.clear();
    m.carry(1, 0, SyncMsg::Grant, |q, r| ranges.push((q, r)));
    assert_eq!(ranges, [(0, 0..2), (1, 0..1)]);
    assert!(!m.merge(0, vec![2, 1, 0, 0]), "node 0 holds them");
}

#[test]
fn eager_routes_deposit_barrier_messages_and_send_grants_bare() {
    for route in [PUSH, NoticeRoute::Pull] {
        let mut m = two_by_two(route);
        m.closed(0, 1);
        let msg = SyncMsg::Barrier { deposit_bytes: 64 };
        let none = |_, _| panic!("{route:?} carried a record");
        assert_eq!(m.carry(0, 1, msg, none), Carry::Deposit(64));
        assert_eq!(m.carry(0, 1, SyncMsg::Grant, none), Carry::Host(None));
    }
}

#[test]
fn an_acquire_is_covered_or_waits_or_pulls_by_route() {
    for route in [NoticeRoute::Piggyback, PUSH, NoticeRoute::Pull] {
        let mut m = two_by_two(route);
        m.closed(2, 3);
        m.delivered(0, 2, 1);
        assert_eq!(m.stage(0, &clock(&[0, 0, 1, 0])), Stage::Covered);
        assert_eq!(m.stage(1, &clock(&[0, 0, 3, 0])), Stage::Covered);
        let behind = clock(&[0, 0, 3, 0]);
        let stage = m.stage(0, &behind);
        assert_eq!(
            stage == Stage::Pull,
            route == NoticeRoute::Pull,
            "{route:?}"
        );
        assert_eq!(
            stage == Stage::Wait,
            route != NoticeRoute::Pull,
            "{route:?}"
        );
        assert!(!m.covered(0, &behind) && m.covered(1, &behind));
    }
    let mut m = two_by_two(NoticeRoute::Pull);
    m.closed(2, 3);
    m.delivered(0, 2, 1);
    assert_eq!(m.pull(0, 2, 3), Some(1..3));
    assert_eq!(m.pull(0, 2, 1), None, "held");
}

// ---------------------------------------------------------------------
// The model.
//
// Processes on a few nodes each take locks in their program's order,
// whoever gets there first, then meet at one barrier. Every holder
// writes, so every release closes an interval, and so does every
// barrier arrival. A lock is granted from the node its last holder ran
// on. The messages from one node to
// another arrive in the order they left (the transport sequences each
// channel); fetches complete in any order, and the NI tree releases the
// nodes in any order with the joined clock alone. Every decision is the
// machine's; the model keeps what each node has really received and
// checks it.

/// How the barrier combines arrivals.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Combiner {
    /// Node 0's host manager: a message from every other node, and one
    /// back.
    Manager,
    /// The NI tree: each node's last arrival posts its joined clock.
    Tree,
}

/// Who runs where, and which locks each process takes.
#[derive(Clone, Copy, Debug)]
struct Scope {
    nodes: usize,
    per_node: usize,
    /// Per process, the locks it takes in turn. Lock `l` starts at node
    /// `l % nodes`.
    programs: &'static [&'static [usize]],
}

/// What a message carries: watermarks for [`Notices::merge`] and, per
/// writer, the records that rode with them (a bit each, interval `k` at
/// bit `k - 1`).
#[derive(Clone, Debug)]
struct Carried {
    upto: Option<Vec<u32>>,
    records: Vec<u32>,
}

#[derive(Clone, Debug)]
enum Msg {
    /// A pushed record: writer, interval.
    Notice(usize, u32),
    /// Lock `lock`'s grant to process `proc`.
    Grant {
        proc: usize,
        lock: usize,
        carried: Carried,
    },
    /// A barrier arrival at the manager, with its clock.
    Arrive { vc: VClock, carried: Carried },
    /// The manager's release, with the joined clock.
    Release { vc: VClock, carried: Carried },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Proc {
    /// Takes lock `l` next.
    Want(usize),
    /// Lock `l`'s grant is on its way.
    Granted(usize),
    Held(usize),
    /// Waiting for notices, before holding lock `Some(l)` or leaving
    /// the barrier.
    Stage(Option<usize>),
    /// Its program done: arrives at the barrier next.
    Free,
    /// Waiting for the barrier's release.
    Barrier,
    Done,
}

#[derive(Clone, Copy, Debug)]
enum Event {
    Acquire(usize),
    Release(usize),
    Arrive(usize),
    /// The oldest message on the channel `from * nodes + to`.
    Deliver(usize),
    Fetched(usize),
    /// The NI tree releases a node.
    Exit(usize),
}

#[derive(Clone)]
struct Model {
    scope: Scope,
    route: NoticeRoute,
    combiner: Combiner,
    m: Notices,
    procs: Vec<Proc>,
    /// Per process, its program's next step.
    pc: Vec<usize>,
    vc: Vec<VClock>,
    /// Per lock: the node it is at, whether it is held or granted, and
    /// its clock.
    locks: Vec<(usize, bool, VClock)>,
    chan: Vec<VecDeque<Msg>>,
    /// Fetches in flight: node, writer, interval range.
    fetches: Vec<(usize, usize, Range<u32>)>,
    /// The manager's arrivals so far and their joined clock.
    noted: usize,
    noted_vc: VClock,
    /// The tree: per node, its arrivals and their joined clock; the
    /// clock combined so far; the nodes posted; the nodes (a bit each)
    /// it has yet to release.
    local: Vec<(usize, VClock)>,
    combined: VClock,
    posted: usize,
    to_release: u32,
    /// Per node, per writer: the records the node has really received.
    got: Vec<u32>,
    /// Piggyback: per sending node, receiving node and writer, the
    /// records carried.
    carried: Vec<u32>,
    /// Push: the posts made and the deposits delivered.
    posts: usize,
    deposits: usize,
}

type Check = Result<(), String>;

/// Records `r.start + 1..=r.end`, a bit each.
fn bits(r: Range<u32>) -> u32 {
    ((1u64 << r.end) - (1u64 << r.start)) as u32
}

impl Model {
    fn new(scope: Scope, route: NoticeRoute, combiner: Combiner) -> Model {
        let (nodes, procs) = (scope.nodes, scope.nodes * scope.per_node);
        assert_eq!(scope.programs.len(), procs);
        let locks = scope
            .programs
            .iter()
            .flat_map(|p| p.iter())
            .max()
            .map_or(0, |l| l + 1);
        Model {
            scope,
            route,
            combiner,
            m: Notices::new(route, Topology::new(nodes, scope.per_node)),
            procs: (scope.programs.iter())
                .map(|p| p.first().map_or(Proc::Free, |&l| Proc::Want(l)))
                .collect(),
            pc: vec![0; procs],
            vc: vec![VClock::new(procs); procs],
            locks: (0..locks)
                .map(|l| (l % nodes, false, VClock::new(procs)))
                .collect(),
            chan: vec![VecDeque::new(); nodes * nodes],
            fetches: Vec::new(),
            noted: 0,
            noted_vc: VClock::new(procs),
            local: vec![(0, VClock::new(procs)); nodes],
            combined: VClock::new(procs),
            posted: 0,
            to_release: 0,
            got: vec![0; nodes * procs],
            carried: vec![0; nodes * nodes * procs],
            posts: 0,
            deposits: 0,
        }
    }

    fn nprocs(&self) -> usize {
        self.procs.len()
    }

    fn node(&self, p: usize) -> usize {
        p / self.scope.per_node
    }

    /// Everything that can happen next.
    fn events(&self, out: &mut Vec<Event>) {
        out.clear();
        for (p, &state) in self.procs.iter().enumerate() {
            match state {
                Proc::Want(l) if !self.locks[l].1 => out.push(Event::Acquire(p)),
                Proc::Held(_) => out.push(Event::Release(p)),
                Proc::Free => out.push(Event::Arrive(p)),
                Proc::Want(_) | Proc::Granted(_) | Proc::Stage(_) | Proc::Barrier | Proc::Done => {}
            }
        }
        let channels = self.chan.iter().enumerate();
        out.extend(
            channels
                .filter(|(_, c)| !c.is_empty())
                .map(|(c, _)| Event::Deliver(c)),
        );
        out.extend((0..self.fetches.len()).map(Event::Fetched));
        let nodes = 0..self.scope.nodes;
        out.extend(
            nodes
                .filter(|n| self.to_release & 1 << n != 0)
                .map(Event::Exit),
        );
    }

    fn step(&mut self, ev: Event) -> Check {
        let nodes = self.scope.nodes;
        match ev {
            Event::Acquire(p) => {
                let Proc::Want(l) = self.procs[p] else {
                    unreachable!("an acquire without a want")
                };
                let (from, to) = (self.locks[l].0, self.node(p));
                self.locks[l].1 = true;
                if from == to {
                    self.vc[p].join(&self.locks[l].2);
                    self.stage(p, Some(l))?;
                } else {
                    let carried = self.carry(from, to, SyncMsg::Grant)?;
                    let grant = Msg::Grant {
                        proc: p,
                        lock: l,
                        carried,
                    };
                    self.chan[from * nodes + to].push_back(grant);
                    self.procs[p] = Proc::Granted(l);
                }
            }
            Event::Release(p) => {
                let Proc::Held(l) = self.procs[p] else {
                    unreachable!("a release without the lock")
                };
                self.close(p);
                self.locks[l] = (self.node(p), false, self.vc[p].clone());
                self.pc[p] += 1;
                let next = self.scope.programs[p].get(self.pc[p]);
                self.procs[p] = next.map_or(Proc::Free, |&l| Proc::Want(l));
            }
            Event::Arrive(p) => {
                self.close(p);
                self.procs[p] = Proc::Barrier;
                let node = self.node(p);
                match self.combiner {
                    Combiner::Manager if node == 0 => self.note(&self.vc[p].clone())?,
                    Combiner::Manager => {
                        let msg = SyncMsg::Barrier { deposit_bytes: 64 };
                        let carried = self.carry(node, 0, msg)?;
                        let vc = self.vc[p].clone();
                        self.chan[node * nodes].push_back(Msg::Arrive { vc, carried });
                    }
                    Combiner::Tree => {
                        let (count, joined) = &mut self.local[node];
                        *count += 1;
                        joined.join(&self.vc[p]);
                        if *count == self.scope.per_node {
                            self.combined.join(joined);
                            self.posted += 1;
                            if self.posted == nodes {
                                self.to_release = (1 << nodes) - 1;
                            }
                        }
                    }
                }
            }
            Event::Deliver(c) => {
                let to = c % nodes;
                match self.chan[c].pop_front().expect("a message in flight") {
                    Msg::Notice(w, k) => {
                        let at = to * self.nprocs() + w;
                        let got = &mut self.got[at];
                        if *got & bits(k - 1..k) != 0 {
                            return Err(format!(
                                "node {to} received writer {w}'s record {k} twice"
                            ));
                        }
                        *got |= bits(k - 1..k);
                        self.deposits += 1;
                        if self.m.delivered(to, w, k) {
                            self.wake(to)?;
                        }
                    }
                    Msg::Grant {
                        proc: p,
                        lock: l,
                        carried,
                    } => {
                        self.receive(to, carried)?;
                        self.locks[l].0 = to;
                        self.vc[p].join(&self.locks[l].2);
                        self.stage(p, Some(l))?;
                    }
                    Msg::Arrive { vc, carried } => {
                        self.receive(0, carried)?;
                        self.note(&vc)?;
                    }
                    Msg::Release { vc, carried } => {
                        self.receive(to, carried)?;
                        self.release(to, &vc)?;
                    }
                }
            }
            Event::Fetched(i) => {
                let (node, w, range) = self.fetches.remove(i);
                let upto = range.end;
                let at = node * self.nprocs() + w;
                self.got[at] |= bits(range);
                if self.m.delivered(node, w, upto) {
                    self.wake(node)?;
                }
            }
            Event::Exit(node) => {
                self.to_release &= !(1 << node);
                let joined = self.combined.clone();
                self.release(node, &joined)?;
            }
        }
        self.check()
    }

    /// `p` closes its next interval, and the machine announces it.
    fn close(&mut self, p: usize) {
        let k = self.vc[p].bump(ProcId::new(p));
        self.m.closed(p, k);
        let (node, procs, nodes) = (self.node(p), self.nprocs(), self.scope.nodes);
        self.got[node * procs + p] |= bits(k - 1..k);
        match self.m.announce() {
            Announce::Stay => {}
            Announce::Post { replicate } => {
                self.posts += if replicate { 1 } else { nodes - 1 };
                for to in (0..nodes).filter(|&to| to != node) {
                    self.chan[node * nodes + to].push_back(Msg::Notice(p, k));
                }
            }
        }
    }

    /// `msg` leaves `from` for `to`, as the machine decides; no record
    /// rides twice between the same two nodes.
    fn carry(&mut self, from: usize, to: usize, msg: SyncMsg) -> Result<Carried, String> {
        let mut records = vec![0; self.nprocs()];
        let carry = self.m.carry(from, to, msg, |w, r| records[w] |= bits(r));
        let pair = (from * self.scope.nodes + to) * self.nprocs();
        for (w, &r) in records.iter().enumerate() {
            let carried = &mut self.carried[pair + w];
            if *carried & r != 0 {
                return Err(format!(
                    "writer {w}'s records {r:#b} rode from {from} to {to} twice"
                ));
            }
            *carried |= r;
        }
        let upto = match carry {
            Carry::Deposit(_) => None,
            Carry::Host(upto) => upto,
        };
        Ok(Carried { upto, records })
    }

    /// A message reached `node` with what it carried.
    fn receive(&mut self, node: usize, carried: Carried) -> Check {
        let procs = self.nprocs();
        for (w, r) in carried.records.into_iter().enumerate() {
            self.got[node * procs + w] |= r;
        }
        let advanced = carried.upto.is_some_and(|upto| self.m.merge(node, upto));
        if advanced {
            self.wake(node)?;
        }
        Ok(())
    }

    /// The manager notes an arrival with clock `vc`; the last releases.
    fn note(&mut self, vc: &VClock) -> Check {
        self.noted += 1;
        self.noted_vc.join(vc);
        if self.noted < self.nprocs() {
            return Ok(());
        }
        let joined = self.noted_vc.clone();
        self.release(0, &joined)?;
        let nodes = self.scope.nodes;
        for to in 1..nodes {
            let msg = SyncMsg::Barrier { deposit_bytes: 32 };
            let carried = self.carry(0, to, msg)?;
            let vc = joined.clone();
            self.chan[to].push_back(Msg::Release { vc, carried });
        }
        Ok(())
    }

    /// The barrier released `node` with the joined clock.
    fn release(&mut self, node: usize, joined: &VClock) -> Check {
        let per_node = self.scope.per_node;
        for p in node * per_node..(node + 1) * per_node {
            assert_eq!(self.procs[p], Proc::Barrier, "released before p{p} arrived");
            self.vc[p].join(joined);
            self.stage(p, None)?;
        }
        Ok(())
    }

    /// `p` acquired lock `Some(l)`, or left the barrier.
    fn stage(&mut self, p: usize, turn: Option<usize>) -> Check {
        let node = self.node(p);
        match self.m.stage(node, &self.vc[p]) {
            Stage::Covered => return self.complete(p, turn),
            Stage::Wait => {}
            Stage::Pull => {
                for q in 0..self.nprocs() {
                    let Some(range) = self.m.pull(node, q, self.vc[p].get(ProcId::new(q))) else {
                        continue;
                    };
                    let asked = |f: &&(usize, usize, Range<u32>)| (f.0, f.1) == (node, q);
                    if let Some(f) = self
                        .fetches
                        .iter()
                        .filter(asked)
                        .find(|f| f.2.end >= range.end)
                    {
                        return Err(format!(
                            "node {node} fetches {range:?} of writer {q} with {:?} in flight",
                            f.2
                        ));
                    }
                    self.fetches.push((node, q, range));
                }
            }
        }
        self.procs[p] = Proc::Stage(turn);
        Ok(())
    }

    /// Records reached `node`: complete the waiters they cover.
    fn wake(&mut self, node: usize) -> Check {
        let per_node = self.scope.per_node;
        for p in node * per_node..(node + 1) * per_node {
            if let Proc::Stage(turn) = self.procs[p] {
                if self.m.covered(node, &self.vc[p]) {
                    self.complete(p, turn)?;
                }
            }
        }
        Ok(())
    }

    /// `p` passes its notice stage: its node must hold every record its
    /// clock names.
    fn complete(&mut self, p: usize, turn: Option<usize>) -> Check {
        let (node, procs) = (self.node(p), self.nprocs());
        for (w, &want) in self.vc[p].lanes().iter().enumerate() {
            let have = self.got[node * procs + w];
            if bits(0..want) & !have != 0 {
                return Err(format!(
                    "p{p} passed on node {node} with {:?}, which holds writer {w}'s {have:#b}",
                    self.vc[p]
                ));
            }
        }
        self.procs[p] = turn.map_or(Proc::Done, Proc::Held);
        Ok(())
    }

    /// What holds after every step: under pull, a node with no fetch in
    /// flight has no process waiting for notices.
    fn check(&self) -> Check {
        if self.route != NoticeRoute::Pull {
            return Ok(());
        }
        for (p, state) in self.procs.iter().enumerate() {
            let node = self.node(p);
            let fetching = self.fetches.iter().any(|f| f.0 == node);
            if matches!(state, Proc::Stage(_)) && !fetching {
                return Err(format!("p{p} waits on node {node}, which fetches nothing"));
            }
        }
        Ok(())
    }

    /// What holds once nothing can happen: every process left the
    /// barrier, and under push every other node received every record
    /// once, in one post per record when the NI replicates it.
    fn check_quiescent(&self) -> Check {
        if let Some(p) = self.procs.iter().position(|&s| s != Proc::Done) {
            return Err(format!("quiescent with p{p} at {:?}", self.procs[p]));
        }
        let NoticeRoute::Push { replicate } = self.route else {
            return Ok(());
        };
        let (nodes, procs) = (self.scope.nodes, self.nprocs());
        let records: usize = (0..procs)
            .map(|w| self.vc[w].get(ProcId::new(w)) as usize)
            .sum();
        for (i, &got) in self.got.iter().enumerate() {
            let w = i % procs;
            if got != bits(0..self.vc[w].get(ProcId::new(w))) {
                return Err(format!("node {} holds writer {w}'s {got:#b}", i / procs));
            }
        }
        let posts = if replicate {
            records
        } else {
            records * (nodes - 1)
        };
        if (self.posts, self.deposits) != (posts, records * (nodes - 1)) {
            return Err(format!(
                "{records} records took {} posts and {} deposits",
                self.posts, self.deposits
            ));
        }
        Ok(())
    }

    /// The state: everything but the machine's spare vectors and what
    /// the checks count.
    fn key(&self) -> Vec<u32> {
        let mut k = Vec::new();
        for &state in &self.procs {
            k.push(match state {
                Proc::Want(l) => l as u32,
                Proc::Granted(l) => 0x700 | l as u32,
                Proc::Held(l) => 0x100 | l as u32,
                Proc::Stage(Some(i)) => 0x200 | i as u32,
                Proc::Stage(None) => 0x300,
                Proc::Free => 0x400,
                Proc::Barrier => 0x500,
                Proc::Done => 0x600,
            });
        }
        k.extend(self.pc.iter().map(|&pc| pc as u32));
        for (at, busy, _) in &self.locks {
            k.extend([*at as u32, *busy as u32]);
        }
        let lock_vcs = self.locks.iter().map(|(_, _, vc)| vc);
        let vcs = self.vc.iter().chain(lock_vcs).chain([&self.noted_vc]);
        for vc in vcs.chain(self.local.iter().map(|(_, vc)| vc)) {
            k.extend_from_slice(vc.lanes());
        }
        let carried = |k: &mut Vec<u32>, c: &Carried| {
            k.extend(c.upto.iter().flatten());
            k.extend(&c.records);
        };
        for chan in &self.chan {
            k.push(chan.len() as u32);
            for msg in chan {
                match msg {
                    Msg::Notice(w, i) => k.extend([0, *w as u32, *i]),
                    Msg::Grant {
                        proc,
                        lock,
                        carried: c,
                    } => {
                        k.extend([1, *proc as u32, *lock as u32]);
                        carried(&mut k, c);
                    }
                    Msg::Arrive { vc, carried: c } | Msg::Release { vc, carried: c } => {
                        k.push(2);
                        k.extend_from_slice(vc.lanes());
                        carried(&mut k, c);
                    }
                }
            }
        }
        let mut fetches: Vec<_> = (self.fetches.iter())
            .map(|(n, w, r)| [*n as u32, *w as u32, r.start, r.end])
            .collect();
        fetches.sort_unstable();
        k.push(fetches.len() as u32);
        k.extend(fetches.into_iter().flatten());
        k.extend(self.local.iter().map(|(n, _)| *n as u32));
        k.extend_from_slice(self.combined.lanes());
        k.extend([self.noted as u32, self.posted as u32, self.to_release]);
        let m = &self.m;
        for col in [&self.got, &m.arrived, &m.sent, &m.asked] {
            k.extend_from_slice(col);
        }
        k
    }
}

/// Explores every state the model reaches, checking each step and each
/// quiescent state. Returns how many distinct states it reached.
fn explore(scope: Scope, route: NoticeRoute, combiner: Combiner) -> Result<usize, String> {
    let start = Model::new(scope, route, combiner);
    let mut seen: HashSet<Vec<u32>, FixedState> = HashSet::default();
    seen.insert(start.key());
    let (mut stack, mut events) = (vec![start], Vec::new());
    while let Some(state) = stack.pop() {
        state.events(&mut events);
        if events.is_empty() {
            state.check_quiescent()?;
        }
        for &ev in &events {
            let mut next = state.clone();
            next.step(ev).map_err(|e| format!("{ev:?}: {e}"))?;
            if seen.insert(next.key()) {
                stack.push(next);
            }
        }
    }
    Ok(seen.len())
}

/// The routes and barriers the columns run: Base piggybacks through the
/// manager; DW to DW+RF+DD push through it; GeNIMA pushes, alone or
/// replicated, or pulls, through the tree; pull through the manager is
/// the `pull_notices` ablation on a DW rung.
const RIGS: [(NoticeRoute, Combiner); 6] = [
    (NoticeRoute::Piggyback, Combiner::Manager),
    (PUSH, Combiner::Manager),
    (PUSH, Combiner::Tree),
    (NoticeRoute::Push { replicate: true }, Combiner::Tree),
    (NoticeRoute::Pull, Combiner::Manager),
    (NoticeRoute::Pull, Combiner::Tree),
];

/// Explores `scope` on every rig and returns the states reached per rig.
fn explore_rigs(scope: Scope) -> Vec<usize> {
    let mut counts = Vec::new();
    for (route, combiner) in RIGS {
        let started = std::time::Instant::now();
        let states = explore(scope, route, combiner)
            .unwrap_or_else(|e| panic!("{route:?} through the {combiner:?} over {scope:?}: {e}"));
        eprintln!(
            "{route:?}, {combiner:?}: {states} states in {:?}",
            started.elapsed()
        );
        counts.push(states);
    }
    counts
}

/// Two nodes of two processes. Processes 0 and 1 on node 0 take locks
/// 0 and 1, and process 2 on node 1 takes both, so grants and barrier
/// messages share channels both ways, and node 0 can wait for two of
/// process 2's records at once, at an acquire or the barrier's exit.
const TWO_BY_TWO: Scope = Scope {
    nodes: 2,
    per_node: 2,
    programs: &[&[0], &[1], &[0, 1], &[]],
};

/// Three nodes of one process, all taking lock 0, so records reach a
/// node by way of a third.
const THREE_NODES: Scope = Scope {
    nodes: 3,
    per_node: 1,
    programs: &[&[0], &[0], &[0]],
};

/// Every interleaving of both small scopes on every route keeps the
/// notice rules.
#[test]
fn every_interleaving_keeps_the_notice_rules_at_small_scope() {
    let two_by_two = explore_rigs(TWO_BY_TWO);
    let three_nodes = explore_rigs(THREE_NODES);
    assert_eq!(two_by_two, [6_343, 7_000, 6_028, 6_028, 1_498, 734]);
    assert_eq!(three_nodes, [580, 8_469, 14_319, 14_319, 968, 984]);
}

/// One scope up: one more lock taken in each scope (in the second, a
/// second lock).
#[test]
#[ignore = "one scope up: CI runs it in release"]
fn every_interleaving_keeps_the_notice_rules_one_scope_up() {
    let two_by_two = explore_rigs(Scope {
        programs: &[&[0], &[1], &[0, 1], &[1]],
        ..TWO_BY_TWO
    });
    let three_nodes = explore_rigs(Scope {
        programs: &[&[0], &[0], &[0, 1]],
        ..THREE_NODES
    });
    assert_eq!(two_by_two, [15_730, 20_661, 18_958, 18_958, 4_378, 2_267]);
    assert_eq!(three_nodes, [1_718, 21_403, 33_096, 33_096, 1_316, 1_221]);
}
