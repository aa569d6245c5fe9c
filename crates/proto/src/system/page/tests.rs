//! The page machine, clock-free: one test per transition, then a
//! one-page model driven through the same transitions and enumerated
//! exhaustively at small scope on every rung.

use std::collections::HashSet;

use genima_sim::FixedState;

use genima_mem::{Access, PageId};

use super::*;
use crate::features::FeatureSet;
use crate::version::{VersionCol, VersionMap};

const PAGE: PageId = PageId::new(0);

fn version(pairs: &[(u32, u32)]) -> VersionMap {
    let mut v = VersionMap::new();
    for &(w, i) in pairs {
        v.raise(w, i);
    }
    v
}

#[test]
fn a_need_is_met_by_covering_each_operand_and_built_first_operand_first() {
    let (required, flushed) = (version(&[(1, 2), (3, 1)]), version(&[(2, 4)]));
    let need = || reader_need(required.pairs(), flushed.pairs());
    assert!(need().met_by(&version(&[(1, 2), (2, 4), (3, 1)])));
    assert!(
        !need().met_by(&version(&[(1, 2), (3, 1)])),
        "misses the flush"
    );
    assert!(!need().met_by(&version(&[(1, 1), (2, 4), (3, 1)])));
    let mut built = version(&[(0, 9), (1, 9), (2, 9), (3, 9), (4, 9)]);
    need().build_into(&mut built);
    assert_eq!(
        built.pairs(),
        [(1, 2), (2, 4), (3, 1)],
        "replaced, not joined"
    );
    // A fetch's need is its node's flushes and every waiter's.
    let other = version(&[(1, 5)]);
    let waiters = [required.pairs(), other.pairs()];
    let mut built = VersionMap::new();
    fetch_need(flushed.pairs(), waiters.into_iter()).build_into(&mut built);
    assert_eq!(built.pairs(), [(1, 5), (2, 4), (3, 1)]);
    assert!(fetch_need(&[], std::iter::empty()).met_by(&VersionMap::new()));
}

#[test]
fn a_fault_hits_a_covering_copy_else_waits_at_the_home_joins_or_fetches() {
    let required = version(&[(1, 2)]);
    let need = || reader_need(required.pairs(), &[]);
    let (old, new) = (version(&[(1, 1)]), version(&[(1, 2), (2, 1)]));
    assert_eq!(fault(Some(&new), need(), false, true), Fault::Hit);
    assert_eq!(fault(Some(&new), need(), true, false), Fault::Hit);
    assert_eq!(fault(Some(&old), need(), true, false), Fault::AwaitHome);
    assert_eq!(fault(Some(&old), need(), false, true), Fault::Join);
    assert_eq!(fault(Some(&old), need(), false, false), Fault::Fetch);
    assert_eq!(fault(None, need(), false, false), Fault::Fetch);
    let nothing = || reader_need(&[], &[]);
    assert_eq!(
        fault(None, nothing(), false, false),
        Fault::Fetch,
        "no copy"
    );
}

#[test]
fn a_fetched_copy_is_installed_only_if_it_covers_the_need_on_arrival() {
    let (required, mut flushed) = (version(&[(1, 2)]), VersionMap::new());
    let reply = version(&[(1, 2)]);
    let need = |flushed: &VersionMap| {
        let required = std::iter::once(required.pairs());
        fetched(&reply, fetch_need(flushed.pairs(), required))
    };
    assert_eq!(need(&flushed), Fetched::Install);
    // A co-located writer flushed while the reply was in flight.
    flushed.raise(3, 1);
    assert_eq!(need(&flushed), Fetched::Stale);
}

#[test]
fn a_request_is_served_once_the_home_covers_it() {
    let required = version(&[(1, 2), (2, 1)]);
    assert_eq!(request(&version(&[(1, 2)]), &required), Request::Defer);
    assert_eq!(
        request(&version(&[(1, 3), (2, 1)]), &required),
        Request::Serve
    );
    assert_eq!(
        request(&VersionMap::new(), &VersionMap::new()),
        Request::Serve
    );
}

#[test]
fn a_notice_raises_the_requirement_and_a_twinned_write_conflicts() {
    let mut required = VersionCol::default();
    notice(&mut required, PAGE, 2, 3);
    notice(&mut required, PAGE, 2, 1);
    notice(&mut required, PAGE, 0, 1);
    assert_eq!(
        required.pairs(PAGE),
        [(0, 1), (2, 3)],
        "raised, never lowered"
    );
    assert_eq!(noticed(Access::None, false), Noticed::Keep);
    assert_eq!(noticed(Access::Read, false), Noticed::Invalidate);
    assert_eq!(
        noticed(Access::ReadWrite, false),
        Noticed::Invalidate,
        "in place"
    );
    assert_eq!(noticed(Access::ReadWrite, true), Noticed::Conflict);
}

#[test]
fn a_flush_raises_the_nodes_watermark() {
    let mut local = VersionCol::default();
    flushed(&mut local, PAGE, 1, 2);
    flushed(&mut local, PAGE, 1, 1);
    assert_eq!(local.pairs(PAGE), [(1, 2)]);
}

#[test]
fn a_diff_older_than_the_home_is_dropped_and_a_repeat_applied() {
    let home = version(&[(1, 2)]);
    assert_eq!(diff(&home, 1, 1), Diff::Drop);
    assert_eq!(diff(&home, 1, 2), Diff::Apply, "a repeat");
    assert_eq!(diff(&home, 1, 3), Diff::Apply);
    assert_eq!(diff(&home, 2, 1), Diff::Apply, "another writer");
}

#[test]
fn a_raised_home_wakes_the_waiters_then_serves_the_requests_it_covers_in_order() {
    let mut home = version(&[(1, 1)]);
    let required = [version(&[(1, 2)]), version(&[(2, 1)]), version(&[(1, 2)])];
    let mut waiters = vec![2, 1, 0];
    let mut deferred: Vec<Deferred> = vec![
        (7, version(&[(1, 2)]), 70),
        (8, version(&[(1, 3)]), 80),
        (9, version(&[(1, 1)]), 90),
    ];
    let (mut woken, mut served, mut spares) = (vec![5], Vec::new(), Vec::new());
    let home_page = Home {
        version: &mut home,
        waiters: &mut waiters,
        deferred: Some(&mut deferred),
    };
    let need = |p: usize| required[p].pairs();
    raise_home(home_page, 1, 2, need, &mut woken, &mut served, &mut spares);
    assert_eq!(home.pairs(), [(1, 2)]);
    assert_eq!(woken, [2, 0], "emptied first, then in arrival order");
    assert_eq!(waiters, [1]);
    assert_eq!(served, [(7, 70), (9, 90)]);
    assert_eq!(deferred.len(), 1);
    assert_eq!(deferred[0].0, 8);
    assert_eq!(spares, [version(&[(1, 2)]), version(&[(1, 1)])]);
    // Where remote fetch replaces the request, nothing is deferred.
    let home_page = Home {
        version: &mut home,
        waiters: &mut waiters,
        deferred: None,
    };
    raise_home(home_page, 2, 1, need, &mut woken, &mut served, &mut spares);
    assert_eq!((woken.as_slice(), waiters.len()), ([1].as_slice(), 0));
}

// ---------------------------------------------------------------------
// The model.
//
// One page, homed at node 0. Writers close intervals and flush their
// diffs, oldest first; a diff in flight reaches the home in any order,
// and one flushed at the home applies there at once. Readers apply the
// write notices of writers on other nodes, in order per writer and
// while not blocked, and fault whenever their page is unmapped. A
// fetch is a Base request, served or deferred at the home, and its
// reply, or a remote fetch of the home copy that completes or retries.
// Every decision is the machine's; the model keeps the state, as
// `SvmSystem` does, and checks it.

/// Most writers, readers and nodes a scope may name.
const MAX: usize = 3;

/// Who runs where. Node 0 is the page's home.
#[derive(Clone, Copy, Debug)]
struct Scope {
    /// The node of each writer.
    writers: &'static [usize],
    /// Intervals each writer closes (at most 4).
    intervals: u32,
    /// The node of each reader.
    readers: &'static [usize],
}

/// The two rung predicates the page rules read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Rung {
    remote_fetch: bool,
    in_place: bool,
}

impl Rung {
    fn of(f: FeatureSet) -> Rung {
        Rung {
            remote_fetch: f.remote_fetch(),
            in_place: f.home_writes_in_place(),
        }
    }
}

/// A node's fetch of the page.
#[derive(Clone, Debug)]
enum Fetch {
    Idle,
    /// Base: a request for a version on its way to the home.
    Request(VersionMap),
    /// Base: the request waits at the home, in `deferred`.
    Deferred,
    /// Base: a reply carrying the home's version when it was served.
    Reply(VersionMap),
    /// A remote fetch of the home copy.
    Remote,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Reader {
    Unmapped,
    Mapped,
    Blocked,
}

#[derive(Clone, Copy, Debug)]
enum Event {
    Close(usize),
    Flush(usize),
    Deliver(usize, u32),
    Notice(usize, usize),
    Fault(usize),
    Serve(usize),
    Reply(usize),
    Remote(usize),
}

#[derive(Clone)]
struct Model {
    scope: Scope,
    rung: Rung,
    /// Per writer: intervals closed, and flushed.
    closed: [u32; MAX],
    flushed: [u32; MAX],
    /// Per writer: bit `i - 1` set while interval `i`'s diff is in
    /// flight.
    in_flight: [u32; MAX],
    /// The home copy's version, and its contents: per writer, the
    /// interval whose diff it applied last (or that closed in place).
    home: VersionMap,
    contents: [u32; MAX],
    waiters: Vec<usize>,
    deferred: Vec<Deferred>,
    /// Per node: its cached copy's version, its writers' flushes, its
    /// fetch, and the readers waiting on that (a bit each).
    copy: [Option<VersionMap>; MAX],
    local: [VersionMap; MAX],
    fetch: [Fetch; MAX],
    joined: [u8; MAX],
    /// Per reader: its page's state, the notices it applied per writer,
    /// and what they require.
    reader: [Reader; MAX],
    seen: [[u32; MAX]; MAX],
    required: [VersionMap; MAX],
}

type Check = Result<(), String>;

/// Runs a transition that raises a version column on `v`, one page's
/// slice of it.
fn on_column(v: &mut VersionMap, raise: impl FnOnce(&mut VersionCol)) {
    let mut col = VersionCol::default();
    for &(w, i) in v.pairs() {
        col.raise(PAGE, w, i);
    }
    raise(&mut col);
    v.set(col.pairs(PAGE));
}

impl Model {
    fn new(scope: Scope, rung: Rung) -> Model {
        assert!(scope.writers.len() <= MAX && scope.readers.len() <= MAX);
        assert!(scope.intervals <= 4);
        Model {
            scope,
            rung,
            closed: [0; MAX],
            flushed: [0; MAX],
            in_flight: [0; MAX],
            home: VersionMap::new(),
            contents: [0; MAX],
            waiters: Vec::new(),
            deferred: Vec::new(),
            copy: Default::default(),
            local: Default::default(),
            fetch: [Fetch::Idle, Fetch::Idle, Fetch::Idle],
            joined: [0; MAX],
            reader: [Reader::Unmapped; MAX],
            seen: [[0; MAX]; MAX],
            required: Default::default(),
        }
    }

    fn in_place(&self, w: usize) -> bool {
        self.rung.in_place && self.scope.writers[w] == 0
    }

    /// Everything that can happen next.
    fn events(&self, out: &mut Vec<Event>) {
        out.clear();
        for w in 0..self.scope.writers.len() {
            if self.closed[w] < self.scope.intervals {
                out.push(Event::Close(w));
            }
            if self.flushed[w] < self.closed[w] && !self.in_place(w) {
                out.push(Event::Flush(w));
            }
            let mut bits = self.in_flight[w];
            while bits != 0 {
                out.push(Event::Deliver(w, 1 + bits.trailing_zeros()));
                bits &= bits - 1;
            }
        }
        for (r, &node) in self.scope.readers.iter().enumerate() {
            if self.reader[r] == Reader::Blocked {
                continue;
            }
            for (w, &wnode) in self.scope.writers.iter().enumerate() {
                if wnode != node && self.seen[r][w] < self.closed[w] {
                    out.push(Event::Notice(r, w));
                }
            }
            if self.reader[r] == Reader::Unmapped {
                out.push(Event::Fault(r));
            }
        }
        for (n, fetch) in self.fetch.iter().enumerate() {
            match fetch {
                Fetch::Idle | Fetch::Deferred => {}
                Fetch::Request(_) => out.push(Event::Serve(n)),
                Fetch::Reply(_) => out.push(Event::Reply(n)),
                Fetch::Remote => out.push(Event::Remote(n)),
            }
        }
    }

    fn step(&mut self, ev: Event) -> Check {
        let before = self.home.clone();
        match ev {
            Event::Close(w) => {
                self.closed[w] += 1;
                if self.in_place(w) {
                    self.contents[w] = self.closed[w];
                    self.raise(w, self.closed[w])?;
                }
            }
            Event::Flush(w) => {
                self.flushed[w] += 1;
                let (i, node) = (self.flushed[w], self.scope.writers[w]);
                on_column(&mut self.local[node], |c| flushed(c, PAGE, w as u32, i));
                if node == 0 {
                    self.deliver(w, i)?;
                } else {
                    self.in_flight[w] |= 1 << (i - 1);
                }
            }
            Event::Deliver(w, i) => {
                self.in_flight[w] &= !(1 << (i - 1));
                self.deliver(w, i)?;
            }
            Event::Notice(r, w) => {
                self.seen[r][w] += 1;
                let i = self.seen[r][w];
                on_column(&mut self.required[r], |c| notice(c, PAGE, w as u32, i));
                let access = match self.reader[r] {
                    Reader::Mapped => Access::Read,
                    Reader::Unmapped | Reader::Blocked => Access::None,
                };
                match noticed(access, false) {
                    Noticed::Keep => {}
                    Noticed::Invalidate => self.reader[r] = Reader::Unmapped,
                    Noticed::Conflict => return Err("a reader in conflict".into()),
                }
            }
            Event::Fault(r) => self.fault(r)?,
            Event::Serve(n) => {
                let Fetch::Request(need) = std::mem::replace(&mut self.fetch[n], Fetch::Idle)
                else {
                    unreachable!("a serve without a request")
                };
                self.fetch[n] = match request(&self.home, &need) {
                    Request::Serve if !self.home.covers(need.pairs()) => {
                        return Err(format!("served {need:?} from {:?}", self.home));
                    }
                    Request::Serve => Fetch::Reply(self.home.clone()),
                    Request::Defer => {
                        self.deferred.push((n, need, 0));
                        Fetch::Deferred
                    }
                };
            }
            Event::Reply(n) => {
                let Fetch::Reply(ts) = std::mem::replace(&mut self.fetch[n], Fetch::Idle) else {
                    unreachable!("a reply without a fetch")
                };
                match fetched(&ts, self.fetch_need(n)) {
                    Fetched::Install => self.install(n, ts)?,
                    Fetched::Stale => {
                        let mut need = ts;
                        self.fetch_need(n).build_into(&mut need);
                        self.fetch[n] = Fetch::Request(need);
                    }
                }
            }
            Event::Remote(n) => match fetched(&self.home, self.fetch_need(n)) {
                Fetched::Install => {
                    self.fetch[n] = Fetch::Idle;
                    self.install(n, self.home.clone())?;
                }
                Fetched::Stale => {}
            },
        }
        if !self.home.covers(before.pairs()) {
            return Err(format!("home went back from {before:?} to {:?}", self.home));
        }
        self.check()
    }

    fn joined(&self, n: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.scope.readers.len()).filter(move |r| self.joined[n] & (1 << r) != 0)
    }

    fn fetch_need(&self, n: usize) -> Need<impl Iterator<Item = &[(u32, u32)]>> {
        let required = self.joined(n).map(|r| self.required[r].pairs());
        fetch_need(self.local[n].pairs(), required)
    }

    fn fault(&mut self, r: usize) -> Check {
        let n = self.scope.readers[r];
        let copy = if n == 0 {
            Some(&self.home)
        } else {
            self.copy[n].as_ref()
        };
        let need = reader_need(self.required[r].pairs(), self.local[n].pairs());
        let fetching = !matches!(self.fetch[n], Fetch::Idle);
        match fault(copy, need, n == 0, fetching) {
            Fault::Hit => {
                let copy = copy.cloned().unwrap_or_default();
                return self.complete(r, &copy);
            }
            Fault::AwaitHome => self.waiters.push(r),
            Fault::Join => self.joined[n] |= 1 << r,
            Fault::Fetch => {
                self.joined[n] = 1 << r;
                self.fetch[n] = if self.rung.remote_fetch {
                    Fetch::Remote
                } else {
                    let mut need = VersionMap::new();
                    let (required, local) = (self.required[r].pairs(), self.local[n].pairs());
                    reader_need(required, local).build_into(&mut need);
                    Fetch::Request(need)
                };
            }
        }
        self.reader[r] = Reader::Blocked;
        Ok(())
    }

    /// Reader `r`'s fault completes on a copy at `copy`, which must
    /// cover what its notices require and what its node flushed.
    fn complete(&mut self, r: usize, copy: &VersionMap) -> Check {
        let n = self.scope.readers[r];
        let (required, local) = (self.required[r].pairs(), self.local[n].pairs());
        if !copy.covers(required) || !copy.covers(local) {
            return Err(format!(
                "reader {r} mapped {copy:?} needing {required:?} and its node's {local:?}"
            ));
        }
        self.reader[r] = Reader::Mapped;
        Ok(())
    }

    /// Node `n` installs a copy at `ts`, which must not roll its own
    /// flushes back, and wakes its fetch's waiters.
    fn install(&mut self, n: usize, ts: VersionMap) -> Check {
        if !ts.covers(self.local[n].pairs()) {
            return Err(format!(
                "node {n} installed {ts:?}, rolling back its flushes {:?}",
                self.local[n]
            ));
        }
        for r in 0..self.scope.readers.len() {
            if self.joined[n] & (1 << r) != 0 {
                self.complete(r, &ts)?;
            }
        }
        self.joined[n] = 0;
        self.copy[n] = Some(ts);
        Ok(())
    }

    fn deliver(&mut self, w: usize, i: u32) -> Check {
        match diff(&self.home, w as u32, i) {
            Diff::Drop => Ok(()),
            Diff::Apply => {
                self.contents[w] = i;
                self.raise(w, i)
            }
        }
    }

    /// The home copy holds `w`'s interval `i`: raise it, then wake the
    /// waiters and reply to the requests it satisfies.
    fn raise(&mut self, w: usize, i: u32) -> Check {
        let (mut woken, mut served, mut spares) = (Vec::new(), Vec::new(), Vec::new());
        let home = Home {
            version: &mut self.home,
            waiters: &mut self.waiters,
            deferred: (!self.rung.remote_fetch).then_some(&mut self.deferred),
        };
        let required = &self.required;
        let need = |r: usize| required[r].pairs();
        raise_home(
            home,
            w as u32,
            i,
            need,
            &mut woken,
            &mut served,
            &mut spares,
        );
        if let Some(need) = spares.iter().find(|v| !self.home.covers(v.pairs())) {
            return Err(format!("served {need:?} from {:?}", self.home));
        }
        let home = self.home.clone();
        for r in woken {
            self.complete(r, &home)?;
        }
        for (n, _) in served {
            assert!(matches!(self.fetch[n], Fetch::Deferred));
            self.fetch[n] = Fetch::Reply(home.clone());
        }
        Ok(())
    }

    /// What holds after every step: the home's version is its contents,
    /// and nothing it covers still waits there.
    fn check(&self) -> Check {
        for (w, &applied) in self.contents.iter().enumerate() {
            if self.home.get(w as u32) != applied {
                return Err(format!(
                    "home at {:?} holds writer {w}'s interval {applied}",
                    self.home
                ));
            }
        }
        if let Some(d) = self.deferred.iter().find(|d| self.home.covers(d.1.pairs())) {
            return Err(format!("home at {:?} still defers {:?}", self.home, d.1));
        }
        let covered = |&&r: &&usize| self.home.covers(self.required[r].pairs());
        if let Some(r) = self.waiters.iter().find(covered) {
            return Err(format!("home at {:?} still holds reader {r}", self.home));
        }
        Ok(())
    }

    /// What holds once nothing can happen: every interval's diff is in
    /// the home copy, and every reader has its page.
    fn check_quiescent(&self) -> Check {
        let intervals = self.scope.intervals;
        let writers = 0..self.scope.writers.len();
        if let Some(w) = writers.clone().find(|&w| self.contents[w] != intervals) {
            return Err(format!(
                "quiescent with writer {w}'s interval {} at the home, of {intervals}",
                self.contents[w]
            ));
        }
        let readers = &self.reader[..self.scope.readers.len()];
        if let Some(r) = readers.iter().position(|&r| r != Reader::Mapped) {
            return Err(format!("quiescent with reader {r} blocked"));
        }
        Ok(())
    }

    /// The state, packed: everything but `local` and `required`, which
    /// the flushes and the notices applied determine.
    fn key(&self) -> Key {
        let mut k = Packer::default();
        let writers = self.scope.writers.len() as u32;
        let version = |k: &mut Packer, v: &VersionMap| {
            for w in 0..writers {
                k.push(v.get(w).into(), 3);
            }
        };
        for w in 0..writers as usize {
            k.push(self.closed[w].into(), 3);
            k.push(self.flushed[w].into(), 3);
            k.push(self.in_flight[w].into(), 4);
            k.push(self.contents[w].into(), 3);
        }
        version(&mut k, &self.home);
        k.push(self.waiters.len() as u64, 2);
        for &r in &self.waiters {
            k.push(r as u64, 2);
        }
        k.push(self.deferred.len() as u64, 2);
        for (n, need, _) in &self.deferred {
            k.push(*n as u64, 2);
            version(&mut k, need);
        }
        for n in 0..MAX {
            k.push(self.copy[n].is_some().into(), 1);
            version(&mut k, self.copy[n].as_ref().unwrap_or(&VersionMap::new()));
            let (kind, v) = match &self.fetch[n] {
                Fetch::Idle => (0, None),
                Fetch::Request(v) => (1, Some(v)),
                Fetch::Deferred => (2, None),
                Fetch::Reply(v) => (3, Some(v)),
                Fetch::Remote => (4, None),
            };
            k.push(kind, 3);
            version(&mut k, v.unwrap_or(&VersionMap::new()));
            k.push(self.joined[n].into(), 3);
        }
        for r in 0..self.scope.readers.len() {
            k.push(self.reader[r] as u64, 2);
            for w in 0..writers as usize {
                k.push(self.seen[r][w].into(), 3);
            }
        }
        k.key
    }
}

/// A model state packed into bits, 24 bytes a state: a scope of three
/// writers, three readers and three nodes takes at most 188.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
struct Key([u64; 3]);

/// Packs a [`Key`] field by field.
#[derive(Default)]
struct Packer {
    key: Key,
    at: u32,
}

impl Packer {
    fn push(&mut self, value: u64, bits: u32) {
        assert!(value < 1 << bits, "{value} overflows {bits} bits");
        let (word, shift) = ((self.at / 64) as usize, self.at % 64);
        self.key.0[word] |= value << shift;
        if shift + bits > 64 {
            self.key.0[word + 1] |= value >> (64 - shift);
        }
        self.at += bits;
    }
}

/// Explores every state the model reaches on `rung`, checking each
/// step and each quiescent state; a state whose every next step leads
/// back to it is a retry loop nothing can end. Returns how many
/// distinct states it reached.
fn explore(scope: Scope, rung: Rung) -> Result<usize, String> {
    let start = Model::new(scope, rung);
    let mut seen: HashSet<Key, FixedState> = HashSet::default();
    seen.insert(start.key());
    let (mut stack, mut events) = (vec![start], Vec::new());
    while let Some(state) = stack.pop() {
        state.events(&mut events);
        if events.is_empty() {
            state.check_quiescent()?;
        }
        let own = state.key();
        let mut moved = events.is_empty();
        for &ev in &events {
            let mut next = state.clone();
            next.step(ev).map_err(|e| format!("{ev:?}: {e}"))?;
            let key = next.key();
            moved |= key != own;
            if seen.insert(key) {
                stack.push(next);
            }
        }
        if !moved {
            return Err("a retry loop nothing can end".into());
        }
    }
    Ok(seen.len())
}

const RUNGS: [FeatureSet; 6] = [
    FeatureSet::base(),
    FeatureSet::dw(),
    FeatureSet::dw_rf(),
    FeatureSet::dw_rf_dd(),
    FeatureSet::genima(),
    FeatureSet::genima_2025(),
];

/// Explores `scope` on every rung and returns the states reached per
/// rung. Rungs that agree on both predicates the page rules read share
/// one model, explored once.
fn explore_rungs(scope: Scope) -> Vec<usize> {
    let mut done: Vec<(Rung, usize)> = Vec::new();
    let mut counts = Vec::new();
    for f in RUNGS {
        let rung = Rung::of(f);
        let states = match done.iter().find(|(r, _)| *r == rung) {
            Some(&(_, states)) => states,
            None => {
                let started = std::time::Instant::now();
                let states = explore(scope, rung)
                    .unwrap_or_else(|e| panic!("{} over {scope:?}: {e}", f.name()));
                eprintln!("{rung:?}: {states} states in {:?}", started.elapsed());
                done.push((rung, states));
                states
            }
        };
        eprintln!("{:<12} {states:>8} states", f.name());
        counts.push(states);
    }
    counts
}

/// Three writers, one at the home, one beside the reader and one
/// alone on a third node, each closing `intervals` intervals, read on
/// the reader's node.
const THREE_WRITERS: Scope = Scope {
    writers: &[0, 1, 2],
    intervals: 2,
    readers: &[1],
};

/// Two writers, one at the home and one beside two readers, so a
/// fault joins a fetch in flight, and a third reader at the home.
const THREE_READERS: Scope = Scope {
    writers: &[0, 1],
    intervals: 1,
    readers: &[0, 1, 1],
};

/// Every interleaving of both small scopes on every rung keeps the
/// page rules.
#[test]
fn every_interleaving_keeps_the_page_rules_at_small_scope() {
    let three_writers = explore_rungs(THREE_WRITERS);
    let three_readers = explore_rungs(THREE_READERS);
    assert_eq!(
        three_writers,
        [104_479, 104_479, 46_034, 46_034, 46_034, 24_862]
    );
    assert_eq!(three_readers, [3_584, 3_584, 1_616, 1_616, 1_616, 1_074]);
}

/// One scope up: each scope's writers close one interval more.
#[test]
#[ignore = "one scope up: CI runs it in release"]
fn every_interleaving_keeps_the_page_rules_one_scope_up() {
    explore_rungs(Scope {
        intervals: 3,
        ..THREE_WRITERS
    });
    explore_rungs(Scope {
        intervals: 2,
        ..THREE_READERS
    });
}
