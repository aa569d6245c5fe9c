//! The op-stream executor: per-process cursors, lock holders, barrier
//! arrivals and happens-before clocks over pre-materialised [`Op`]
//! streams. A driver picks which process [`Executor::step`]s next; what
//! an access does is its [`Hooks`]'. [`detect_races`](crate::detect_races)
//! steps round-robin with the race detector; [`sc_outcomes`] steps
//! depth-first over every choice, with the detector and a byte memory.
//!
//! The clocks are FastTrack's:
//!
//! * each process `p` carries a clock `C_p` (initially `C_p[p] = 1`);
//! * `Release(l)` stores `C_p` into the lock clock `L_l` and then
//!   bumps `C_p[p]`;
//! * `Acquire(l)` joins `L_l` into `C_p`;
//! * a barrier joins the clocks of every arriving process and bumps
//!   each process's own slot.

use std::collections::{BTreeSet, HashMap};

use genima_proto::{BarrierId, LockId, Op, ProcId, VClock};

use crate::race::{Detector, Race};

/// The op streams have no well-defined set of outcomes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScheduleError {
    /// No process can make progress (lock cycle or barrier mismatch).
    Deadlock {
        /// The blocked processes and what each waits on.
        blocked: Vec<(usize, String)>,
    },
    /// A process released a lock it does not hold.
    ReleaseWithoutHold {
        /// The offending process.
        proc: usize,
        /// Index of the release in its stream.
        op_index: usize,
        /// The lock concerned.
        lock: LockId,
    },
    /// Two accesses race under some synchronisation order. Only
    /// [`sc_outcomes`] refuses a racy program: release consistency
    /// promises sequentially consistent results to race-free ones only.
    Racy(Race),
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::Deadlock { blocked } => {
                write!(f, "op streams deadlock; blocked: {blocked:?}")
            }
            ScheduleError::ReleaseWithoutHold {
                proc,
                op_index,
                lock,
            } => write!(f, "p{proc} op #{op_index} releases {lock} it does not hold"),
            ScheduleError::Racy(race) => write!(f, "op streams race: {race:?}"),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// What an access means to one driver.
pub(crate) trait Hooks {
    /// Process `p`, whose happens-before clock is `clock`, runs `op`,
    /// the `op_index`th of its stream: any op but a lock or barrier
    /// operation.
    fn access(&mut self, p: usize, op_index: usize, op: &Op, clock: &VClock);
}

/// One execution state of a set of op streams.
#[derive(Clone)]
pub(crate) struct Executor<'a, H> {
    programs: &'a [Vec<Op>],
    cursor: Vec<usize>,
    holders: HashMap<LockId, usize>,
    arrived: HashMap<BarrierId, Vec<usize>>,
    clocks: Vec<VClock>,
    /// Each lock's clock at its last release.
    released: HashMap<LockId, VClock>,
    pub(crate) hooks: H,
}

impl<'a, H: Hooks> Executor<'a, H> {
    pub(crate) fn new(programs: &'a [Vec<Op>], hooks: H) -> Self {
        let n = programs.len();
        let clocks = (0..n).map(|p| {
            let mut c = VClock::new(n);
            // Epochs start at 1 so two never-synchronised accesses
            // are unordered (a slot of 0 would order everything).
            c.set(ProcId::new(p), 1);
            c
        });
        Executor {
            programs,
            cursor: vec![0; n],
            holders: HashMap::new(),
            arrived: HashMap::new(),
            clocks: clocks.collect(),
            released: HashMap::new(),
            hooks,
        }
    }

    /// `true` once every stream has run to its end.
    pub(crate) fn finished(&self) -> bool {
        (self.programs.iter().zip(&self.cursor)).all(|(prog, &c)| c >= prog.len())
    }

    /// Runs process `p`: the lock or barrier operation at its cursor,
    /// if it can, and then every op up to its next one. Returns `false`
    /// when `p` could not move (finished, waiting for a held lock, or
    /// arrived at a barrier others have not reached). Arriving at a
    /// barrier is a move; its last arrival releases every member.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::ReleaseWithoutHold`] for a release of a lock
    /// `p` does not hold.
    pub(crate) fn step(&mut self, p: usize) -> Result<bool, ScheduleError> {
        let start = self.cursor[p];
        while let Some(op) = self.programs[p].get(self.cursor[p]) {
            let i = self.cursor[p];
            match op {
                Op::Acquire(_) | Op::Barrier(_) if i > start => break,
                Op::Acquire(l) => match self.holders.get(l) {
                    Some(&h) if h != p => return Ok(false),
                    Some(_) => {} // re-entrant hold
                    None => {
                        self.holders.insert(*l, p);
                        if let Some(lc) = self.released.get(l) {
                            self.clocks[p].join(lc);
                        }
                    }
                },
                Op::Release(l) => {
                    if self.holders.get(l) != Some(&p) {
                        let (proc, op_index, lock) = (p, i, *l);
                        return Err(ScheduleError::ReleaseWithoutHold {
                            proc,
                            op_index,
                            lock,
                        });
                    }
                    self.holders.remove(l);
                    self.released.insert(*l, self.clocks[p].clone());
                    self.clocks[p].bump(ProcId::new(p));
                }
                Op::Barrier(b) => {
                    let arrived = self.arrived.entry(*b).or_default();
                    if arrived.contains(&p) {
                        return Ok(false);
                    }
                    arrived.push(p);
                    if arrived.len() < self.programs.len() {
                        return Ok(true);
                    }
                    let members = std::mem::take(arrived);
                    let mut joined = VClock::new(self.clocks.len());
                    for &q in &members {
                        joined.join(&self.clocks[q]);
                    }
                    for &q in &members {
                        self.clocks[q] = joined.clone();
                        self.clocks[q].bump(ProcId::new(q));
                    }
                    for &q in members.iter().filter(|&&q| q != p) {
                        self.cursor[q] += 1;
                    }
                }
                Op::Compute(_)
                | Op::WaitUntil(_)
                | Op::ServeEnd { .. }
                | Op::Read { .. }
                | Op::Write { .. }
                | Op::WriteData { .. }
                | Op::Validate { .. }
                | Op::Observe { .. } => self.hooks.access(p, i, op, &self.clocks[p]),
            }
            self.cursor[p] += 1;
        }
        Ok(self.cursor[p] > start)
    }

    /// The error for a state in which no unfinished process can move:
    /// each such process with the lock or barrier it waits on.
    pub(crate) fn deadlock(&self) -> ScheduleError {
        let blocked = (0..self.programs.len())
            .filter_map(|p| {
                // Only a lock or a barrier stops a process that can run.
                let what = match self.programs[p].get(self.cursor[p])? {
                    Op::Acquire(l) => format!("{l}"),
                    Op::Barrier(b) => format!("barrier{}", b.index()),
                    op => format!("{op:?}"),
                };
                Some((p, what))
            })
            .collect();
        ScheduleError::Deadlock { blocked }
    }
}

/// The race detector, a flat byte memory (zero where never written)
/// and each process's [`Op::Observe`] log.
#[derive(Clone)]
struct Memory {
    races: Detector,
    bytes: HashMap<u64, u8>,
    observed: Vec<Vec<u64>>,
}

impl Hooks for Memory {
    fn access(&mut self, p: usize, op_index: usize, op: &Op, clock: &VClock) {
        self.races.access(p, op_index, op, clock);
        match op {
            Op::WriteData { addr, data } => {
                for (a, &b) in (addr.value()..).zip(data) {
                    self.bytes.insert(a, b);
                }
            }
            // Little-endian, as the simulator records an observation.
            Op::Observe { addr, len } => {
                let mut buf = [0u8; 8];
                for (a, b) in (addr.value()..).zip(buf.iter_mut().take(*len as usize)) {
                    *b = self.bytes.get(&a).copied().unwrap_or(0);
                }
                self.observed[p].push(u64::from_le_bytes(buf));
            }
            // Synthetic writes carry no bytes.
            Op::Compute(_)
            | Op::WaitUntil(_)
            | Op::ServeEnd { .. }
            | Op::Read { .. }
            | Op::Write { .. }
            | Op::Validate { .. }
            | Op::Acquire(_)
            | Op::Release(_)
            | Op::Barrier(_) => {}
        }
    }
}

/// Every sequentially consistent outcome of the op streams: the
/// per-process [`Op::Observe`] vectors of each order of their lock
/// acquisitions and barrier crossings. Release consistency gives a
/// data-race-free program exactly these (DRF-SC).
///
/// # Errors
///
/// [`ScheduleError::Racy`] if the streams race under some order, so
/// that DRF-SC does not apply; [`ScheduleError::Deadlock`] if some
/// order cannot finish; [`ScheduleError::ReleaseWithoutHold`].
pub fn sc_outcomes(programs: &[Vec<Op>]) -> Result<BTreeSet<Vec<Vec<u64>>>, ScheduleError> {
    let n = programs.len();
    let memory = Memory {
        races: Detector::default(),
        bytes: HashMap::new(),
        observed: vec![Vec::new(); n],
    };
    let mut outcomes = BTreeSet::new();
    let mut stack = vec![Executor::new(programs, memory)];
    while let Some(state) = stack.pop() {
        if let Some(race) = state.hooks.races.races.first() {
            return Err(ScheduleError::Racy(*race));
        }
        if state.finished() {
            outcomes.insert(state.hooks.observed);
            continue;
        }
        let before = stack.len();
        for p in 0..n {
            let mut next = state.clone();
            if next.step(p)? {
                stack.push(next);
            }
        }
        if stack.len() == before {
            return Err(state.deadlock());
        }
    }
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use genima_proto::Addr;

    fn store(addr: u64, val: u8) -> Op {
        Op::WriteData {
            addr: Addr::new(addr),
            data: vec![val],
        }
    }

    fn load(addr: u64) -> Op {
        Op::Observe {
            addr: Addr::new(addr),
            len: 1,
        }
    }

    fn locked(ops: Vec<Op>) -> Vec<Op> {
        let l = LockId::new(0);
        [vec![Op::Acquire(l)], ops, vec![Op::Release(l)]].concat()
    }

    #[test]
    fn a_racy_program_is_refused() {
        // Racy only in one order: p1's unlocked read is ordered after
        // p0's write when p0 holds the lock first, and races otherwise.
        let p0 = vec![
            store(0, 1),
            Op::Acquire(LockId::new(0)),
            Op::Release(LockId::new(0)),
        ];
        let p1 = [locked(vec![]), vec![load(0)]].concat();
        assert!(crate::detect_races(&[p0.clone(), p1.clone()])
            .unwrap()
            .is_empty());
        let err = sc_outcomes(&[p0, p1]).unwrap_err();
        assert!(matches!(err, ScheduleError::Racy(_)), "{err}");
    }

    #[test]
    fn a_barrier_one_process_never_reaches_is_an_error() {
        let b = Op::Barrier(BarrierId::new(0));
        let err = sc_outcomes(&[vec![b.clone(), load(0)], vec![load(0)]]).unwrap_err();
        let blocked = vec![(0, "barrier0".to_string())];
        assert_eq!(err, ScheduleError::Deadlock { blocked });
    }

    #[test]
    fn a_lock_cycle_in_some_order_is_an_error() {
        // Round-robin order finishes; the order in which each process
        // holds its first lock does not.
        let (a, b) = (LockId::new(0), LockId::new(1));
        let p0 = vec![
            Op::Acquire(a),
            Op::Acquire(b),
            Op::Release(b),
            Op::Release(a),
        ];
        let p1 = vec![
            Op::Acquire(b),
            Op::Acquire(a),
            Op::Release(a),
            Op::Release(b),
        ];
        let programs = [p0, p1];
        assert!(crate::detect_races(&programs).unwrap().is_empty());
        let err = sc_outcomes(&programs).unwrap_err();
        assert!(matches!(err, ScheduleError::Deadlock { .. }), "{err}");
    }

    #[test]
    fn observations_read_little_endian_bytes() {
        let write = Op::WriteData {
            addr: Addr::new(8),
            data: vec![1, 2],
        };
        let read = Op::Observe {
            addr: Addr::new(7),
            len: 4,
        };
        let got = sc_outcomes(&[vec![write, read]]).unwrap();
        assert_eq!(got, BTreeSet::from([vec![vec![0x0002_0100]]]));
    }

    #[test]
    fn each_lock_order_gives_its_outcome() {
        // Each process stores its id + 1 and reads the other's slot.
        let p0 = locked(vec![store(0, 1), load(1)]);
        let p1 = locked(vec![store(1, 2), load(0)]);
        let got = sc_outcomes(&[p0, p1]).unwrap();
        let want = BTreeSet::from([vec![vec![0], vec![1]], vec![vec![2], vec![0]]]);
        assert_eq!(got, want);
    }
}
