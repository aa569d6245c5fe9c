//! Replay-based stateless exploration with dynamic partial-order
//! reduction.
//!
//! The explorer enumerates schedules of one litmus program by repeated
//! deterministic re-execution: a schedule is identified by the sequence
//! of [`ChanKey`] picks handed to
//! [`SvmSystem::try_run_with_picker`](genima_proto::SvmSystem::try_run_with_picker),
//! and re-running the same pick sequence reproduces the same execution
//! bit for bit. A depth-first search over pick prefixes therefore needs
//! no state snapshots.
//!
//! # DPOR
//!
//! Exploring every pick sequence is hopeless — most permute commuting
//! events. The explorer implements Flanagan–Godefroid dynamic
//! partial-order reduction over the channel abstraction:
//!
//! * **Happens-before** is tracked with per-channel vector clocks. Step
//!   `j`'s clock is the join of its *creator* step (the step whose
//!   dispatch pushed event `j` into the queue, recovered from the
//!   queue's sequence watermark) and every earlier dependent step, plus
//!   `j` itself. Same-channel order and creation edges are
//!   program-order; the rest of dependence comes from
//!   [`Choice::dependent`] footprints.
//! * **Races** are pairs of dependent steps neither of which
//!   happens-before the other through intermediate steps. For each race
//!   `(i, j)` the channel of `j` is added to the *backtrack set* of the
//!   state before `i` (or every enabled channel, when `j`'s channel was
//!   not yet enabled there), so some schedule reversing the race is
//!   eventually explored.
//! * **Sleep sets** prune schedules that only reorder already-explored
//!   independent branches: a fully explored channel sleeps until a
//!   dependent event executes, and an execution whose every enabled
//!   choice sleeps is abandoned ([`ExploreReport::sleep_blocked`]).
//!
//! The [`Mode::Naive`] variant disables all three (every enabled
//! channel is a backtrack point) and exists to calibrate the pruning
//! ratio.
//!
//! # Bounds
//!
//! `max_steps` truncates pathological schedules (e.g. unbounded
//! lock-retry loops under adversarial delay). A report with any
//! truncation is not exhaustive ([`ExploreReport::exhaustive`]).

use std::collections::{BTreeMap, BTreeSet};

use genima_check::{audit_traces, sc_outcomes};
use genima_proto::{ChanKey, Choice, Column, EventPicker, Mutation, ProtoError, SvmSystem};

use crate::litmus::Litmus;

/// Exploration strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Dynamic partial-order reduction with sleep sets.
    Dpor,
    /// Every enabled channel is a backtrack point; no sleep sets. Only
    /// useful for measuring how much DPOR prunes.
    Naive,
}

/// Exploration limits and strategy.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Strategy (see [`Mode`]).
    pub mode: Mode,
    /// Abandon any single schedule after this many delivered events.
    pub max_steps: u64,
    /// Stop exploring after this many schedules.
    pub max_schedules: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            mode: Mode::Dpor,
            max_steps: 4000,
            max_schedules: u64::MAX,
        }
    }
}

/// One delivered event of a schedule, as recorded for counterexamples.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Step {
    /// The channel whose head was delivered.
    pub key: ChanKey,
    /// The event's human-readable label.
    pub label: String,
}

/// A schedule on which an oracle fired.
#[derive(Clone, Debug)]
pub struct Violation {
    /// What the oracle saw (audit violation, forbidden outcome,
    /// deadlock, or fatal protocol error).
    pub desc: String,
    /// The minimized forced pick prefix: replaying these picks and
    /// then following FIFO order reproduces the violation.
    pub prefix: Vec<ChanKey>,
    /// Every step of the minimized violating schedule.
    pub steps: Vec<Step>,
}

/// Aggregate exploration results.
#[derive(Clone, Debug, Default)]
pub struct ExploreReport {
    /// Schedules executed (including pruned and truncated ones).
    pub schedules: u64,
    /// Schedules abandoned because every enabled choice slept.
    pub sleep_blocked: u64,
    /// Schedules truncated at `max_steps`.
    pub depth_truncated: u64,
    /// `true` when `max_schedules` stopped the search early.
    pub budget_exhausted: bool,
    /// Total events delivered across all schedules.
    pub steps_total: u64,
    /// Races found, each adding to its earlier state's backtrack set
    /// only the channels that reach the reversal.
    pub races_precise: u64,
    /// Distinct litmus outcomes (per-process observation vectors) seen
    /// on completed schedules.
    pub outcomes: BTreeSet<Vec<Vec<u64>>>,
    /// The first violation found, minimized; `None` if the state space
    /// (as bounded) is clean.
    pub violation: Option<Violation>,
    /// Schedules executed up to and including the violating one.
    pub schedules_to_violation: u64,
}

impl ExploreReport {
    /// `true` when the search covered the full (unbounded) state
    /// space: nothing truncated or cut off by budget.
    pub fn exhaustive(&self) -> bool {
        !self.budget_exhausted && self.depth_truncated == 0
    }
}

/// Per-channel vector clock: channel → number of that channel's
/// executed steps known to happen-before.
type Clock = BTreeMap<ChanKey, u64>;

fn covers(c: &Clock, key: ChanKey, pos: u64) -> bool {
    c.get(&key).copied().unwrap_or(0) >= pos
}

fn join(into: &mut Clock, other: &Clock) {
    for (k, v) in other {
        let e = into.entry(*k).or_insert(0);
        *e = (*e).max(*v);
    }
}

/// Why a [`DrivePicker`] halted a run early.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stop {
    SleepBlocked,
    DepthTruncated,
    /// A forced pick's channel had no pending head — the replay
    /// diverged, which means the simulator is not deterministic. Fatal.
    ReplayDiverged,
}

/// One record per delivered event, kept by the picker for the DFS.
struct StepRec {
    choices: Vec<Choice>,
    chosen: usize,
    /// Queue sequence watermark before this step: events with
    /// `seq >= watermark` were created by this or a later step.
    watermark: u64,
    /// Sleep set entering this step (empty before the branch point).
    sleep: Vec<Choice>,
}

/// The [`EventPicker`] that drives one exploration run: forced picks
/// for the replayed prefix, then first-non-sleeping (or plain FIFO)
/// for the free suffix.
struct DrivePicker {
    forced: Vec<ChanKey>,
    sleep: Vec<Choice>,
    /// Step index from which the sleep set applies (the branch depth).
    sleep_from: usize,
    use_sleep: bool,
    max_steps: u64,
    records: Vec<StepRec>,
    stop: Option<Stop>,
}

impl DrivePicker {
    fn new(
        forced: Vec<ChanKey>,
        sleep: Vec<Choice>,
        sleep_from: usize,
        use_sleep: bool,
        max_steps: u64,
    ) -> DrivePicker {
        DrivePicker {
            forced,
            sleep,
            sleep_from,
            use_sleep,
            max_steps,
            records: Vec::new(),
            stop: None,
        }
    }

    /// The pick-key sequence this run executed.
    fn keys(&self) -> Vec<ChanKey> {
        self.records
            .iter()
            .map(|r| r.choices[r.chosen].key)
            .collect()
    }

    /// The executed schedule as displayable steps.
    fn steps(&self) -> Vec<Step> {
        self.records
            .iter()
            .map(|r| Step {
                key: r.choices[r.chosen].key,
                label: r.choices[r.chosen].label.clone(),
            })
            .collect()
    }
}

impl EventPicker for DrivePicker {
    fn pick(&mut self, step: u64, next_seq: u64, choices: &[Choice]) -> Option<usize> {
        if step >= self.max_steps {
            self.stop = Some(Stop::DepthTruncated);
            return None;
        }
        let s = step as usize;
        let idx = if s < self.forced.len() {
            match choices.iter().position(|c| c.key == self.forced[s]) {
                Some(i) => i,
                None => {
                    self.stop = Some(Stop::ReplayDiverged);
                    return None;
                }
            }
        } else if self.use_sleep {
            match choices
                .iter()
                .position(|c| !self.sleep.iter().any(|e| e.key == c.key))
            {
                Some(i) => i,
                None => {
                    self.stop = Some(Stop::SleepBlocked);
                    return None;
                }
            }
        } else {
            0
        };
        let sleeping = self.use_sleep && s >= self.sleep_from;
        let sleep_snapshot = if sleeping {
            self.sleep.clone()
        } else {
            Vec::new()
        };
        if sleeping {
            let chosen = choices[idx].clone();
            self.sleep.retain(|e| !e.dependent(&chosen));
        }
        self.records.push(StepRec {
            choices: choices.to_vec(),
            chosen: idx,
            watermark: next_seq,
            sleep: sleep_snapshot,
        });
        Some(idx)
    }
}

/// One node of the DFS stack: the state *before* step `depth` fired,
/// with the enabled choices there and what has been explored from it.
struct Node {
    choices: Vec<Choice>,
    /// Index (into `choices`) currently taken by the schedule on the
    /// stack.
    chosen: usize,
    /// Channels already explored (or redundant via sleep) from here.
    done: BTreeSet<ChanKey>,
    /// Channels some race demands be explored from here.
    backtrack: BTreeSet<ChanKey>,
    /// Sleep set entering this node.
    sleep: Vec<Choice>,
    /// Happens-before clock of the chosen step (including itself).
    clock: Clock,
    /// 1-based position of the chosen step within its channel.
    chan_pos: u64,
    /// Queue watermark before this step (for creator-edge recovery).
    watermark: u64,
}

impl Node {
    fn key(&self) -> ChanKey {
        self.choices[self.chosen].key
    }

    fn choice(&self) -> &Choice {
        &self.choices[self.chosen]
    }
}

/// What one completed (or failed) run amounted to.
enum RunVerdict {
    /// All oracles passed; the litmus outcome is attached.
    Clean(Vec<Vec<u64>>),
    /// Sleep-blocked or depth-truncated — no oracle ran.
    Pruned,
    /// An oracle fired.
    Bad(String),
}

/// Drives one litmus × protocol column through every inequivalent
/// schedule.
pub struct Explorer {
    litmus: Litmus,
    /// The litmus's processes, one per node.
    nodes: usize,
    allowed: BTreeSet<Vec<Vec<u64>>>,
    column: Column,
    mutation: Option<Mutation>,
    config: Config,
}

impl Explorer {
    /// Creates an explorer for one litmus on one evaluation column
    /// (protocol feature set + hardware generation), and computes the
    /// outcomes the litmus allows.
    ///
    /// # Panics
    ///
    /// If the litmus's programs race or cannot finish under some
    /// synchronisation order: release consistency then promises no
    /// outcome set to check against.
    pub fn new(litmus: Litmus, column: Column, config: Config) -> Explorer {
        let programs = (litmus.programs)();
        let allowed = sc_outcomes(&programs).unwrap_or_else(|e| panic!("{}: {e}", litmus.name));
        Explorer {
            litmus,
            nodes: programs.len(),
            allowed,
            column,
            mutation: None,
            config,
        }
    }

    /// Every outcome the litmus allows: its programs' sequentially
    /// consistent outcomes ([`sc_outcomes`]).
    pub fn allowed(&self) -> &BTreeSet<Vec<Vec<u64>>> {
        &self.allowed
    }

    /// Seeds a protocol mutation into every run (see [`Mutation`]).
    pub fn with_mutation(mut self, m: Mutation) -> Explorer {
        self.mutation = Some(m);
        self
    }

    /// Executes one schedule from scratch.
    fn execute(
        &self,
        forced: &[ChanKey],
        sleep: Vec<Choice>,
        sleep_from: usize,
        use_sleep: bool,
    ) -> (DrivePicker, RunVerdict) {
        let mut sys = self.litmus.build_on(self.column);
        if let Some(m) = self.mutation {
            sys.set_mutation(m);
        }
        sys.set_tracing(true);
        let mut picker = DrivePicker::new(
            forced.to_vec(),
            sleep,
            sleep_from,
            use_sleep,
            self.config.max_steps,
        );
        let result = sys.try_run_with_picker(&mut picker);
        let verdict = self.judge(&mut sys, result);
        (picker, verdict)
    }

    /// Runs every oracle over one finished run.
    fn judge(
        &self,
        sys: &mut SvmSystem,
        result: Result<genima_proto::RunReport, ProtoError>,
    ) -> RunVerdict {
        match result {
            Ok(_report) => {
                let trace = sys.take_trace();
                let audit = audit_traces(self.column.features, self.nodes, &trace);
                if let Some(v) = audit.violations.first() {
                    return RunVerdict::Bad(format!("audit: {v}"));
                }
                let outcome = sys.take_observations();
                if !self.allowed.contains(&outcome) {
                    return RunVerdict::Bad(format!("forbidden outcome {outcome:?}"));
                }
                RunVerdict::Clean(outcome)
            }
            Err(ProtoError::Halted) => RunVerdict::Pruned,
            Err(ProtoError::Deadlock { blocked }) => {
                RunVerdict::Bad(format!("deadlock; blocked processes: {blocked:?}"))
            }
            Err(e) => RunVerdict::Bad(format!("fatal: {e}")),
        }
    }

    /// Explores the schedule space.
    pub fn run(&self) -> ExploreReport {
        let naive = self.config.mode == Mode::Naive;
        let mut rep = ExploreReport::default();
        let mut stack: Vec<Node> = Vec::new();
        // Depth whose choice the next run overrides; everything above
        // it is replayed verbatim.
        let mut branch = 0usize;
        // Sleep set entering the branch node for the next run.
        let mut run_sleep: Vec<Choice> = Vec::new();
        loop {
            if rep.schedules >= self.config.max_schedules {
                rep.budget_exhausted = true;
                break;
            }
            let forced: Vec<ChanKey> = stack.iter().map(Node::key).collect();
            let (picker, verdict) = self.execute(&forced, run_sleep.clone(), branch, !naive);
            rep.schedules += 1;
            rep.steps_total += picker.records.len() as u64;
            match picker.stop {
                Some(Stop::SleepBlocked) => rep.sleep_blocked += 1,
                Some(Stop::DepthTruncated) => rep.depth_truncated += 1,
                Some(Stop::ReplayDiverged) => {
                    panic!(
                        "schedule replay diverged after {} steps",
                        picker.records.len()
                    )
                }
                None => {}
            }
            self.integrate(&mut stack, &picker.records, branch, naive, &mut rep);
            match verdict {
                RunVerdict::Clean(outcome) => {
                    rep.outcomes.insert(outcome);
                }
                RunVerdict::Pruned => {}
                RunVerdict::Bad(_) => {
                    rep.schedules_to_violation = rep.schedules;
                    rep.violation = Some(self.minimize(&picker.keys()));
                    break;
                }
            }
            match next_branch(&mut stack) {
                Some((d, sleep)) => {
                    branch = d;
                    run_sleep = sleep;
                }
                None => break,
            }
        }
        rep
    }

    /// Replays a forced prefix (then FIFO) and reports the executed
    /// steps plus the oracle verdict, for counterexample verification.
    pub fn replay(&self, prefix: &[ChanKey]) -> (Vec<Step>, Option<String>) {
        let (picker, verdict) = self.execute(prefix, Vec::new(), 0, false);
        let desc = match verdict {
            RunVerdict::Bad(d) => Some(d),
            RunVerdict::Clean(_) | RunVerdict::Pruned => None,
        };
        (picker.steps(), desc)
    }

    /// Shrinks a violating pick sequence to the shortest forced prefix
    /// that still reproduces a violation under FIFO continuation.
    fn minimize(&self, picks: &[ChanKey]) -> Violation {
        for len in 0..=picks.len() {
            let (picker, verdict) = self.execute(&picks[..len], Vec::new(), 0, false);
            if let RunVerdict::Bad(desc) = verdict {
                return Violation {
                    desc,
                    prefix: picks[..len].to_vec(),
                    steps: picker.steps(),
                };
            }
        }
        unreachable!("the full pick sequence must reproduce its own violation")
    }

    /// Folds one run's records into the DFS stack: extends it with new
    /// nodes, recomputes clocks from the branch point, and turns every
    /// race into backtrack entries.
    fn integrate(
        &self,
        stack: &mut Vec<Node>,
        records: &[StepRec],
        branch: usize,
        naive: bool,
        rep: &mut ExploreReport,
    ) {
        assert!(
            records.len() >= stack.len(),
            "run halted inside its forced prefix ({} of {} steps)",
            records.len(),
            stack.len()
        );
        debug_assert!(stack
            .iter()
            .zip(records)
            .all(|(n, r)| n.key() == r.choices[r.chosen].key && n.watermark == r.watermark));
        for r in &records[stack.len()..] {
            let key = r.choices[r.chosen].key;
            let mut done: BTreeSet<ChanKey> = r.sleep.iter().map(|c| c.key).collect();
            done.insert(key);
            let backtrack: BTreeSet<ChanKey> = if naive {
                r.choices.iter().map(|c| c.key).collect()
            } else {
                [key].into()
            };
            stack.push(Node {
                choices: r.choices.clone(),
                chosen: r.chosen,
                done,
                backtrack,
                sleep: r.sleep.clone(),
                clock: Clock::new(),
                chan_pos: 0,
                watermark: r.watermark,
            });
        }
        // Happens-before clocks and race detection, from the branch
        // point down (the prefix above it is unchanged from the
        // previous run).
        let mut pos: BTreeMap<ChanKey, u64> = BTreeMap::new();
        for n in &stack[..branch] {
            *pos.entry(n.key()).or_insert(0) += 1;
        }
        let watermarks: Vec<u64> = stack.iter().map(|n| n.watermark).collect();
        for j in branch..stack.len() {
            let key_j = stack[j].key();
            let p = pos.entry(key_j).or_insert(0);
            *p += 1;
            stack[j].chan_pos = *p;
            let choice_j = stack[j].choice().clone();
            // The step that pushed event j into the queue: the last
            // step whose pre-watermark is <= j's sequence number (the
            // initial resumes predate step 0's watermark).
            let creator = if choice_j.seq < watermarks[0] {
                None
            } else {
                Some(watermarks.partition_point(|&w| w <= choice_j.seq) - 1)
            };
            let mut c = match creator {
                Some(d) => stack[d].clock.clone(),
                None => Clock::new(),
            };
            for i in (0..j).rev() {
                let key_i = stack[i].key();
                if covers(&c, key_i, stack[i].chan_pos) {
                    continue;
                }
                // Channel FIFO and event creation are program order —
                // real happens-before, never a race.
                let ordered = key_i == key_j || creator == Some(i);
                if !ordered && !stack[i].choice().dependent(&choice_j) {
                    continue;
                }
                if !ordered && !naive {
                    // Race: i and j are dependent and unordered. Some
                    // schedule must run j's channel before i. When
                    // that channel is not enabled at i's state, any
                    // enabled channel whose executed step in (i, j)
                    // is in j's causal past reaches j's branch
                    // (Flanagan–Godefroid Fig. 4).
                    let add: Vec<ChanKey> = if stack[i].choices.iter().any(|ch| ch.key == key_j) {
                        vec![key_j]
                    } else {
                        // By downward induction, `c` already
                        // covers exactly the steps after i in j's
                        // happens-before past (every hb edge
                        // points forward in execution order).
                        let mid: Vec<ChanKey> = stack[i]
                            .choices
                            .iter()
                            .map(|ch| ch.key)
                            .filter(|&k| {
                                ((i + 1)..j).any(|m| {
                                    stack[m].key() == k && covers(&c, k, stack[m].chan_pos)
                                })
                            })
                            .collect();
                        // j's channel not enabled at i means a later
                        // step created j's event. Following creators
                        // back from j either reaches i (then i is
                        // ordered before j: no race) or a step in
                        // (i, j) whose event existed at i: its channel
                        // is enabled at i and in j's causal past.
                        assert!(
                            !mid.is_empty(),
                            "a race's reversal is reachable through a step in j's causal past"
                        );
                        mid
                    };
                    rep.races_precise += 1;
                    stack[i].backtrack.extend(add);
                }
                let clock_i = stack[i].clock.clone();
                join(&mut c, &clock_i);
            }
            c.insert(key_j, stack[j].chan_pos);
            stack[j].clock = c;
        }
    }
}

/// Pops to the deepest node with an unexplored backtrack channel,
/// commits to it, and returns the branch depth plus the sleep set
/// entering the branch. `None` when the search is finished.
fn next_branch(stack: &mut Vec<Node>) -> Option<(usize, Vec<Choice>)> {
    loop {
        let d = stack.len().checked_sub(1)?;
        let node = &mut stack[d];
        let Some(&k) = node.backtrack.difference(&node.done).next() else {
            stack.pop();
            continue;
        };
        node.chosen = node
            .choices
            .iter()
            .position(|c| c.key == k)
            .expect("backtrack channels are enabled at their node");
        node.done.insert(k);
        // Sleep entering the new branch: what already slept here, plus
        // every sibling explored before it.
        let mut sleep = node.sleep.clone();
        for ch in &node.choices {
            if ch.key != k && node.done.contains(&ch.key) && !sleep.iter().any(|e| e.key == ch.key)
            {
                sleep.push(ch.clone());
            }
        }
        return Some((d, sleep));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::litmus;
    use genima_proto::FeatureSet;

    fn mp() -> Litmus {
        litmus::by_name("mp").expect("mp litmus exists")
    }

    #[test]
    fn mp_exhaustive_on_base_finds_exactly_the_allowed_outcomes() {
        let rep = Explorer::new(mp(), Column::lanai(FeatureSet::base()), Config::default()).run();
        assert!(
            rep.exhaustive(),
            "mp on Base must fit in the default bounds"
        );
        assert!(rep.violation.is_none(), "{:?}", rep.violation);
        let flags: BTreeSet<(u64, u64)> = rep.outcomes.iter().map(|o| (o[1][0], o[1][1])).collect();
        assert_eq!(flags, BTreeSet::from([(0, 0), (1, 1)]));
    }

    #[test]
    fn exploration_is_deterministic() {
        let cfg = Config {
            max_schedules: 400,
            ..Config::default()
        };
        let a = Explorer::new(mp(), Column::lanai(FeatureSet::base()), cfg).run();
        let b = Explorer::new(mp(), Column::lanai(FeatureSet::base()), cfg).run();
        assert_eq!(a.schedules, b.schedules);
        assert_eq!(a.steps_total, b.steps_total);
        assert_eq!(a.sleep_blocked, b.sleep_blocked);
        assert_eq!(a.outcomes, b.outcomes);
    }

    #[test]
    fn naive_outcomes_are_a_subset_of_dpor_outcomes() {
        let dpor = Explorer::new(mp(), Column::lanai(FeatureSet::base()), Config::default()).run();
        let naive = Explorer::new(
            mp(),
            Column::lanai(FeatureSet::base()),
            Config {
                mode: Mode::Naive,
                max_schedules: 2_000,
                ..Config::default()
            },
        )
        .run();
        assert!(naive.violation.is_none());
        assert!(!naive.outcomes.is_empty());
        assert!(
            naive.outcomes.is_subset(&dpor.outcomes),
            "naive saw an outcome DPOR missed: DPOR is unsound"
        );
    }

    #[test]
    fn seeded_mutant_is_caught_minimized_and_replayed_bit_identically() {
        let cfg = Config {
            max_schedules: 5_000,
            ..Config::default()
        };
        let column = Column::lanai(FeatureSet::genima());
        let rep = Explorer::new(mp(), column, cfg)
            .with_mutation(Mutation::ReorderWriteNotice)
            .run();
        let v = rep.violation.expect("the seeded mutant must be caught");
        assert!(rep.schedules_to_violation > 0);
        // The minimized prefix must reproduce the same violation and
        // the exact same schedule when replayed from scratch.
        let (steps, desc) = Explorer::new(mp(), column, cfg)
            .with_mutation(Mutation::ReorderWriteNotice)
            .replay(&v.prefix);
        assert_eq!(desc.as_deref(), Some(v.desc.as_str()));
        assert_eq!(steps, v.steps);
        // Without the mutation the same prefix is innocent.
        let (_, clean_desc) = Explorer::new(mp(), column, cfg).replay(&v.prefix);
        assert_eq!(clean_desc, None);
    }
}

#[cfg(test)]
mod diag {
    use super::*;
    use crate::litmus;
    use genima_proto::FeatureSet;

    #[test]
    #[ignore]
    fn dump_fifo_steps() {
        let l = litmus::by_name("sb").unwrap();
        let e = Explorer::new(l, Column::lanai(FeatureSet::base()), Config::default());
        let (steps, _) = e.replay(&[]);
        for (i, s) in steps.iter().enumerate() {
            eprintln!("{i:3} {} {}", s.key, s.label);
        }
    }
}
