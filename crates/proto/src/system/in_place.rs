//! GeNIMA-2025's in-place home pages, per process, as a time-free
//! machine (DESIGN.md §10.3–§10.4). A page written at its home takes no
//! twin, so opening it early costs one coalesced `mprotect`. The
//! machine remembers which pages are worth opening early: the runs an
//! interval's close re-protected, which a rewrite from a run's first
//! page re-opens whole, and the lock scope, the pages opened while
//! holding the lock last taken, which the next acquire of that lock
//! re-opens while its request is in flight. It decides *which* pages
//! re-open; the system applies it (page table, dirty set, cost), as
//! `genima_coll::CollState` leaves time and wires to the NI.

use std::ops::Range;

use genima_nic::LockId;

/// One process's in-place runs and lock scope, in page indices.
#[derive(Debug, Default)]
pub(crate) struct InPlaceState {
    /// Maximal runs of in-place pages re-protected at a close, each
    /// longer than one page, ascending and disjoint.
    runs: Vec<Range<usize>>,
    /// The lock last taken, and the one run of in-place pages opened
    /// while holding it.
    scope: Option<(LockId, Range<usize>)>,
}

impl InPlaceState {
    /// An interval's close re-protected `run`, a maximal run of pages
    /// written in place: keep it, dropping the older runs it overlaps,
    /// so the list never outgrows the pages written. A run of one page
    /// only drops them: re-opening it would cost what its fault costs.
    pub(crate) fn closed(&mut self, run: Range<usize>) {
        // Disjoint and ascending: the ends ascend with the starts.
        let from = self.runs.partition_point(|r| r.end <= run.start);
        let to = from + self.runs[from..].partition_point(|r| r.start < run.end);
        let keep = run.len() > 1;
        self.runs.splice(from..to, keep.then_some(run));
    }

    /// A write faulted on `page`, held read-only: takes the run that
    /// starts there, if any, to re-open whole. A fault inside a run
    /// re-opens nothing, so a partial rewrite names no finished page.
    pub(crate) fn write_fault(&mut self, page: usize) -> Option<Range<usize>> {
        let at = self.runs.binary_search_by_key(&page, |r| r.start).ok()?;
        Some(self.runs.remove(at))
    }

    /// A write fault opened the in-place pages `opened`: they join the
    /// scope if `holds` its lock and they touch its run. Pages apart
    /// are left to fault, so the scope stays one run.
    pub(crate) fn opened(&mut self, opened: Range<usize>, holds: impl FnOnce(LockId) -> bool) {
        let Some((l, run)) = &mut self.scope else {
            return;
        };
        if !holds(*l) {
            return;
        }
        if run.start == run.end {
            *run = opened;
        } else if opened.start <= run.end && run.start <= opened.end {
            *run = run.start.min(opened.start)..run.end.max(opened.end);
        }
    }

    /// An acquire of `l` starts: the scope's run to re-open if the scope
    /// is `l`'s (it stays the scope); else an empty scope for `l`
    /// replaces it and nothing re-opens.
    pub(crate) fn acquire(&mut self, l: LockId) -> Range<usize> {
        match &self.scope {
            Some((scoped, run)) if *scoped == l => run.clone(),
            Some(_) | None => {
                self.scope = Some((l, 0..0));
                0..0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use proptest::prelude::*;

    use super::*;

    fn lock(n: usize) -> LockId {
        LockId::new(n)
    }

    #[test]
    fn a_close_keeps_a_run_and_drops_what_it_overlaps() {
        let mut m = InPlaceState::default();
        m.closed(0..4);
        m.closed(10..12);
        m.closed(20..21);
        assert_eq!(m.runs, [0..4, 10..12], "a one-page run is not kept");
        m.closed(3..11);
        assert_eq!(m.runs, vec![3..11], "both older runs overlap the newer");
        m.closed(5..6);
        assert!(m.runs.is_empty(), "a one-page run still drops");
    }

    #[test]
    fn a_write_fault_takes_only_the_run_it_starts() {
        let mut m = InPlaceState::default();
        m.closed(4..8);
        m.closed(10..13);
        assert_eq!(m.write_fault(5), None, "mid-run");
        assert_eq!(m.write_fault(9), None, "no run");
        assert_eq!(m.write_fault(10), Some(10..13));
        assert_eq!(m.write_fault(10), None, "taken once");
        assert_eq!(m.runs.first(), Some(&(4..8)));
        assert_eq!(m.runs.len(), 1);
    }

    #[test]
    fn an_acquire_reopens_its_own_scope_and_replaces_another() {
        let mut m = InPlaceState::default();
        assert_eq!(m.acquire(lock(1)), 0..0, "no scope yet");
        m.opened(3..5, |_| true);
        assert_eq!(m.acquire(lock(1)), 3..5);
        assert_eq!(m.acquire(lock(1)), 3..5, "re-opened pages stay in scope");
        assert_eq!(m.acquire(lock(2)), 0..0, "another lock replaces it");
        assert_eq!(m.acquire(lock(1)), 0..0);
    }

    #[test]
    fn pages_opened_under_the_scopes_lock_widen_it_if_they_touch_it() {
        let mut m = InPlaceState::default();
        m.opened(0..1, |_| true);
        assert_eq!(m.scope, None, "no acquire, no scope");
        m.acquire(lock(0));
        m.opened(4..5, |l| l != lock(0));
        assert_eq!(m.scope, Some((lock(0), 0..0)), "lock not held");
        m.opened(4..5, |l| l == lock(0));
        m.opened(5..8, |_| true);
        m.opened(2..4, |_| true);
        assert_eq!(m.scope, Some((lock(0), 2..8)), "touching runs join");
        m.opened(9..10, |_| true);
        assert_eq!(m.scope, Some((lock(0), 2..8)), "a page apart is left");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Under any sequence of transitions the runs stay ascending,
        /// disjoint and longer than a page, a closed run is kept whole
        /// until taken or overlapped, and the scope is exactly the
        /// union of the pages opened into it: one run.
        #[test]
        fn runs_stay_disjoint_and_the_scope_one_run(
            steps in prop::collection::vec((0u8..4, 0usize..24, 1usize..6, 0usize..3), 0..64),
        ) {
            let mut m = InPlaceState::default();
            let mut scope: Option<(LockId, BTreeSet<usize>)> = None;
            for (kind, start, len, l) in steps {
                let (run, l) = (start..start + len, lock(l));
                match kind {
                    0 => {
                        m.closed(run.clone());
                        prop_assert_eq!(m.runs.contains(&run), run.len() > 1);
                    }
                    1 => {
                        if let Some(taken) = m.write_fault(start) {
                            prop_assert_eq!(taken.start, start);
                        }
                        prop_assert!(m.runs.iter().all(|r| r.start != start));
                    }
                    2 => {
                        let holds = l.index() % 2 == 0;
                        m.opened(run.clone(), |scoped| scoped == l && holds);
                        if let Some((scoped, pages)) = &mut scope {
                            let (lo, hi) = (pages.first().copied(), pages.last().copied());
                            let touches = match (lo, hi) {
                                (Some(lo), Some(hi)) => run.start <= hi + 1 && lo <= run.end,
                                _ => true,
                            };
                            if *scoped == l && holds && touches {
                                pages.extend(run);
                            }
                        }
                    }
                    _ => {
                        let reopen = m.acquire(l);
                        match &scope {
                            Some((scoped, pages)) if *scoped == l => {
                                prop_assert_eq!(reopen.collect::<BTreeSet<_>>(), pages.clone());
                            }
                            _ => {
                                prop_assert!(reopen.is_empty());
                                scope = Some((l, BTreeSet::new()));
                            }
                        }
                    }
                }
                prop_assert!(m.runs.iter().all(|r| r.len() > 1));
                prop_assert!(m.runs.windows(2).all(|w| w[0].end <= w[1].start));
                let got = m.scope.as_ref().map(|(l, r)| (*l, r.clone().collect()));
                prop_assert_eq!(got, scope.clone());
            }
        }
    }
}
