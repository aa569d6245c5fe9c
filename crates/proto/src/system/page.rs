//! Home-based LRC's page-version rules as one clock-free machine
//! (DESIGN.md §5). The versions stay in their page columns and are read
//! and raised here through borrowed slices; each transition returns a
//! decision, and `SvmSystem` carries it out with its timing and costs.

use genima_mem::{Access, PageId};

use crate::version::{VersionCol, VersionMap};

/// A version as its `(writer, interval)` pairs, ascending by writer.
type Pairs<'a> = &'a [(u32, u32)];

/// What a copy must cover: the join of its operands, tested operand by
/// operand and built only where it travels (a request, a trace event).
pub(crate) struct Need<I>(I);

impl<'a, I: Iterator<Item = Pairs<'a>>> Need<I> {
    /// Whether `have` covers every operand.
    pub(crate) fn met_by(mut self, have: &VersionMap) -> bool {
        self.0.all(|operand| have.covers(operand))
    }

    /// Makes `out` the join: the first operand copied in, then the rest.
    pub(crate) fn build_into(mut self, out: &mut VersionMap) {
        out.set(self.0.next().unwrap_or_default());
        self.0.for_each(|operand| out.join(operand));
    }
}

/// A faulting process's need: its `required` version and what its
/// node's writers have `flushed` (DESIGN.md §5.1).
pub(crate) fn reader_need<'a>(
    required: Pairs<'a>,
    flushed: Pairs<'a>,
) -> Need<impl Iterator<Item = Pairs<'a>>> {
    Need([required, flushed].into_iter())
}

/// A fetch's need: what its node's writers have `flushed`, and the
/// `required` version of every process waiting on it.
pub(crate) fn fetch_need<'a>(
    flushed: Pairs<'a>,
    required: impl Iterator<Item = Pairs<'a>>,
) -> Need<impl Iterator<Item = Pairs<'a>>> {
    Need(std::iter::once(flushed).chain(required))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fault {
    /// The node's copy covers the need.
    Hit,
    /// Wait at the home until [`raise_home`] covers the need.
    AwaitHome,
    /// Wait on the node's fetch in flight, which now needs this too.
    Join,
    Fetch,
}

/// `fault`: a process with `need` faults on a page its node holds at
/// `copy` (the home copy, at the home); `fetching` if the node has a
/// fetch of it in flight.
pub(crate) fn fault<'a>(
    copy: Option<&VersionMap>,
    need: Need<impl Iterator<Item = Pairs<'a>>>,
    at_home: bool,
    fetching: bool,
) -> Fault {
    if copy.is_some_and(|have| need.met_by(have)) {
        Fault::Hit
    } else if at_home {
        Fault::AwaitHome
    } else if fetching {
        Fault::Join
    } else {
        Fault::Fetch
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fetched {
    Install,
    /// The need outgrew the copy in flight: fetch again.
    Stale,
}

/// `fetched`: a Base reply or a remote fetch brought a copy at `version`
/// for a fetch with `need`, evaluated on arrival (DESIGN.md §5.2).
pub(crate) fn fetched<'a>(
    version: &VersionMap,
    need: Need<impl Iterator<Item = Pairs<'a>>>,
) -> Fetched {
    if need.met_by(version) {
        Fetched::Install
    } else {
        Fetched::Stale
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Request {
    Serve,
    /// Keep it until [`raise_home`] covers it.
    Defer,
}

/// `request`: a request for `required` reached a home copy at `home`.
pub(crate) fn request(home: &VersionMap, required: &VersionMap) -> Request {
    if home.covers(required.pairs()) {
        Request::Serve
    } else {
        Request::Defer
    }
}

/// `notice`: a write notice of `writer`'s `interval` named `page`: a
/// copy the process maps from now on must hold that diff.
pub(crate) fn notice(required: &mut VersionCol, page: PageId, writer: u32, interval: u32) {
    required.raise(page, writer, interval);
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Noticed {
    /// Unmapped already.
    Keep,
    Invalidate,
    /// Close the interval and flush every closed one, oldest first,
    /// then invalidate (DESIGN.md §5.3).
    Conflict,
}

/// `noticed`: a page the applied notices named, held with `access`;
/// `twinned` if the process is writing it with a twin.
pub(crate) fn noticed(access: Access, twinned: bool) -> Noticed {
    match (access, twinned) {
        (_, true) => Noticed::Conflict,
        (Access::None, false) => Noticed::Keep,
        (Access::Read | Access::ReadWrite, false) => Noticed::Invalidate,
    }
}

/// `flushed`: `writer`'s diff of `interval` left its node: a copy the
/// node installs from now on must hold it, or it would roll the node's
/// own write back (DESIGN.md §5.1).
pub(crate) fn flushed(local: &mut VersionCol, page: PageId, writer: u32, interval: u32) {
    local.raise(page, writer, interval);
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Diff {
    /// Overtaken by a newer diff of its writer: applying it would
    /// regress the home copy.
    Drop,
    /// Apply it, then [`raise_home`]; an equal interval is a repeat.
    Apply,
}

/// `diff`: `writer`'s diff of `interval` reached a home copy at `home`.
pub(crate) fn diff(home: &VersionMap, writer: u32, interval: u32) -> Diff {
    if interval < home.get(writer) {
        Diff::Drop
    } else {
        Diff::Apply
    }
}

/// A deferred Base request: requester node, its need, its fetch op.
pub(crate) type Deferred = (usize, VersionMap, u64);

/// One page's home side, borrowed from the home table's columns.
pub(crate) struct Home<'a> {
    pub(crate) version: &'a mut VersionMap,
    /// Home-local processes waiting for diffs, in arrival order.
    pub(crate) waiters: &'a mut Vec<usize>,
    /// Base requests in arrival order; `None` under remote fetch.
    pub(crate) deferred: Option<&'a mut Vec<Deferred>>,
}

/// The home copy now holds `writer`'s `interval` (a diff applied, or an
/// interval written in place closed): raises the version, then moves
/// out, in arrival order, the waiters whose `required` it covers into
/// `woken` (emptied first) and the deferred requests it covers into
/// `served`, their versions to `spares`.
pub(crate) fn raise_home<'a>(
    home: Home<'_>,
    writer: u32,
    interval: u32,
    required: impl Fn(usize) -> Pairs<'a>,
    woken: &mut Vec<usize>,
    served: &mut Vec<(usize, u64)>,
    spares: &mut Vec<VersionMap>,
) {
    home.version.raise(writer, interval);
    let have = &*home.version;
    woken.clear();
    home.waiters.retain(|&p| {
        let ready = have.covers(required(p));
        if ready {
            woken.push(p);
        }
        !ready
    });
    if let Some(deferred) = home.deferred {
        deferred.retain_mut(|(node, need, op)| {
            let ready = have.covers(need.pairs());
            if ready {
                served.push((*node, *op));
                spares.push(std::mem::take(need));
            }
            !ready
        });
    }
}

#[cfg(test)]
mod tests;
