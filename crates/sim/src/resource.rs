//! Single-server FIFO resources.

use crate::time::{Dur, Time};

/// A single-server FIFO resource with non-preemptive service.
///
/// Models contended hardware such as a PCI DMA engine, a network link,
/// a switch output port, or the LANai processor on the network
/// interface: requests are served in arrival order and each occupies
/// the server for its full service time. The resource keeps only its
/// schedule: when it next becomes free.
///
/// # Example
///
/// ```
/// use genima_sim::{Dur, Resource, Time};
///
/// let mut link = Resource::new("link");
/// let (s1, e1) = link.reserve(Time::ZERO, Dur::from_us(10));
/// assert_eq!((s1, e1), (Time::ZERO, Time::from_ns(10_000)));
/// // A second packet arriving at 2us queues behind the first.
/// let (s2, e2) = link.reserve(Time::from_ns(2_000), Dur::from_us(10));
/// assert_eq!(s2, Time::from_ns(10_000));
/// assert_eq!(e2, Time::from_ns(20_000));
/// ```
#[derive(Debug, Clone)]
pub struct Resource {
    #[expect(dead_code, reason = "read only by the derived `Debug`")]
    name: &'static str,
    free_at: Time,
}

impl Resource {
    /// Creates an idle resource. `name` is used in debug output only.
    pub fn new(name: &'static str) -> Resource {
        Resource {
            name,
            free_at: Time::ZERO,
        }
    }

    /// Reserves the resource for `service` starting no earlier than
    /// `now`, returning the `(start, end)` of the granted slot.
    pub fn reserve(&mut self, now: Time, service: Dur) -> (Time, Time) {
        let start = now.max(self.free_at);
        let end = start + service;
        self.free_at = end;
        (start, end)
    }

    /// Returns the instant at which the resource next becomes free.
    pub fn free_at(&self) -> Time {
        self.free_at
    }

    /// Prevents the resource from starting new work before `t`. Used
    /// to model a server that must wait for a dependent stage (e.g. the
    /// LANai holding the send path while a non-pipelined DMA drains).
    pub fn block_until(&mut self, t: Time) {
        self.free_at = self.free_at.max(t);
    }

    /// Returns how long the resource would remain busy if queried at
    /// `now` — the backlog seen by a new arrival.
    pub fn backlog(&self, now: Time) -> Dur {
        self.free_at.saturating_since(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_resource_serves_immediately() {
        let mut r = Resource::new("r");
        let (s, e) = r.reserve(Time::from_ns(100), Dur::from_ns(50));
        assert_eq!(s, Time::from_ns(100));
        assert_eq!(e, Time::from_ns(150));
    }

    #[test]
    fn busy_resource_queues() {
        let mut r = Resource::new("r");
        r.reserve(Time::ZERO, Dur::from_ns(100));
        let (s, e) = r.reserve(Time::from_ns(30), Dur::from_ns(10));
        assert_eq!(s, Time::from_ns(100));
        assert_eq!(e, Time::from_ns(110));
        assert_eq!(r.free_at(), Time::from_ns(110));
    }

    #[test]
    fn backlog_reports_remaining_busy_time() {
        let mut r = Resource::new("r");
        r.reserve(Time::ZERO, Dur::from_ns(100));
        assert_eq!(r.backlog(Time::from_ns(40)), Dur::from_ns(60));
        assert_eq!(r.backlog(Time::from_ns(200)), Dur::ZERO);
    }

    #[test]
    fn gaps_leave_resource_idle() {
        let mut r = Resource::new("r");
        r.reserve(Time::ZERO, Dur::from_ns(10));
        let (s, _) = r.reserve(Time::from_ns(1_000), Dur::from_ns(10));
        assert_eq!(s, Time::from_ns(1_000));
    }

    #[test]
    fn block_until_delays_without_busy_time() {
        let mut r = Resource::new("r");
        r.block_until(Time::from_ns(500));
        let (s, _) = r.reserve(Time::ZERO, Dur::from_ns(10));
        assert_eq!(s, Time::from_ns(500));
        // Blocking to an earlier instant is a no-op.
        r.block_until(Time::from_ns(100));
        assert_eq!(r.free_at(), Time::from_ns(510));
    }
}
