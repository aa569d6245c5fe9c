//! Open-loop request streams generated as the run consumes them.
//!
//! A serving app offers `requests` requests over a window; process `p`
//! serves its share of them. Its stream is the warm-up barrier, then
//! one request after another, each paced by [`OpenLoop`] and started
//! from a Zipf-popular item. [`Offer::spec`] hands each process a
//! [`Requests`] source that draws a request only when the run has
//! consumed the previous one, so a spec costs memory in processes and
//! keys, never in requests. What a request *does* with its item is the
//! app's [`Request`] body.

use std::collections::VecDeque;
use std::rc::Rc;

use genima_apps::{Arrival, WorkloadSpec};
use genima_proto::{BarrierId, NodeId, Op, OpSource, PageId, Topology};
use genima_sim::{Dur, SplitMix64, Time};

use crate::arrival::{OpenLoop, Pacing};
use crate::zipf::{scatter, Zipf};

/// The body of one serving request: the ops it issues for its item.
pub(crate) trait Request: Clone + 'static {
    /// Salt mixed into each process's seed, so two apps given the same
    /// seed draw different traffic.
    const SALT: u64;

    /// Most ops one request yields.
    fn max_ops(&self) -> usize;

    /// Appends the ops of one request for the scattered Zipf item
    /// `item`, arriving at `t`; any further draws come from `rng`.
    fn push_ops(&self, t: Time, item: usize, rng: &mut SplitMix64, out: &mut VecDeque<Op>);
}

/// A host compute op, or none for a zero time.
pub(crate) fn compute_us(us: f64) -> Option<Op> {
    (us > 0.0).then(|| Op::Compute(Dur::from_us_f64(us)))
}

/// What a serving app offers: how many requests, over which window,
/// paced how, seeded how.
#[derive(Debug, Clone)]
pub(crate) struct Offer {
    /// Requests offered across the whole cluster.
    pub(crate) requests: u64,
    /// Simulated span the arrival process covers.
    pub(crate) horizon: Dur,
    /// Absolute time the first arrival may occur (after warmup).
    pub(crate) start: Time,
    /// Inter-arrival distribution.
    pub(crate) pacing: Pacing,
    /// Seed for arrivals, item choice and the body's draws.
    pub(crate) seed: u64,
}

impl Offer {
    /// `requests` over `horizon`, Poisson from 500 µs, seed 0.
    pub(crate) fn new(requests: u64, horizon: Dur) -> Offer {
        Offer {
            requests,
            horizon,
            start: Time::from_ns(500_000),
            pacing: Pacing::Poisson,
            seed: 0,
        }
    }

    /// The open-loop spec whose processes serve this offer through
    /// `body`, items drawn from `zipf`.
    pub(crate) fn spec<R: Request>(
        &self,
        topo: Topology,
        body: R,
        zipf: Zipf,
        homes: Vec<(PageId, usize, NodeId)>,
        locks: usize,
    ) -> WorkloadSpec {
        let nprocs = topo.procs() as u64;
        let zipf = Rc::new(zipf);
        let sources = (0..nprocs)
            .map(|p| {
                let left = self.requests / nprocs + u64::from(p < self.requests % nprocs);
                let mut rng = SplitMix64::new(self.seed ^ R::SALT.wrapping_add(p));
                let arr_rng = rng.split();
                // A process with no requests never draws an arrival.
                let gap = Dur::from_ns((self.horizon.as_ns() / left.max(1)).max(1));
                let mut pending = VecDeque::with_capacity(body.max_ops());
                pending.push_back(Op::Barrier(BarrierId::new(0)));
                Box::new(Requests {
                    body: body.clone(),
                    zipf: Rc::clone(&zipf),
                    rng,
                    arrivals: OpenLoop::new(self.start, gap, self.pacing, arr_rng),
                    left,
                    pending,
                }) as Box<dyn OpSource>
            })
            .collect();
        WorkloadSpec {
            sources,
            homes,
            locks,
            bus_demand_per_proc: 25_000_000,
            warmup_barrier: Some(BarrierId::new(0)),
            arrival: Arrival::Open {
                horizon: self.horizon,
                offered_ops: self.requests,
            },
        }
    }
}

/// One process's request stream, drawn on demand. Fused, and it
/// allocates nothing once built: `pending` holds at most one request.
struct Requests<R> {
    body: R,
    zipf: Rc<Zipf>,
    rng: SplitMix64,
    arrivals: OpenLoop,
    /// Requests not yet drawn.
    left: u64,
    /// Ops drawn and not yet consumed.
    pending: VecDeque<Op>,
}

impl<R: Request> OpSource for Requests<R> {
    fn next_op(&mut self) -> Option<Op> {
        if self.pending.is_empty() && self.left > 0 {
            self.left -= 1;
            let t = self.arrivals.next_arrival();
            let item = scatter(self.zipf.sample(&mut self.rng), self.zipf.n());
            self.body
                .push_ops(t, item, &mut self.rng, &mut self.pending);
        }
        self.pending.pop_front()
    }
}
