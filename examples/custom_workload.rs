//! Custom workload: build your own shared-memory program against the
//! public `Op`/`OpSource` interface and run it on the cluster with
//! real page contents and validation — the same data-fidelity path the
//! integration tests use.
//!
//! The program below is a two-node producer/consumer pipeline over a
//! shared ring of pages, synchronized with a lock-protected head index
//! and a barrier per round. `Op::Validate` asserts release-consistency
//! visibility at simulation time.
//!
//! ```sh
//! cargo run --release --example custom_workload
//! ```

use genima::{FeatureSet, Topology};
use genima_proto::{
    ops_source, Addr, BarrierId, Column, LockId, Op, OpSource, SvmSystem, PAGE_SIZE,
};
use genima_sim::Dur;

const ROUNDS: usize = 8;
const RING_PAGES: u64 = 4;

fn page_addr(page: u64, off: u64) -> Addr {
    Addr::new(page * PAGE_SIZE as u64 + off)
}

fn producer() -> Box<dyn OpSource> {
    let lock = LockId::new(0);
    let mut ops = Vec::new();
    for round in 0..ROUNDS {
        let slot = (round as u64) % RING_PAGES;
        ops.push(Op::Compute(Dur::from_us(150)));
        ops.push(Op::Acquire(lock));
        // Payload: the round number, replicated.
        ops.push(Op::WriteData {
            addr: page_addr(slot, 64),
            data: vec![round as u8; 16],
        });
        // Head index lives on its own page.
        ops.push(Op::WriteData {
            addr: page_addr(RING_PAGES, 0),
            data: vec![round as u8],
        });
        ops.push(Op::Release(lock));
        ops.push(Op::Barrier(BarrierId::new(round)));
    }
    Box::new(ops_source(ops))
}

fn consumer() -> Box<dyn OpSource> {
    let lock = LockId::new(0);
    let mut ops = Vec::new();
    for round in 0..ROUNDS {
        let slot = (round as u64) % RING_PAGES;
        ops.push(Op::Barrier(BarrierId::new(round)));
        ops.push(Op::Acquire(lock));
        // The barrier + lock ordered us after the producer's release:
        // LRC guarantees we see the payload.
        ops.push(Op::Validate {
            addr: page_addr(RING_PAGES, 0),
            expected: vec![round as u8],
        });
        ops.push(Op::Validate {
            addr: page_addr(slot, 64),
            expected: vec![round as u8; 16],
        });
        ops.push(Op::Release(lock));
        ops.push(Op::Compute(Dur::from_us(80)));
    }
    Box::new(ops_source(ops))
}

fn main() {
    for features in [FeatureSet::base(), FeatureSet::genima()] {
        let topo = Topology::new(2, 1);
        let mut params = Column::lanai(features).params(topo);
        params.locks = 1;
        params.data_mode = true; // real page contents + validation
        let mut sys = SvmSystem::new(params, vec![producer(), consumer()]);
        let report = sys.run();
        println!(
            "{features:9}: {} rounds validated, {} page transfers, {} diffs, {} interrupts, finished at {}",
            ROUNDS,
            report.counters.page_transfers,
            report.counters.diffs,
            report.counters.interrupts,
            report.parallel_time(),
        );
    }
    println!("\nEvery Validate passed under both protocols: the consumer saw exactly the");
    println!("producer's writes through twins, diffs, write notices and lock timestamps.");
}
