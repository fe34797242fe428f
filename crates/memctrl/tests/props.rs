//! Property-based tests for the memory controller: address-mapping
//! round trips and scheduler liveness/safety under arbitrary request
//! batches (the device's timing assertions are the safety oracle).

use proptest::prelude::*;

use mirza_dram::address::{MappingScheme, RowMapping};
use mirza_dram::device::Subchannel;
use mirza_dram::geometry::Geometry;
use mirza_dram::mitigation::NullMitigator;
use mirza_dram::time::Ps;
use mirza_dram::timing::TimingParams;
use mirza_memctrl::controller::{McConfig, MemController};
use mirza_memctrl::mapping::AddressMapper;
use mirza_memctrl::request::{AccessKind, Request};

fn controller(bat: Option<u32>) -> MemController {
    let geom = Geometry::ddr5_32gb();
    let device = Subchannel::new(
        TimingParams::ddr5_6000(),
        geom,
        RowMapping::for_geometry(MappingScheme::Strided, &geom),
        Box::new(NullMitigator::new()),
    );
    MemController::new(device, McConfig { rfm_bat: bat }, 0)
}

proptest! {
    /// MOP4 decode/encode round-trips at any line-aligned address.
    #[test]
    fn mop4_round_trip(line in 0u64..(32u64 << 30) / 64) {
        let m = AddressMapper::mop4(Geometry::ddr5_32gb());
        let pa = line * 64;
        prop_assert_eq!(m.encode(&m.decode(pa)), pa);
    }

    /// Four consecutive lines always share a bank and row (the MOP group).
    #[test]
    fn mop4_groups_of_four(line in 0u64..(32u64 << 30) / 64 / 4) {
        let m = AddressMapper::mop4(Geometry::ddr5_32gb());
        let base = m.decode(line * 4 * 64);
        for i in 1..4u64 {
            let a = m.decode((line * 4 + i) * 64);
            prop_assert_eq!(a.bank, base.bank);
            prop_assert_eq!(a.row, base.row);
        }
    }

    /// The scheduler completes every enqueued request, in any mix of reads
    /// and writes over arbitrary banks/rows, without timing violations and
    /// with non-decreasing completion validity.
    #[test]
    fn scheduler_completes_arbitrary_batches(
        reqs in proptest::collection::vec(
            (0u32..32, 0u32..2048, 0u32..64, any::<bool>(), 0u64..2_000),
            1..60
        ),
        bat in prop::option::of(4u32..64),
    ) {
        let mut mc = controller(bat);
        let mapper = AddressMapper::mop4(Geometry::ddr5_32gb());
        let mut ids = Vec::new();
        for (i, (bank, row, col, is_write, at_ns)) in reqs.iter().enumerate() {
            let addr = mirza_dram::address::DramAddr {
                bank: mirza_dram::address::BankId::new(0, 0, *bank),
                row: *row,
                col: *col,
            };
            // Sanity: the address survives the mapper (valid coordinates).
            prop_assert!(mapper.encode(&addr) < mapper.capacity());
            let id = i as u64;
            ids.push(id);
            mc.enqueue(Request {
                id,
                addr,
                kind: if *is_write { AccessKind::Write } else { AccessKind::Read },
                arrival: Ps::from_ns(*at_ns),
            });
        }
        let mut out = Vec::new();
        mc.run_until(Ps::from_ms(2), &mut out);
        prop_assert_eq!(out.len(), ids.len(), "every request completes");
        prop_assert_eq!(mc.pending_requests(), 0);
        let mut done: Vec<u64> = out.iter().map(|c| c.id).collect();
        done.sort_unstable();
        prop_assert_eq!(done, ids);
        // Refresh kept running during the batch.
        prop_assert!(mc.device().stats().refs > 0);
    }
}
