//! Golden oracle for the scheduler's command stream: seeded random request
//! streams are fed through `enqueue` and `run_until` in windows of random
//! width, so that arrivals land between issues, and every issued
//! `(command, instant)` line plus every completion is pinned as one
//! committed digest per case. The cases cross one and two ranks (two ranks
//! reach the per-rank ACT floor), proactive RFM off and at a small BAT, and
//! strict and postponed refresh.

use mirza_dram::address::{BankId, DramAddr, MappingScheme, RowMapping};
use mirza_dram::device::Subchannel;
use mirza_dram::geometry::Geometry;
use mirza_dram::mitigation::NullMitigator;
use mirza_dram::time::Ps;
use mirza_dram::timing::TimingParams;
use mirza_memctrl::controller::{McConfig, MemController};
use mirza_memctrl::request::{AccessKind, Completion, Request};
use mirza_telemetry::{SharedBuf, Telemetry, TraceSink};

const GOLDEN: &str = include_str!("golden/stream.digests");
const GOLDEN_PATH: &str = "crates/memctrl/tests/golden/stream.digests";

/// Requests fed to each case.
const REQUESTS: u64 = 6_000;

/// SplitMix64: a self-contained generator, so the digests depend on no
/// other crate's RNG.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// FNV-1a 64 of `text`.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

struct Case {
    ranks: u32,
    rfm_bat: Option<u32>,
    postpone_refs: u32,
}

impl Case {
    fn name(&self) -> String {
        let bat = self.rfm_bat.map_or("off".to_string(), |b| b.to_string());
        format!(
            "ranks{}/bat-{bat}/postpone{}",
            self.ranks, self.postpone_refs
        )
    }
}

fn cases() -> Vec<Case> {
    let mut v = Vec::new();
    for ranks in [1, 2] {
        for rfm_bat in [None, Some(6)] {
            for postpone_refs in [0, 4] {
                v.push(Case {
                    ranks,
                    rfm_bat,
                    postpone_refs,
                });
            }
        }
    }
    v
}

/// What one case produced: the trace text, the completions, and the
/// counters its coverage checks read.
struct Stream {
    trace: String,
    completions: String,
    refs: u64,
    rfms: u64,
    commands: usize,
    /// Row hits, misses and conflicts.
    mix: [u64; 3],
}

fn run(case: &Case, seed: u64) -> Stream {
    let geom = Geometry {
        ranks: case.ranks,
        ..Geometry::ddr5_32gb()
    };
    let device = Subchannel::new(
        TimingParams::ddr5_6000(),
        geom,
        RowMapping::for_geometry(MappingScheme::Strided, &geom),
        Box::new(NullMitigator::new()),
    );
    let cfg = McConfig {
        rfm_bat: case.rfm_bat,
        postpone_refs: case.postpone_refs,
    };
    let mut mc = MemController::new(device, cfg, 0);
    let buf = SharedBuf::new();
    mc.set_telemetry(Telemetry::enabled().with_trace(TraceSink::new(buf.writer())));

    let mut rng = Rng(seed);
    let mut done: Vec<Completion> = Vec::new();
    let mut t = Ps::ZERO;
    let mut id = 0;
    while id < REQUESTS {
        // Mostly short windows (a few commands each), now and then a long
        // one that drains the queues and crosses refreshes.
        let width = if rng.below(16) == 0 {
            Ps::from_ns(200 + rng.below(3_000))
        } else {
            Ps::from_ps(300 + rng.below(40_000))
        };
        for _ in 0..rng.below(8).min(REQUESTS - id) {
            // Half the requests go to four hot banks, which queue deep; a
            // few hot rows per bank make hits, conflicts and closed-bank
            // misses all occur.
            let hot = rng.below(2) == 0;
            let bank = BankId::new(
                0,
                rng.below(u64::from(case.ranks)) as u32,
                rng.below(if hot { 4 } else { u64::from(geom.banks) }) as u32,
            );
            let addr = DramAddr {
                bank,
                row: rng.below(6) as u32 * 97,
                col: rng.below(64) as u32,
            };
            let kind = if rng.below(3) == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let arrival = t + Ps::from_ps(rng.below(width.as_ps()));
            mc.enqueue(Request {
                id,
                addr,
                kind,
                arrival,
            });
            id += 1;
        }
        t += width;
        mc.run_until(t, &mut done);
    }
    mc.run_until(t + Ps::from_us(200), &mut done);
    assert_eq!(mc.pending_requests(), 0, "{}: queues drained", case.name());
    assert_eq!(
        done.len() as u64,
        REQUESTS,
        "{}: every request completes",
        case.name()
    );

    let trace = buf.contents();
    let completions = done
        .iter()
        .map(|c| format!("{} {}\n", c.id, c.done_at.as_ps()))
        .collect();
    Stream {
        commands: trace.lines().count(),
        trace,
        completions,
        refs: mc.device().stats().refs,
        rfms: mc.stats().rfms_issued,
        mix: [
            mc.stats().row_hits,
            mc.stats().row_misses,
            mc.stats().row_conflicts,
        ],
    }
}

#[test]
fn every_case_matches_its_committed_digest() {
    let mut actual = String::new();
    for (i, case) in cases().iter().enumerate() {
        let name = case.name();
        let s = run(case, 0x5eed_0000 + i as u64);
        let [hits, misses, conflicts] = s.mix;
        println!(
            "{name}: {} commands, {} refs, {} rfms, {hits}/{misses}/{conflicts} \
             hits/misses/conflicts",
            s.commands, s.refs, s.rfms
        );
        assert!(s.refs > 0, "{name}: no REF issued");
        assert!(
            hits > 0 && misses > 0 && conflicts > 0,
            "{name}: the row-buffer mix lost a class"
        );
        if case.rfm_bat.is_some() {
            assert!(s.rfms > 0, "{name}: no proactive RFM issued");
        }
        let digest = fnv1a(&(s.trace + &s.completions));
        actual.push_str(&format!("{name}\t{digest:016x}\n"));
    }
    let expected: String = GOLDEN
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| format!("{l}\n"))
        .collect();
    assert!(
        actual == expected,
        "command-stream digests differ from {GOLDEN_PATH}; if the change is intended, \
         replace its digest lines with:\n{actual}"
    );
}
