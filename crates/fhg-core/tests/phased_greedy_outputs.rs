//! Every `PhasedGreedy` output, pinned per graph.
//!
//! The §3 scheduler is deterministic: its happy sets follow from the
//! initial colouring and the recolouring rule alone.  This file pins every
//! happy set of 1024 holidays, and the colours left after the last one, as
//! FNV-1a hashes recorded before the recolouring scratch became a bitmask.
//! A change to the initial colouring, the happy-set scan or the
//! recolouring rule that moves one member of one holiday fails here.
//!
//! The graphs cover one sparse random graph, Barabási–Albert hubs with
//! more than 64 in-laws (a recolouring window wider than one word), a
//! clique whose 70-colour window spans two words, a star, and the
//! distributed initialisation.

use fhg_core::schedulers::PhasedGreedy;
use fhg_core::Scheduler;
use fhg_graph::generators::structured::{complete, star};
use fhg_graph::generators::{barabasi_albert, erdos_renyi};
use fhg_graph::{Graph, HappySet};

/// Holidays hashed per graph.
const HOLIDAYS: u64 = 1024;

/// 64-bit FNV-1a, fed word by word.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// The hash of every happy set of `HOLIDAYS` holidays (its size, then its
/// members in order), followed by every node's final colour.
fn hash(graph: &Graph, mut scheduler: PhasedGreedy) -> u64 {
    let mut h = Fnv::new();
    let mut out = HappySet::new(0);
    let start = scheduler.first_holiday();
    for t in start..start + HOLIDAYS {
        scheduler.fill_happy_set(t, &mut out);
        h.word(out.len() as u64);
        out.for_each(|p| h.word(p as u64));
    }
    graph.nodes().for_each(|p| h.word(scheduler.current_color(p)));
    h.0
}

#[test]
fn phased_greedy_outputs_are_pinned() {
    let er = erdos_renyi(2048, 4.0 / 2047.0, 1);
    let ba = barabasi_albert(2048, 16, 1);
    assert!(ba.max_degree() > 64, "the hubs must need a window wider than one word");
    let clique = complete(70);
    let star = star(200);
    let distributed = erdos_renyi(600, 8.0 / 599.0, 11);
    let computed = [
        ("er-2048", hash(&er, PhasedGreedy::new(&er))),
        ("ba-2048-16", hash(&ba, PhasedGreedy::new(&ba))),
        ("complete-70", hash(&clique, PhasedGreedy::new(&clique))),
        ("star-200", hash(&star, PhasedGreedy::new(&star))),
        (
            "er-600-distributed",
            hash(&distributed, PhasedGreedy::with_distributed_init(&distributed, 101)),
        ),
    ];
    let expected: [(&str, u64); 5] = [
        ("er-2048", 0xfb5737f77a2d0ca7),
        ("ba-2048-16", 0x65c385c3f4449664),
        ("complete-70", 0xa64d2c199baf78ea),
        ("star-200", 0xc0b68f69b506f9c6),
        ("er-600-distributed", 0xbaf2af49d6016011),
    ];
    if computed != expected {
        let table: String = computed
            .iter()
            .map(|(name, h)| format!("        (\"{name}\", {h:#018x}),\n"))
            .collect();
        panic!("PhasedGreedy outputs moved; computed:\n{table}");
    }
}
