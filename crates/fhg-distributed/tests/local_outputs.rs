//! Every LOCAL-model output, pinned per seed.
//!
//! The three distributed algorithms are deterministic per seed: each node
//! draws from its own `ChaCha8` stream, and the simulator delivers messages
//! in sender order.  This file pins their complete outputs, statistics
//! included, as FNV-1a hashes recorded before the simulator stepped a
//! worklist into a flat inbox.  Any change to the simulator or a protocol
//! that moves one colour, one slot, one MIS member, one round or one
//! message count fails here.
//!
//! Hashed per `(graph, seed)`:
//! - `distributed_slot_assignment`: slots, phases, rounds, messages,
//!   completed;
//! - `johansson_coloring`: colours and statistics;
//! - `luby_mis`: membership and statistics.

use fhg_distributed::{
    distributed_slot_assignment, johansson_coloring, list_coloring, luby_mis, ExecutionStats,
};
use fhg_graph::generators::structured::{complete, path, star};
use fhg_graph::generators::Family;
use fhg_graph::Graph;

const SEEDS: [u64; 2] = [0, 7];

/// The random families pinned at each size, with their case labels.
const FAMILIES: [(Family, &str); 4] = [
    (Family::ErdosRenyi, "er"),
    (Family::UnitDisk, "disk"),
    (Family::BarabasiAlbert, "ba"),
    (Family::BipartiteVillages, "villages"),
];

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

    fn stats(&mut self, s: &ExecutionStats) {
        self.word(s.rounds);
        self.word(s.messages);
        self.word(u64::from(s.completed));
    }
}

fn rounds_budget(n: usize) -> u64 {
    64 + 40 * (n.max(2) as f64).log2().ceil() as u64
}

/// `[slot assignment, Johansson colouring, Luby MIS]` hashes of one run.
fn hashes(graph: &Graph, seed: u64) -> [u64; 3] {
    let slots = distributed_slot_assignment(graph, seed);
    let mut h = Fnv::new();
    slots.slots.iter().for_each(|&x| h.word(x));
    h.word(u64::from(slots.phases));
    h.stats(&slots.stats);
    let slot_hash = h.0;

    let (coloring, stats) = johansson_coloring(graph, seed);
    let mut h = Fnv::new();
    coloring.as_slice().iter().for_each(|&c| h.word(u64::from(c)));
    h.stats(&stats);
    let coloring_hash = h.0;

    let mis = luby_mis(graph, seed, rounds_budget(graph.node_count()));
    let mut h = Fnv::new();
    mis.in_mis.iter().for_each(|&m| h.word(u64::from(m)));
    h.stats(&mis.stats);
    [slot_hash, coloring_hash, h.0]
}

/// Checks every `(case, seed)` against `expected`, reporting the whole
/// computed table on a mismatch.
fn check(cases: &[(String, Graph)], expected: &[(&str, u64, [u64; 3])]) {
    let computed: Vec<(String, u64, [u64; 3])> = cases
        .iter()
        .flat_map(|(name, g)| SEEDS.iter().map(move |&s| (name.clone(), s, hashes(g, s))))
        .collect();
    if !computed.iter().map(|(name, s, h)| (name.as_str(), *s, *h)).eq(expected.iter().copied()) {
        let table: String = computed
            .iter()
            .map(|(name, s, [a, b, c])| {
                format!("    (\"{name}\", {s}, [{a:#018x}, {b:#018x}, {c:#018x}]),\n")
            })
            .collect();
        panic!("LOCAL outputs moved; computed:\n{table}");
    }
}

fn family_cases(n: usize, degree: f64) -> Vec<(String, Graph)> {
    FAMILIES.iter().map(|&(f, label)| (format!("{label}-{n}"), f.generate(n, degree, 1))).collect()
}

#[test]
fn small_graphs_are_pinned() {
    let cases = vec![
        ("star-50".to_string(), star(50)),
        ("complete-12".to_string(), complete(12)),
        ("path-40".to_string(), path(40)),
        ("edgeless-25".to_string(), Graph::new(25)),
    ];
    check(
        &cases,
        &[
            ("star-50", 0, [0x0e508d50b3992952, 0x3d5e560c725d08e5, 0xe99baf38753b9d0d]),
            ("star-50", 7, [0x492cd70189dd334a, 0x1f9ad99348044fc2, 0x545b851990b20c0c]),
            ("complete-12", 0, [0x9bf074467baa0be3, 0x17b97811d834217f, 0xfc666d1f835cd7a0]),
            ("complete-12", 7, [0x2d70a8aa75162f83, 0x58b93587ce0ef04c, 0xc5b9c0d2bd9bc9c0]),
            ("path-40", 0, [0x94c1d0349b5ae540, 0xa477b1ebc1eef0f0, 0x7e19d5ed8caa62b6]),
            ("path-40", 7, [0x1d48594cac69c41e, 0xa2734b443d8b65bd, 0xb004c1ac922f78bf]),
            ("edgeless-25", 0, [0xc787a0c9765649a7, 0x13677ed433c58987, 0xaeca4786607d0ae4]),
            ("edgeless-25", 7, [0xc787a0c9765649a7, 0x13677ed433c58987, 0xaeca4786607d0ae4]),
        ],
    );
}

#[test]
fn families_at_300_are_pinned() {
    check(
        &family_cases(300, 3.0),
        &[
            ("er-300", 0, [0x0d99416ab6e122dc, 0xcd090bc75765c104, 0x72179d9abe0ff7ae]),
            ("er-300", 7, [0x14d970e5535ab39c, 0x307a716b84fe5c9d, 0x8911aabc18cc44e1]),
            ("disk-300", 0, [0xcf10941e2a4080d4, 0xf96b2ca2cbbc610a, 0x72f21a5a0a35ca5c]),
            ("disk-300", 7, [0x71f5de558597f1eb, 0x6bde7bbc6fc86122, 0x8d099e1c0f43e687]),
            ("ba-300", 0, [0x79381669c5d26493, 0xb6f79ff296eb657e, 0xc259755e148b3067]),
            ("ba-300", 7, [0x2f605d23b4503427, 0xdd77d4c8bb708fa4, 0x1132fb3969f2c000]),
            ("villages-300", 0, [0x886c6233b6c05736, 0x890648215d662081, 0x33de81d7ce90e639]),
            ("villages-300", 7, [0xc8b29042b726dff9, 0x6aacd9fa2e9f3d42, 0xbc76fd508f4ef121]),
        ],
    );
}

#[test]
fn families_at_2048_are_pinned() {
    check(
        &family_cases(2048, 8.0),
        &[
            ("er-2048", 0, [0xf8b6d0d68c1250d3, 0xac442e4998d37c41, 0xa180056a63e1615d]),
            ("er-2048", 7, [0x064ea3deb56d4fc3, 0xbbb73a7d933d128b, 0xc90e72844d4acee6]),
            ("disk-2048", 0, [0x64e8461531c42dc8, 0x1433a0a53616cee6, 0xa51a7e27e4187ea5]),
            ("disk-2048", 7, [0x33cadd18d5c751f0, 0x2cc341753e049a64, 0x4c4f0f3720ea65dd]),
            ("ba-2048", 0, [0xeeaa8e48375264d4, 0xd9ac0e2d01e2e7e5, 0xa16089d203155714]),
            ("ba-2048", 7, [0x199a60a608892254, 0xb8f7ed78d1e0ce37, 0x4c1e943805eeec7b]),
            ("villages-2048", 0, [0x84f5d2fe7280e2de, 0xa888709d5e54c3a0, 0xabefa4ce002aae41]),
            ("villages-2048", 7, [0x764c8508e4c5ba08, 0x15533e470a1343ce, 0x96e033fa5194982e]),
        ],
    );
}

#[test]
fn families_at_4096_are_pinned() {
    check(
        &family_cases(4096, 32.0),
        &[
            ("er-4096", 0, [0x81c0a28d3a28387d, 0xdeaa2f255b46a49c, 0x6367dabde063a593]),
            ("er-4096", 7, [0x7f818c7c2c62627c, 0x8dc32b8cdd6593e0, 0x78445ecbbd8aa30f]),
            ("disk-4096", 0, [0xfb4ecd6514bd1213, 0xd02164f01d1f5672, 0x4ed9ef57bd4d1f35]),
            ("disk-4096", 7, [0xc2d94ba1423df047, 0x9e58648c2ebfcebe, 0x7dafd4b53153fdd5]),
            ("ba-4096", 0, [0xe615eb878c5571c2, 0xc3c6a99fa086a38b, 0x0f2771e46c97b6d1]),
            ("ba-4096", 7, [0x392809a10f6eac0b, 0xcb021603d7fa2f8f, 0xf08e9f8042b16dec]),
            ("villages-4096", 0, [0x4c580758d898ce85, 0xe4621c129bb922e6, 0xfe564f981f4c00ab]),
            ("villages-4096", 7, [0xb3cbc04a2109323d, 0x9f33d441bb316ebc, 0x3172cf88cac0576b]),
        ],
    );
}

/// Two-colour palettes on a 6-clique cannot all decide: the run stops at
/// its round limit and reports `completed: false`.
#[test]
fn round_limit_is_pinned() {
    let g = complete(6);
    let mut computed = Vec::new();
    for seed in SEEDS {
        let outcome = list_coloring(&g, vec![vec![1, 2]; 6], seed, 40);
        assert!(!outcome.stats.completed);
        assert_eq!(outcome.stats.rounds, 40);
        let mut h = Fnv::new();
        outcome.colors.iter().for_each(|c| h.word(c.unwrap_or(u64::MAX)));
        h.stats(&outcome.stats);
        computed.push(h.0);
    }
    assert_eq!(computed, [0x76af_ef1c_7bef_45f2; 2], "computed {computed:#018x?}");
}
