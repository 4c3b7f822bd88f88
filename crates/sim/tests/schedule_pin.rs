//! Pins the schedules the simulator produces across its configuration
//! matrix, so an optimisation of the engine cannot silently change what it
//! schedules.
//!
//! The matrix: the five schemes × {no backfilling, EASY, conservative} ×
//! defragmentation off/on × two runtime models (exact estimates; 3×
//! over-estimates plus node failures that kill running jobs) × four
//! 120-job workloads (Synth, DAG pipelines, DAG fork/join groups, and the
//! advance-reservation mix) on the radix-8 tree (128 nodes): 240 cells.
//! Each cell is pinned by one FNV-1a hash over every job's `(start, end,
//! granted)` plus the run's migration and missed-reservation counts.
//!
//! The goldens were recorded at the commit before the engine gained its
//! per-epoch probe memo and its dense running-allocation set (DESIGN §13
//! "Epoch memo"), so they pin the schedules of the engine without either.
//! On a mismatch the failure message lists every cell's current hash in
//! the golden table's format.

use jigsaw_core::defrag::DefragConfig;
use jigsaw_core::Scheme;
use jigsaw_sim::{BackfillPolicy, EstimateModel, FailureModel, SimConfig, SimResult, Simulation};
use jigsaw_topology::FatTree;
use jigsaw_traces::workload::{dag_fanout, dag_pipeline, reserved_mix};
use jigsaw_traces::{synth::synth, Trace};

const RADIX: u32 = 8;
const JOBS: usize = 120;
const SEED: u64 = 2021;
const MEAN_SIZE: u32 = 8;

/// FNV-1a over the little-endian bytes of each word.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn schedule_hash(r: &SimResult) -> u64 {
    fnv1a(
        r.jobs
            .iter()
            .flat_map(|j| [j.start.to_bits(), j.end.to_bits(), u64::from(j.granted)])
            .chain([r.migrations, u64::from(r.reservations_missed)]),
    )
}

fn workloads() -> [(&'static str, Trace); 4] {
    [
        ("synth", synth(MEAN_SIZE, JOBS, SEED)),
        ("dag_pipeline", dag_pipeline(MEAN_SIZE, JOBS, SEED)),
        ("dag_fanout", dag_fanout(MEAN_SIZE, JOBS, SEED)),
        ("reserved_mix", reserved_mix(MEAN_SIZE, JOBS, SEED)),
    ]
}

/// The two runtime models: exact estimates on a reliable machine, and 3×
/// over-estimates on a machine losing a node every ~400 s.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Model {
    Exact,
    OverAndFailures,
}

impl Model {
    fn apply(self, config: SimConfig) -> SimConfig {
        match self {
            Model::Exact => config,
            Model::OverAndFailures => SimConfig {
                estimates: EstimateModel::Over { max_factor: 3.0 },
                failures: FailureModel::Random {
                    mtbf_node_seconds: 51_200.0,
                    repair_seconds: 600.0,
                },
                ..config
            },
        }
    }
}

/// The lookahead window, and for conservative backfilling the reservation
/// depth: 5 rather than the paper's 50 for conservative (as in the
/// `sim_conservative` benchmark), whose clone-and-replay planning would
/// otherwise take minutes in a debug build.
fn window(policy: BackfillPolicy) -> usize {
    match policy {
        BackfillPolicy::Conservative => 5,
        BackfillPolicy::None | BackfillPolicy::Easy => 50,
    }
}

/// Run the 40 cells of one policy and runtime model, in a fixed order
/// (scheme, then defragmentation off/on, then workload), and compare each
/// against `golden`.
fn check(policy: BackfillPolicy, model: Model, golden: &[u64; 40]) {
    let tree = FatTree::maximal(RADIX).unwrap();
    let traces = workloads();
    let mut got = Vec::new();
    let mut killed = 0;
    for scheme in Scheme::ALL {
        for defrag in [false, true] {
            for (name, trace) in &traces {
                let config = model.apply(SimConfig {
                    policy,
                    scenario_seed: SEED,
                    backfill_window: window(policy),
                    defrag: defrag.then(DefragConfig::default),
                    migration_cost_per_node: if defrag { 30.0 } else { 0.0 },
                    ..SimConfig::default()
                });
                let r = Simulation::new(&tree, trace)
                    .scheme(scheme)
                    .config(config)
                    .run();
                killed += r.killed_jobs;
                let label = format!(
                    "{scheme}/{}/{name}",
                    if defrag { "defrag" } else { "plain" }
                );
                got.push((label, schedule_hash(&r)));
            }
        }
    }
    assert_eq!(
        killed > 0,
        model == Model::OverAndFailures,
        "only the failure model kills jobs"
    );
    let wrong: Vec<&str> = got
        .iter()
        .zip(golden)
        .filter(|((_, h), g)| h != *g)
        .map(|((label, _), _)| label.as_str())
        .collect();
    if !wrong.is_empty() {
        let table: String = got
            .iter()
            .map(|(label, h)| format!("    {h:#018x}, // {label}\n"))
            .collect();
        panic!(
            "{} of 40 {policy:?}/{model:?} schedules changed: {wrong:?}\ncurrent hashes:\n{table}",
            wrong.len()
        );
    }
}

#[test]
fn fifo_exact_schedules_are_pinned() {
    check(BackfillPolicy::None, Model::Exact, &GOLDEN_FIFO_EXACT);
}

#[test]
fn fifo_faulty_schedules_are_pinned() {
    check(
        BackfillPolicy::None,
        Model::OverAndFailures,
        &GOLDEN_FIFO_FAULTY,
    );
}

#[test]
fn easy_exact_schedules_are_pinned() {
    check(BackfillPolicy::Easy, Model::Exact, &GOLDEN_EASY_EXACT);
}

#[test]
fn easy_faulty_schedules_are_pinned() {
    check(
        BackfillPolicy::Easy,
        Model::OverAndFailures,
        &GOLDEN_EASY_FAULTY,
    );
}

#[test]
fn conservative_exact_schedules_are_pinned() {
    check(
        BackfillPolicy::Conservative,
        Model::Exact,
        &GOLDEN_CONSERVATIVE_EXACT,
    );
}

#[test]
fn conservative_faulty_schedules_are_pinned() {
    check(
        BackfillPolicy::Conservative,
        Model::OverAndFailures,
        &GOLDEN_CONSERVATIVE_FAULTY,
    );
}

const GOLDEN_FIFO_EXACT: [u64; 40] = [
    0x735d2710c6f0dce5, // Baseline/plain/synth
    0x7d1e6a5ca910fafa, // Baseline/plain/dag_pipeline
    0xf8ab1aae65d00be7, // Baseline/plain/dag_fanout
    0x2e7f550f674fa297, // Baseline/plain/reserved_mix
    0x735d2710c6f0dce5, // Baseline/defrag/synth
    0x7d1e6a5ca910fafa, // Baseline/defrag/dag_pipeline
    0xf8ab1aae65d00be7, // Baseline/defrag/dag_fanout
    0x2e7f550f674fa297, // Baseline/defrag/reserved_mix
    0x100c110cb5426037, // LC+S/plain/synth
    0x619b74315f33edfa, // LC+S/plain/dag_pipeline
    0x1538bf1e8d70c532, // LC+S/plain/dag_fanout
    0xae4aa50d40582984, // LC+S/plain/reserved_mix
    0x770f2de058f5a407, // LC+S/defrag/synth
    0x1d678a461b303871, // LC+S/defrag/dag_pipeline
    0x3690e34e3d03e752, // LC+S/defrag/dag_fanout
    0x1a2f52fb070cf494, // LC+S/defrag/reserved_mix
    0x95d48ef134d40c1a, // Jigsaw/plain/synth
    0x464fe1f962490cdb, // Jigsaw/plain/dag_pipeline
    0xadc41ab89fbaaa50, // Jigsaw/plain/dag_fanout
    0x8582e5fff43117d2, // Jigsaw/plain/reserved_mix
    0x18258b5e8ae689dd, // Jigsaw/defrag/synth
    0x8d612f49882ffc58, // Jigsaw/defrag/dag_pipeline
    0xa3b387112bac65cf, // Jigsaw/defrag/dag_fanout
    0x1614b5d8b51524e1, // Jigsaw/defrag/reserved_mix
    0xa67a0cb697b8bdf8, // LaaS/plain/synth
    0xa6952d06ffb0212e, // LaaS/plain/dag_pipeline
    0x5c2f91a5091ac267, // LaaS/plain/dag_fanout
    0x58357d25f5715f9a, // LaaS/plain/reserved_mix
    0x22a5bd0f624abaa4, // LaaS/defrag/synth
    0x331f4bf33972df2f, // LaaS/defrag/dag_pipeline
    0x9403a0609522f27f, // LaaS/defrag/dag_fanout
    0x7c00fda509c93969, // LaaS/defrag/reserved_mix
    0xc94484ef0192db65, // TA/plain/synth
    0x4cbe5c824629f9fc, // TA/plain/dag_pipeline
    0x1705e72cc85e0936, // TA/plain/dag_fanout
    0xff145a4a4ee819c2, // TA/plain/reserved_mix
    0xff725d5c8a35db76, // TA/defrag/synth
    0x1dea593f90904e62, // TA/defrag/dag_pipeline
    0x8576b2192302958f, // TA/defrag/dag_fanout
    0xd779007966e91442, // TA/defrag/reserved_mix
];
const GOLDEN_FIFO_FAULTY: [u64; 40] = [
    0x15a6339f90ecf620, // Baseline/plain/synth
    0x20e66064fe42beeb, // Baseline/plain/dag_pipeline
    0xa84a899202a74fd0, // Baseline/plain/dag_fanout
    0x5dee1cc5885bcb9e, // Baseline/plain/reserved_mix
    0x15a6339f90ecf620, // Baseline/defrag/synth
    0x20e66064fe42beeb, // Baseline/defrag/dag_pipeline
    0xa84a899202a74fd0, // Baseline/defrag/dag_fanout
    0x5dee1cc5885bcb9e, // Baseline/defrag/reserved_mix
    0xd6ae3b39b3efd8eb, // LC+S/plain/synth
    0x8b9a1d58425160f1, // LC+S/plain/dag_pipeline
    0x5c4add139af31085, // LC+S/plain/dag_fanout
    0x8059f63b3a1a164b, // LC+S/plain/reserved_mix
    0xbf4de1c64197fb6d, // LC+S/defrag/synth
    0x71c0cb1bd12a82d3, // LC+S/defrag/dag_pipeline
    0x9f0cd87b73f1d480, // LC+S/defrag/dag_fanout
    0x8d329fdc64bc44fb, // LC+S/defrag/reserved_mix
    0xfa44c907eb34c5e2, // Jigsaw/plain/synth
    0x0da51e976a66cccf, // Jigsaw/plain/dag_pipeline
    0x5b1b3cac860ac63b, // Jigsaw/plain/dag_fanout
    0x89cc761bf4492009, // Jigsaw/plain/reserved_mix
    0x19474c7635bccdf1, // Jigsaw/defrag/synth
    0x7bfca7983fbc0435, // Jigsaw/defrag/dag_pipeline
    0x6faec86ebb5162db, // Jigsaw/defrag/dag_fanout
    0xe9af969a9c19f142, // Jigsaw/defrag/reserved_mix
    0x28e20ce54b67eedc, // LaaS/plain/synth
    0x1f77728fc6b5bf3d, // LaaS/plain/dag_pipeline
    0x57f920fdabb29dc3, // LaaS/plain/dag_fanout
    0xb08da9c2fc1b61da, // LaaS/plain/reserved_mix
    0xb830148ee1cac0d9, // LaaS/defrag/synth
    0x018aae46da634263, // LaaS/defrag/dag_pipeline
    0x5389383f529a43cd, // LaaS/defrag/dag_fanout
    0x8ebaf9e617816c0f, // LaaS/defrag/reserved_mix
    0xcbaf32d6bed365ae, // TA/plain/synth
    0x063b30dc9596c00b, // TA/plain/dag_pipeline
    0xd34c51f8c4cab790, // TA/plain/dag_fanout
    0x28c2b22e663a6ec1, // TA/plain/reserved_mix
    0x5de6c9f7ed6adabd, // TA/defrag/synth
    0x52407ce533607d9a, // TA/defrag/dag_pipeline
    0xbe46b3f5cd1ac467, // TA/defrag/dag_fanout
    0xa52911d73a9425da, // TA/defrag/reserved_mix
];
const GOLDEN_EASY_EXACT: [u64; 40] = [
    0xde378f0b49a7a3e0, // Baseline/plain/synth
    0x69bff001075946a2, // Baseline/plain/dag_pipeline
    0x3648fc18f19b10c5, // Baseline/plain/dag_fanout
    0x65cc49e9badc47b1, // Baseline/plain/reserved_mix
    0xde378f0b49a7a3e0, // Baseline/defrag/synth
    0x69bff001075946a2, // Baseline/defrag/dag_pipeline
    0x3648fc18f19b10c5, // Baseline/defrag/dag_fanout
    0x65cc49e9badc47b1, // Baseline/defrag/reserved_mix
    0x8399333cc77852a7, // LC+S/plain/synth
    0x50033e2eaf6044b5, // LC+S/plain/dag_pipeline
    0x25ce443082e24e93, // LC+S/plain/dag_fanout
    0x45502d1fefb8352f, // LC+S/plain/reserved_mix
    0x46f5ee6d3071b734, // LC+S/defrag/synth
    0x355a020d7b0339ea, // LC+S/defrag/dag_pipeline
    0xac051ffd28a7f262, // LC+S/defrag/dag_fanout
    0x130313aff3b2ef46, // LC+S/defrag/reserved_mix
    0x3055b01a12a586eb, // Jigsaw/plain/synth
    0xe6140b8a15c22fbf, // Jigsaw/plain/dag_pipeline
    0x21196cbf788c432a, // Jigsaw/plain/dag_fanout
    0x91893835e1e67e51, // Jigsaw/plain/reserved_mix
    0xecc59bc80d24648b, // Jigsaw/defrag/synth
    0x2c7c36d08745dfe2, // Jigsaw/defrag/dag_pipeline
    0x92761b1677432b78, // Jigsaw/defrag/dag_fanout
    0xcee6e7311edaccc5, // Jigsaw/defrag/reserved_mix
    0xea78f2a4dc550a0e, // LaaS/plain/synth
    0x5dc2a580d08e758e, // LaaS/plain/dag_pipeline
    0x22a5fb7db4149dd3, // LaaS/plain/dag_fanout
    0xc26fdc83c92bce4b, // LaaS/plain/reserved_mix
    0x8c344f2b01bcc8b7, // LaaS/defrag/synth
    0x7b2c6cc274975b13, // LaaS/defrag/dag_pipeline
    0xdb1007f3143756a5, // LaaS/defrag/dag_fanout
    0x453226c0b090c204, // LaaS/defrag/reserved_mix
    0xeb8eda5db71445f1, // TA/plain/synth
    0x92fca19b1c4e4383, // TA/plain/dag_pipeline
    0xe49e278f4f4cf8d8, // TA/plain/dag_fanout
    0xc63bb494307c07fb, // TA/plain/reserved_mix
    0xb17f024341c15762, // TA/defrag/synth
    0xf61653b68eb2c5ed, // TA/defrag/dag_pipeline
    0xb4b1d70170c1336c, // TA/defrag/dag_fanout
    0x57f8fc1e39650f24, // TA/defrag/reserved_mix
];
const GOLDEN_EASY_FAULTY: [u64; 40] = [
    0xc8ee1e8f5e0d154a, // Baseline/plain/synth
    0x919301298e4a6713, // Baseline/plain/dag_pipeline
    0x04434e8a8b2ef193, // Baseline/plain/dag_fanout
    0x46aae0d72556768b, // Baseline/plain/reserved_mix
    0xc8ee1e8f5e0d154a, // Baseline/defrag/synth
    0x919301298e4a6713, // Baseline/defrag/dag_pipeline
    0x04434e8a8b2ef193, // Baseline/defrag/dag_fanout
    0x46aae0d72556768b, // Baseline/defrag/reserved_mix
    0x1a4d625976cd5ba4, // LC+S/plain/synth
    0xf57854f9ca9862ca, // LC+S/plain/dag_pipeline
    0xb255a4736229f328, // LC+S/plain/dag_fanout
    0x74205eedac68d3f1, // LC+S/plain/reserved_mix
    0x5fc13e50b145f34e, // LC+S/defrag/synth
    0x1e7ce5e789e55a50, // LC+S/defrag/dag_pipeline
    0xe8008884de8566d1, // LC+S/defrag/dag_fanout
    0xada06e991776cddc, // LC+S/defrag/reserved_mix
    0xed7c75e6f7bbe698, // Jigsaw/plain/synth
    0xa129865a6bedb9d5, // Jigsaw/plain/dag_pipeline
    0xe5523acf0dac5514, // Jigsaw/plain/dag_fanout
    0x8f08d375aec46433, // Jigsaw/plain/reserved_mix
    0x44b2d7023d3803dd, // Jigsaw/defrag/synth
    0xc2bfd12d7a17100c, // Jigsaw/defrag/dag_pipeline
    0x77ad06efa1e30190, // Jigsaw/defrag/dag_fanout
    0xb5e4396987794627, // Jigsaw/defrag/reserved_mix
    0x2d20ebb7e5ca112c, // LaaS/plain/synth
    0xe8dec7eca0f0a769, // LaaS/plain/dag_pipeline
    0x18bf5a7a2ec6fa2d, // LaaS/plain/dag_fanout
    0x003b34e0595cd02b, // LaaS/plain/reserved_mix
    0xaf0463069c11b9fb, // LaaS/defrag/synth
    0x0c8d1fb70030ff1d, // LaaS/defrag/dag_pipeline
    0x0560a77eeb292db6, // LaaS/defrag/dag_fanout
    0x866de36f4abb2260, // LaaS/defrag/reserved_mix
    0x58e687b8fe70a8e8, // TA/plain/synth
    0x44b9bc3aad8ea924, // TA/plain/dag_pipeline
    0xd11d39ac4e273491, // TA/plain/dag_fanout
    0x0e1397f2d4c33b97, // TA/plain/reserved_mix
    0x72850a09e4ad9ac6, // TA/defrag/synth
    0x4277cfd3ed43a04a, // TA/defrag/dag_pipeline
    0xe7957a155faef66c, // TA/defrag/dag_fanout
    0x9a5f7c100858beef, // TA/defrag/reserved_mix
];
const GOLDEN_CONSERVATIVE_EXACT: [u64; 40] = [
    0x56966f5662e89d60, // Baseline/plain/synth
    0x89deed80f2f49256, // Baseline/plain/dag_pipeline
    0x76368ea6469e86b5, // Baseline/plain/dag_fanout
    0xed0f3bc3af77a3db, // Baseline/plain/reserved_mix
    0x56966f5662e89d60, // Baseline/defrag/synth
    0x89deed80f2f49256, // Baseline/defrag/dag_pipeline
    0x76368ea6469e86b5, // Baseline/defrag/dag_fanout
    0xed0f3bc3af77a3db, // Baseline/defrag/reserved_mix
    0x7b79fe1e1c1232d5, // LC+S/plain/synth
    0xc1d7454529d32ab9, // LC+S/plain/dag_pipeline
    0x7e4afe5d0c905bfb, // LC+S/plain/dag_fanout
    0x1abe1a09b95163b0, // LC+S/plain/reserved_mix
    0x5234b50824d9a93d, // LC+S/defrag/synth
    0x3b02b9297cc4435d, // LC+S/defrag/dag_pipeline
    0x902a2e3e861f9eaa, // LC+S/defrag/dag_fanout
    0x827b946e25b2985c, // LC+S/defrag/reserved_mix
    0xe22d30535ec14a14, // Jigsaw/plain/synth
    0xc5cc912d1bd2ad31, // Jigsaw/plain/dag_pipeline
    0x6d94837cf294c750, // Jigsaw/plain/dag_fanout
    0x9f314f08feefc134, // Jigsaw/plain/reserved_mix
    0x37a3af997f0ed913, // Jigsaw/defrag/synth
    0xbdd1c92e96ab50f6, // Jigsaw/defrag/dag_pipeline
    0x2eb9be3e0384b98f, // Jigsaw/defrag/dag_fanout
    0xafbd836e27532553, // Jigsaw/defrag/reserved_mix
    0x835c9ffb6769423e, // LaaS/plain/synth
    0x802b3b21f5df11b1, // LaaS/plain/dag_pipeline
    0xee025946b1dc21a6, // LaaS/plain/dag_fanout
    0x2dd548a19faebda4, // LaaS/plain/reserved_mix
    0x9bd0a4a48b357fd6, // LaaS/defrag/synth
    0x883f99cd5882f2ab, // LaaS/defrag/dag_pipeline
    0xe95994473b2d2bbe, // LaaS/defrag/dag_fanout
    0xa29ced639cb7902d, // LaaS/defrag/reserved_mix
    0x39901b2cb5fca1f9, // TA/plain/synth
    0x97437a56c114ac0e, // TA/plain/dag_pipeline
    0x33b3c7de6c49c7c2, // TA/plain/dag_fanout
    0xf304405a673c7888, // TA/plain/reserved_mix
    0x1f1f46b63dfa6b59, // TA/defrag/synth
    0x54c782d41fba8ba7, // TA/defrag/dag_pipeline
    0x59750447f916d22d, // TA/defrag/dag_fanout
    0xb0a882b68e11ca68, // TA/defrag/reserved_mix
];
const GOLDEN_CONSERVATIVE_FAULTY: [u64; 40] = [
    0x3e66d87d0cd647c1, // Baseline/plain/synth
    0x48bebde66d6329d7, // Baseline/plain/dag_pipeline
    0x73282458c88facb9, // Baseline/plain/dag_fanout
    0xef12d852503cd345, // Baseline/plain/reserved_mix
    0x3e66d87d0cd647c1, // Baseline/defrag/synth
    0x48bebde66d6329d7, // Baseline/defrag/dag_pipeline
    0x73282458c88facb9, // Baseline/defrag/dag_fanout
    0xef12d852503cd345, // Baseline/defrag/reserved_mix
    0x957c7779fa707de4, // LC+S/plain/synth
    0x40a0969504f486e8, // LC+S/plain/dag_pipeline
    0x86dc5741b5351f35, // LC+S/plain/dag_fanout
    0xc06f55e51024910a, // LC+S/plain/reserved_mix
    0x3fcfa8f320991fd0, // LC+S/defrag/synth
    0xd548d4af73e6b823, // LC+S/defrag/dag_pipeline
    0xdbf3d87465abcff7, // LC+S/defrag/dag_fanout
    0xb5b86ff4caee931c, // LC+S/defrag/reserved_mix
    0x1aacc0214ed04982, // Jigsaw/plain/synth
    0xb3ea49eeb55d08eb, // Jigsaw/plain/dag_pipeline
    0xc3c89a9e0d4172cc, // Jigsaw/plain/dag_fanout
    0x690af14d30f4d0ce, // Jigsaw/plain/reserved_mix
    0xac0ba0897a1906c7, // Jigsaw/defrag/synth
    0x3de5ed165f27dfdd, // Jigsaw/defrag/dag_pipeline
    0xed772c96c209a1b8, // Jigsaw/defrag/dag_fanout
    0x43fd9740d445ef05, // Jigsaw/defrag/reserved_mix
    0x3257148fdd45f5f5, // LaaS/plain/synth
    0x4f1fe6048189cae9, // LaaS/plain/dag_pipeline
    0x0c1fe186509ce238, // LaaS/plain/dag_fanout
    0x272616a3235c3ebc, // LaaS/plain/reserved_mix
    0x423d6b4db1f9d3f8, // LaaS/defrag/synth
    0x21252b347aa90f3f, // LaaS/defrag/dag_pipeline
    0x34a7de3138d0af1b, // LaaS/defrag/dag_fanout
    0xb9aded400a731bbf, // LaaS/defrag/reserved_mix
    0xd14e1a20a98be5b8, // TA/plain/synth
    0xdbda4fb34610eb23, // TA/plain/dag_pipeline
    0xe65e8640b1c5e452, // TA/plain/dag_fanout
    0x461e627cb8dd1752, // TA/plain/reserved_mix
    0x932b2d7392e0d7e5, // TA/defrag/synth
    0xd939d94e4611cea4, // TA/defrag/dag_pipeline
    0xd91f56e8a01c1914, // TA/defrag/dag_fanout
    0x449e8abd5e1adf9c, // TA/defrag/reserved_mix
];
