//! Golden digests of every generated input matrix.
//!
//! Every experiment, benchmark pass and daemon job regenerates its
//! matrices from seeds, so a generator change that moves one coordinate
//! or one value bit moves every cycle count downstream of it. Each entry
//! pins the FNV-1a digest of a matrix's dimensions, `row_ptr`, `col_idx`
//! and value bits:
//!
//! * the sixteen Table 3 specifications at 1/1024 and 1/256 scale,
//! * the fifteen Table 4 stand-ins at 1/1024 and 1/64 scale,
//! * direct calls of the four generators on edge shapes: dimensions that
//!   are not powers of two, a 1x1 matrix, and completely dense matrices.
//!
//! Changing a digest is a deliberate edit: it re-baselines every recorded
//! cycle count, so it needs a CHANGES.md line. On a mismatch the failure
//! message lists every entry's current digest in this file's format.

use menda_sparse::gen::{self, RmatParams};
use menda_sparse::rng::StdRng;
use menda_sparse::CsrMatrix;

/// Generator seed of every Table 3 and Table 4 entry.
const SEED: u64 = 0x5EED_0003;

/// FNV-1a over the matrix's dimensions, `row_ptr`, `col_idx` and the
/// bits of its values, each word little-endian.
fn digest(m: &CsrMatrix) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    feed(&(m.nrows() as u64).to_le_bytes());
    feed(&(m.ncols() as u64).to_le_bytes());
    for &p in m.row_ptr() {
        feed(&(p as u64).to_le_bytes());
    }
    for &c in m.col_idx() {
        feed(&c.to_le_bytes());
    }
    for &v in m.values() {
        feed(&v.to_bits().to_le_bytes());
    }
    h
}

/// Compares `cases` against `golden` entry by entry, failing with the
/// full table of current digests if any differ.
fn check(golden: &[(&str, u64)], cases: Vec<(String, CsrMatrix)>) {
    let mut mismatches = Vec::new();
    let mut table = String::new();
    for (i, (name, m)) in cases.iter().enumerate() {
        let got = digest(m);
        table.push_str(&format!("    (\"{name}\", 0x{got:016x}),\n"));
        match golden.get(i) {
            Some(&(n, want)) if n == name && want == got => {}
            Some(&(n, want)) => {
                mismatches.push(format!("{n}: want 0x{want:016x}, got {name} 0x{got:016x}"))
            }
            None => mismatches.push(format!("{name}: no golden entry")),
        }
    }
    if golden.len() > cases.len() {
        mismatches.push(format!(
            "{} stale golden entries",
            golden.len() - cases.len()
        ));
    }
    assert!(
        mismatches.is_empty(),
        "generated matrices changed:\n{}\ncurrent digests:\n{table}",
        mismatches.join("\n")
    );
}

const TABLE3_GOLDEN: &[(&str, u64)] = &[
    ("N1@1024", 0x7c4285f848cebcdd),
    ("N2@1024", 0xff8c8da3e9bd8b10),
    ("N3@1024", 0x2398aabf7981364c),
    ("N4@1024", 0x7452c31dcb51cee8),
    ("N5@1024", 0x8cc08d14917f6889),
    ("N6@1024", 0xd3944644a0f7d090),
    ("N7@1024", 0x42015ac0575b7cb7),
    ("N8@1024", 0x24f5cac1c43452ce),
    ("P1@1024", 0x53372ddfa20ab89b),
    ("P2@1024", 0x20ae553913aeaf63),
    ("P3@1024", 0xb150036157e7304a),
    ("P4@1024", 0xd021cfff06899a69),
    ("P5@1024", 0x0aa12ed854a11d34),
    ("P6@1024", 0x59f98dfe77d86280),
    ("P7@1024", 0xc66372654a1b79f5),
    ("P8@1024", 0xe7ca20c4f6e78437),
    ("N1@256", 0x08a447c665c04c9d),
    ("N2@256", 0x2766d23878eac6de),
    ("N3@256", 0xd2d92e73bfe990dd),
    ("N4@256", 0x9566cbecf60600c4),
    ("N5@256", 0x0369ad9cdbbfe334),
    ("N6@256", 0x2b2fb5bfb4c80b34),
    ("N7@256", 0x86bd8b60b1844866),
    ("N8@256", 0x1fd622f9481641d0),
    ("P1@256", 0xc9d1c2a909ff7976),
    ("P2@256", 0xed5d24c7bfadccaf),
    ("P3@256", 0xa1783d6c7b7648d1),
    ("P4@256", 0x418d414f779253b9),
    ("P5@256", 0xb28e1a72e6274c93),
    ("P6@256", 0x9614b214efd03f3a),
    ("P7@256", 0x11b8dade95fa0d0a),
    ("P8@256", 0x9f64af1fd1d65a7e),
];

const TABLE4_GOLDEN: &[(&str, u64)] = &[
    ("amazon@1024", 0x84e4f3b93df7a2bc),
    ("ASIC_320K@1024", 0x8c4a913579a93c35),
    ("bcsstk32@1024", 0x678ac254d39bbd3f),
    ("language@1024", 0x7cf2b83ad8ce010b),
    ("mac_econ_fwd500@1024", 0x496e0e45029c4b0e),
    ("parabolic_fem@1024", 0x271aa46da07d611d),
    ("rajat21@1024", 0x556decab27b72fd5),
    ("sme3Dc@1024", 0x03d291608d0fe2a5),
    ("Slashdot0902@1024", 0x37d46ceac83d1189),
    ("stomach@1024", 0xa84e0d0c9347fdde),
    ("transient@1024", 0xff786b8a2fea2574),
    ("twotone@1024", 0x8fc3d188c4a04865),
    ("venkat01@1024", 0x0436d4d5c7ac694e),
    ("webbase-1M@1024", 0xef289aef7aaa02d9),
    ("wiki-Talk@1024", 0xad7305b511515929),
    ("amazon@64", 0xe0b086a8e92b5075),
    ("ASIC_320K@64", 0xa89f55f147434a68),
    ("bcsstk32@64", 0x19148ae8f37efa33),
    ("language@64", 0x2ad23b9fcc7e1286),
    ("mac_econ_fwd500@64", 0xda1635e67fb07586),
    ("parabolic_fem@64", 0x096494ae2591b63a),
    ("rajat21@64", 0xdc4cc5bea2ae2a4a),
    ("sme3Dc@64", 0xadff7663f9d84dfa),
    ("Slashdot0902@64", 0x11dab739ad517e4f),
    ("stomach@64", 0x4e88d8871b1eae38),
    ("transient@64", 0x814ed2a974b9e8e2),
    ("twotone@64", 0xa62d7217039d2860),
    ("venkat01@64", 0x5ffe8ee82cb9c55a),
    ("webbase-1M@64", 0x1239113ddcf58b2a),
    ("wiki-Talk@64", 0x769dbc192ec31d3a),
];

const DIRECT_GOLDEN: &[(&str, u64)] = &[
    ("uniform 1000x7000", 0x5eb96d0e7e9bb96f),
    ("uniform 1x1", 0xefb7a27e656de6f9),
    ("uniform 16 dense", 0xa6920d5940f182e0),
    ("rmat 1000x7000", 0xfb0f2b9b7ecc6881),
    ("rmat 1025x4000", 0x150bf2e7b6b3c629),
    ("rmat 1024x8192", 0xa4cec68d987a9367),
    ("rmat 1x1", 0xf01f046e8f929559),
    ("rmat 16 dense", 0xe97dbc783cdc3c7f),
    ("rmat 12 dense", 0x3d69b81a4c080e57),
    ("rmat graph500 1000x7000", 0xc9f6080497c3cdde),
    ("banded 1000x9000", 0xd49673c8fed1e99b),
    ("banded 1x1", 0xbb951a30f9f3db5a),
    ("banded 16 dense", 0xf6b1604676bbb707),
    ("block 1000x9000", 0x568c567108418c1a),
    ("block 1x1", 0x2d1ce4a5e1a6928f),
    ("block 16 dense", 0x5b834382c4321092),
    ("rmat draw on a", 0xdac5076ac220bfa0),
    ("rmat draw on a+b", 0x494a50a1755c6c88),
    ("rmat draw on a+b+c", 0x814e250a32ab7370),
];

#[test]
fn table3_specs_are_pinned() {
    let mut cases = Vec::new();
    for scale in [1024, 256] {
        for e in gen::TABLE3_UNIFORM.iter().chain(&gen::TABLE3_POWER_LAW) {
            cases.push((
                format!("{}@{scale}", e.name),
                e.generate_scaled(scale, SEED),
            ));
        }
    }
    check(TABLE3_GOLDEN, cases);
}

#[test]
fn table4_standins_are_pinned() {
    let mut cases = Vec::new();
    for scale in [1024, 64] {
        for spec in &gen::TABLE4 {
            cases.push((
                format!("{}@{scale}", spec.name),
                spec.generate_scaled(scale, SEED),
            ));
        }
    }
    check(TABLE4_GOLDEN, cases);
}

/// R-MAT parameters whose cumulative bound `bound` (0: `a`, 1: `a+b`,
/// 2: `a+b+c`) equals the first draw of `seed`, with the other two
/// probabilities among `a`, `b`, `c` zero.
fn on_bound(bound: usize, seed: u64) -> RmatParams {
    let p: f64 = StdRng::seed_from_u64(seed).random();
    let mut q = [0.0; 3];
    q[bound] = p;
    RmatParams {
        a: q[0],
        b: q[1],
        c: q[2],
    }
}

#[test]
fn direct_generator_calls_are_pinned() {
    let paper = RmatParams::PAPER;
    let graph500 = RmatParams {
        a: 0.57,
        b: 0.19,
        c: 0.19,
    };
    let cases = vec![
        ("uniform 1000x7000", gen::uniform(1000, 7000, 3)),
        ("uniform 1x1", gen::uniform(1, 1, 4)),
        ("uniform 16 dense", gen::uniform(16, 256, 5)),
        ("rmat 1000x7000", gen::rmat(1000, 7000, paper, 6)),
        ("rmat 1025x4000", gen::rmat(1025, 4000, paper, 7)),
        ("rmat 1024x8192", gen::rmat(1024, 8192, paper, 8)),
        ("rmat 1x1", gen::rmat(1, 1, paper, 9)),
        ("rmat 16 dense", gen::rmat(16, 256, paper, 10)),
        ("rmat 12 dense", gen::rmat(12, 144, paper, 11)),
        (
            "rmat graph500 1000x7000",
            gen::rmat(1000, 7000, graph500, 12),
        ),
        ("banded 1000x9000", gen::banded(1000, 9000, 6, 0.1, 13)),
        ("banded 1x1", gen::banded(1, 1, 0, 0.0, 14)),
        ("banded 16 dense", gen::banded(16, 256, 2, 0.0, 15)),
        (
            "block 1000x9000",
            gen::block_structured(1000, 9000, 7, 0.2, 16),
        ),
        ("block 1x1", gen::block_structured(1, 1, 1, 0.0, 17)),
        ("block 16 dense", gen::block_structured(16, 256, 3, 0.0, 18)),
        // A draw exactly on a quadrant bound belongs to the next
        // quadrant. Each case puts one bound on its seed's first draw,
        // which picks the only level of a 2x2 matrix's first sample.
        ("rmat draw on a", gen::rmat(2, 1, on_bound(0, 19), 19)),
        ("rmat draw on a+b", gen::rmat(2, 1, on_bound(1, 20), 20)),
        ("rmat draw on a+b+c", gen::rmat(2, 1, on_bound(2, 21), 21)),
    ];
    check(
        DIRECT_GOLDEN,
        cases
            .into_iter()
            .map(|(name, m)| (name.to_string(), m))
            .collect(),
    );
}
