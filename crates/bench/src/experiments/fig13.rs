//! Fig. 13 (scalability) and Fig. 14 (matrix distribution sensitivity).

use menda_core::{MendaConfig, MendaSystem};
use menda_sparse::gen::{TABLE3_POWER_LAW, TABLE3_UNIFORM};

use crate::util::{fmt_time, Scale, Table};

/// Fig. 13: execution time and throughput of MeNDA sweeping matrix size,
/// density and channel count (N1–N8 × {1, 2, 4} channels).
pub fn fig13(scale: Scale) -> String {
    let mut out = format!(
        "Fig. 13: MeNDA scalability, N1-N8 at 1/{} scale, 2 ranks/channel\n\n",
        scale.factor()
    );
    let mut t = Table::new(&["matrix", "channels", "time", "MNNZ/s", "iterations"]);
    for spec in &TABLE3_UNIFORM {
        let m = spec.generate_scaled(scale.factor(), 17);
        for channels in [1usize, 2, 4] {
            let cfg = MendaConfig::paper().with_channels(channels);
            let r = MendaSystem::new(cfg).transpose(&m);
            t.row(&[
                spec.name.to_string(),
                channels.to_string(),
                fmt_time(r.seconds),
                format!("{:.0}", r.nnz_per_sec / 1e6),
                r.max_iterations().to_string(),
            ]);
        }
    }
    out.push_str(&t.render());
    out.push_str(
        "\nPaper: throughput scales ~linearly with channels; execution time tracks\nNNZ (N1-N4) and stays flat for fixed NNZ (N5-N8) with mild throughput\ndecay as the pointer array grows; an extra iteration (N8 at 1 channel in\nthe paper) sharply degrades throughput.\n",
    );
    out
}

/// Fig. 14: uniform vs power-law execution time at equal size/density.
pub fn fig14(scale: Scale) -> String {
    let mut out = format!(
        "Fig. 14: uniform (N) vs power-law (P) execution time, 1/{} scale\n\n",
        scale.factor()
    );
    let mut t = Table::new(&["pair", "uniform", "power-law", "P/N ratio", "iters N/P"]);
    let mut worst: f64 = 0.0;
    for (n, p) in TABLE3_UNIFORM.iter().zip(TABLE3_POWER_LAW.iter()) {
        let mn = n.generate_scaled(scale.factor(), 19);
        let mp = p.generate_scaled(scale.factor(), 19);
        let rn = MendaSystem::new(MendaConfig::paper()).transpose(&mn);
        let rp = MendaSystem::new(MendaConfig::paper()).transpose(&mp);
        let ratio = rp.seconds / rn.seconds;
        // Pairs that straddle the iteration-count boundary at reduced
        // scale are not comparable the way the paper's full-size pairs
        // are; track the worst deviation among equal-iteration pairs.
        if rn.max_iterations() == rp.max_iterations() {
            worst = worst.max((ratio - 1.0).abs());
        }
        t.row(&[
            format!("{}/{}", n.name, p.name),
            fmt_time(rn.seconds),
            fmt_time(rp.seconds),
            format!("{ratio:.2}"),
            format!("{}/{}", rn.max_iterations(), rp.max_iterations()),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nPaper: differences stay within 10% thanks to NNZ-balanced partitioning\nand seamless back-to-back merge. Measured worst-case deviation among\nequal-iteration pairs: {:.0}% (pairs with unequal iteration counts are\nreduced-scale boundary artifacts; at full size both need 2 iterations).\n",
        100.0 * worst
    ));
    out
}
