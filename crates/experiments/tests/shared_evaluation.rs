//! One evaluation path: figures rendered through one shared
//! [`Evaluation`] print exactly what each prints on its own, and the
//! shared evaluation simulates each distinct cell once.
//!
//! The four figures overlap: Fig. 3's cells are part of Fig. 6's
//! SB-bound grid, Fig. 16's stream-prefetcher row is the base
//! configuration at SB56 and SB14, and the SB-shrink claim repeats its
//! own SB56 baseline, Fig. 16's SB56/SB14 suites and Fig. 6's SB28
//! ones. A tiny µop budget keeps the ~1,100 simulated cells affordable.

use spb_experiments::registry;
use spb_experiments::Evaluation;
use spb_sim::config::SimConfig;
use spb_sim::sweep::SweepOptions;

fn tiny() -> Evaluation {
    let mut base = SimConfig::quick();
    base.warmup_uops = 200;
    base.measure_uops = 1_000;
    Evaluation::with_configs(base.clone(), base, SweepOptions::from_env())
}

/// The figure's tables as printed (text, since NaN ≠ NaN).
fn render(ev: &mut Evaluation, id: &str) -> String {
    let def = registry::find(id).expect("registered figure");
    (def.run)(ev).iter().map(|t| format!("{t}\n")).collect()
}

#[test]
fn a_shared_evaluation_renders_standalone_tables_from_distinct_cells() {
    // (id, cells requested, cells simulated) standalone.
    let figures = [
        ("fig03", 8, 8),
        ("fig06", 80, 80),
        ("fig16", 345, 345),
        ("sb20", 207, 184),
    ];
    let mut shared = tiny();
    for (id, requested, simulated) in figures {
        let mut alone = tiny();
        let text = render(&mut alone, id);
        assert_eq!(
            (alone.requested(), alone.simulated()),
            (requested, simulated)
        );
        assert_eq!(render(&mut shared, id), text, "{id} differs when shared");
    }
    assert_eq!(shared.requested(), 8 + 80 + 345 + 207);
    // Fig. 6 reuses Fig. 3's 8 cells, Fig. 16 reuses 40 of Fig. 6's,
    // and the SB-shrink claim reuses 92 of Fig. 16's and 16 of Fig. 6's
    // (its SB28 suites over the SB-bound apps).
    assert_eq!(shared.simulated(), 8 + 72 + 305 + 76);
}
