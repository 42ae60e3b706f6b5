//! Early stopping's contract: a stopped cell is a bit-identical prefix
//! of the full run (per-trial seed derivation makes trial `i`
//! independent of how many trials follow it), and the verdict the
//! stopped prefix supports — the in-range rule `per < 0.5 && ber < 0.3`
//! from fig13/fig14 — always matches the full run's verdict. The Wilson
//! stop rule is supposed to guarantee exactly this; here it is checked
//! empirically across the deployment grid at two seeds.

use msc_core::overlay::Mode;
use msc_obs::stats::{Proportion, Z99};
use msc_phy::protocol::Protocol;
use msc_sim::pipeline::{
    run_cells, AnyLink, CellSpec, Geometry, Overlay, PacketOutcome, StopPolicy,
};

/// The deployment verdict on a set of outcomes (fig13's in-range rule).
fn verdict(outs: &[PacketOutcome]) -> bool {
    let m = outs.len();
    let delivered = outs.iter().filter(|o| o.decoded).count();
    let (errs, bits) = outs
        .iter()
        .filter(|o| o.decoded)
        .fold((0usize, 0usize), |a, o| (a.0 + o.tag_errors, a.1 + o.tag_bits));
    let per = 1.0 - delivered as f64 / m as f64;
    let ber = if bits > 0 { errs as f64 / bits as f64 } else { 1.0 };
    per < 0.5 && ber < 0.3
}

/// fig13's stop check, reproduced: settle only when the 99% Wilson
/// intervals clear the verdict boundary in either direction.
fn settled(outs: &[PacketOutcome]) -> bool {
    let m = outs.len() as u64;
    let delivered = outs.iter().filter(|o| o.decoded).count() as u64;
    let (errs, bits) = outs
        .iter()
        .filter(|o| o.decoded)
        .fold((0u64, 0u64), |a, o| (a.0 + o.tag_errors as u64, a.1 + o.tag_bits as u64));
    let per = Proportion::new(m - delivered, m).wilson(Z99);
    let ber = Proportion::clustered(errs, bits, delivered).wilson(Z99);
    (per.hi < 0.5 && ber.hi < 0.3) || (per.lo > 0.5 || ber.lo > 0.3)
}

#[test]
fn stopped_cells_are_full_run_prefixes_with_matching_verdicts() {
    // One test so the global engine toggles can't race a sibling test;
    // thread_determinism exercises the subprocess flags separately.
    assert!(msc_sim::engine::early_stop(), "early stopping must default on");
    let n = 12;
    let mut stopped_cells = 0usize;
    for seed in [42u64, 43] {
        for (nlos, distances) in
            [(false, &[2.0, 8.0, 16.0, 24.0, 28.0][..]), (true, &[4.0, 12.0, 20.0][..])]
        {
            let stage = if nlos { "nlos" } else { "los" };
            for p in Protocol::ALL {
                let link = AnyLink::new(p, Mode::Mode1);
                let crn_group = format!("{stage}/{}/crn", p.label());
                for &d in distances {
                    let geo = if nlos { Geometry::nlos(d) } else { Geometry::los(d) };
                    let cell = format!("{stage}/{}/{d}", p.label());
                    let spec = CellSpec {
                        trial: Overlay {
                            link: &link,
                            geometry: geo,
                            mode: Mode::Mode1,
                            n_productive: 16,
                            crn_group: Some(&crn_group),
                        },
                        n,
                        seed,
                        label: cell.clone(),
                        stop: Some(StopPolicy { floor: 6, decide: &settled }),
                    };
                    let spec = std::slice::from_ref(&spec);
                    msc_sim::engine::set_early_stop(true);
                    let es = run_cells(spec).remove(0);
                    msc_sim::engine::set_early_stop(false);
                    let full = run_cells(spec).remove(0);
                    msc_sim::engine::set_early_stop(true);

                    assert_eq!(full.len(), n, "{cell}: full run must use all trials");
                    assert!(es.len() >= 6, "{cell}: stopped below the floor");
                    assert_eq!(
                        format!("{:?}", &full[..es.len()]),
                        format!("{es:?}"),
                        "{cell} seed {seed}: stopped run is not a prefix of the full run"
                    );
                    assert_eq!(
                        verdict(&es),
                        verdict(&full),
                        "{cell} seed {seed}: early stop changed the verdict (n_used {})",
                        es.len()
                    );
                    if es.len() < n {
                        stopped_cells += 1;
                    }
                }
            }
        }
    }
    // The rule must actually fire somewhere on this grid, or the test
    // is vacuous (short ranges settle almost immediately).
    assert!(stopped_cells > 0, "no cell ever stopped early");
}
