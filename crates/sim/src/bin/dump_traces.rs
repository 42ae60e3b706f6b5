//! Dumps the signals behind the paper's figures as CSV for plotting:
//!
//! ```text
//! cargo run -p msc-sim --release --bin dump_traces -- envelopes out.csv
//! cargo run -p msc-sim --release --bin dump_traces -- rectifier out.csv
//! cargo run -p msc-sim --release --bin dump_traces -- constellation out.csv
//! ```
//!
//! * `envelopes` — the Fig. 5a view: each protocol's acquired envelope
//!   over the first 40 µs at 20 Msps.
//! * `rectifier` — the Fig. 4b view: ours-vs-WISP rectifier outputs on an
//!   802.11b input.
//! * `constellation` — equalized 11n data constellation with and without
//!   a tag π flip.
//! * `spectra` — Welch PSD of each protocol's waveform on a common
//!   20 Msps grid (why 1-bit envelope templates can tell them apart).

use msc_core::envelope::FrontEnd;
use msc_dsp::SampleRate;
use msc_phy::protocol::Protocol;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what = args.first().map(|s| s.as_str()).unwrap_or("envelopes");
    let path = args.get(1).cloned().unwrap_or_else(|| format!("{what}.csv"));
    let mut out = std::fs::File::create(&path).expect("create output file");
    match what {
        "envelopes" => dump_envelopes(&mut out),
        "rectifier" => dump_rectifier(&mut out),
        "constellation" => dump_constellation(&mut out),
        "spectra" => dump_spectra(&mut out),
        other => {
            eprintln!("unknown dump: {other} (envelopes|rectifier|constellation|spectra)");
            std::process::exit(2);
        }
    }
    eprintln!("wrote {what} to {path}");
}

fn dump_envelopes(out: &mut impl Write) {
    let fe = FrontEnd::prototype(SampleRate::ADC_FULL);
    let mut rng = StdRng::seed_from_u64(1);
    writeln!(out, "t_us,protocol,envelope").unwrap();
    for p in Protocol::ALL {
        let wave = msc_sim::idtraces::random_packet(p, &mut rng);
        let acq = fe.acquire(&mut rng, &wave, -5.0);
        let start = msc_core::templates::detect_start(&acq).unwrap_or(0);
        for (i, v) in acq.iter().skip(start).take(800).enumerate() {
            writeln!(out, "{:.3},{},{v:.5}", i as f64 / 20.0, p.label()).unwrap();
        }
    }
}

fn dump_rectifier(out: &mut impl Write) {
    use msc_analog::Rectifier;
    use msc_phy::wifi_b::WifiBModulator;
    let mut rng = StdRng::seed_from_u64(2);
    let wave = WifiBModulator::new(Default::default()).modulate(&[1, 0, 1, 1, 0, 0, 1, 0]);
    let fe = FrontEnd::prototype(SampleRate::ADC_FULL);
    let envelope: Vec<f64> = fe.rf_envelope(&wave).iter().map(|e| e * 0.3).collect();
    let ours = Rectifier::ours().run(&mut rng, &envelope, wave.rate());
    let wisp = Rectifier::wisp().run(&mut rng, &envelope, wave.rate());
    writeln!(out, "t_us,input,ours,wisp").unwrap();
    for i in 0..envelope.len().min(2200) {
        writeln!(
            out,
            "{:.4},{:.5},{:.5},{:.5}",
            i as f64 / wave.rate().as_msps(),
            envelope[i],
            ours[i],
            wisp[i]
        )
        .unwrap();
    }
}

fn dump_constellation(out: &mut impl Write) {
    use msc_core::overlay::{params_for, Mode, TagOverlayModulator};
    use msc_core::tag::payload_start_seconds;
    use msc_phy::wifi_n::WifiNDemodulator;
    use msc_rx::WifiNOverlayLink;
    let params = params_for(Protocol::WifiN, Mode::Mode1);
    let link = WifiNOverlayLink::new(params);
    let carrier = link.make_carrier(&[1, 0, 1, 1, 0, 1, 0, 0]);
    let tag = TagOverlayModulator::new(Protocol::WifiN, params);
    let start = (payload_start_seconds(Protocol::WifiN) * carrier.rate().as_hz()).round() as usize;
    let modulated = tag.modulate(&carrier, start, &[1, 0, 1, 0, 1, 0, 1, 0]);
    let dec = WifiNDemodulator::new().demodulate_symbols(&modulated).expect("decode");
    writeln!(out, "symbol,subcarrier,i,q").unwrap();
    for (s, points) in dec.symbol_points.iter().enumerate().take(8) {
        for (k, pt) in points.iter().enumerate() {
            writeln!(out, "{s},{k},{:.5},{:.5}", pt.re, pt.im).unwrap();
        }
    }
}

fn dump_spectra(out: &mut impl Write) {
    use msc_dsp::fft::welch_psd;
    use msc_dsp::resample::upsample_iq_clean;
    let mut rng = StdRng::seed_from_u64(3);
    let grid = SampleRate::mhz(20.0);
    writeln!(out, "freq_mhz,protocol,psd_db").unwrap();
    for p in Protocol::ALL {
        let wave = msc_sim::idtraces::random_packet(p, &mut rng);
        let wave = if (wave.rate().as_hz() - grid.as_hz()).abs() > 1.0 {
            upsample_iq_clean(&wave, grid)
        } else {
            wave
        };
        let nfft = 256;
        let psd = welch_psd(wave.samples(), nfft);
        // Natural order → centered frequency axis.
        for k in 0..nfft {
            let bin = if k < nfft / 2 { k as i64 } else { k as i64 - nfft as i64 };
            let f_mhz = bin as f64 * grid.as_msps() / nfft as f64;
            let db = 10.0 * (psd[k].max(1e-15)).log10();
            writeln!(out, "{f_mhz:.3},{},{db:.2}", p.label()).unwrap();
        }
    }
}
