//! `perfbench` — end-to-end and per-layer benchmark of the
//! simulate → fit → serve pipeline.
//!
//! ```text
//! perfbench --workload <sweep_mcf|dse_applu> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints report lines, then one JSON result line: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Exits 0 when every output check held, 1 when one failed or the
//! program returned an error, and 2 on a usage error. See `README.md`.

mod metrics;
mod serving;
mod sim;
mod spans;
mod stats;
mod yardstick;

use metrics::Outcome;
use spans::{Span, Tracer};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <sweep_mcf|dse_applu> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Where traced runs write their spans, relative to the working directory.
const SPAN_DIR: &str = ".bench_work";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SweepMcf,
    DseApplu,
}

impl Workload {
    const ALL: [Workload; 2] = [Workload::SweepMcf, Workload::DseApplu];

    fn name(self) -> &'static str {
        match self {
            Workload::SweepMcf => "sweep_mcf",
            Workload::DseApplu => "dse_applu",
        }
    }

    /// The layers whose share of the timed phase states the workload's
    /// purpose, as span names or layer prefixes.
    fn purpose(self) -> (&'static [&'static str], &'static str) {
        match self {
            Workload::SweepMcf => (&["cpusim"], "cpusim dominates the sweep"),
            Workload::DseApplu => (
                &["mlmodels.fit", "mlmodels.cv"],
                "fitting plus cross-validation is the majority of the pipeline",
            ),
        }
    }
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|_| format!("bad seconds {value:?}"))?;
                    if !(s > 0.0 && s <= 3600.0) {
                        return Err(format!("seconds must be in (0, 3600], got {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// Report layer self times and shares of each traced pass, and whether
/// they confirm the workload's purpose.
fn summarize_trace(workload: Workload, spans: &[Span], out: &mut Outcome) {
    let self_ns = spans::layer_self_ns(spans);
    for (layer, ns) in &self_ns {
        out.set(&format!("self_s.{layer}"), *ns as f64 / 1e9);
    }
    let (group, claim) = workload.purpose();
    let in_group = |s: &Span| group.iter().any(|g| s.name == *g || s.layer() == *g);
    let passes: Vec<&Span> = spans.iter().filter(|s| s.name == "bench.pass").collect();
    let layered: Vec<Span> = spans
        .iter()
        .filter(|s| s.layer() != "bench")
        .cloned()
        .collect();
    let purposed: Vec<Span> = layered.iter().filter(|s| in_group(s)).cloned().collect();
    let mut shares = Vec::new();
    for p in &passes {
        let (lo, hi) = (p.start_ns, p.end_ns);
        let by_layer = spans::layer_wall_share(&layered, lo, hi);
        out.note(format!(
            "traced pass {:.3} s, layer share of wall: {}",
            (hi - lo) as f64 / 1e9,
            by_layer
                .iter()
                .map(|(l, s)| format!("{l} {:.1}%", s * 100.0))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        let covered = |v: &[Span]| {
            let iv: Vec<(u64, u64)> = v.iter().map(|s| (s.start_ns, s.end_ns)).collect();
            spans::covered_ns(lo, hi, &iv) as f64
        };
        let attributed = covered(&layered);
        shares.push(if attributed > 0.0 {
            covered(&purposed) / attributed
        } else {
            0.0
        });
    }
    let share = stats::median(&shares);
    let verdict = if share > 0.5 {
        "confirmed"
    } else {
        "NOT CONFIRMED"
    };
    out.note(format!(
        "purpose {verdict}: {claim} ({} holds {:.1}% of the layer-attributed wall)",
        group.join(" + "),
        share * 100.0
    ));
    out.note(format!(
        "layer self time (span minus the union of its children): {}",
        self_ns
            .iter()
            .map(|(l, ns)| format!("{l} {:.3} s", *ns as f64 / 1e9))
            .collect::<Vec<_>>()
            .join(", ")
    ));
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let tracer = Tracer::new(args.trace);
    let result = match args.workload {
        Workload::SweepMcf => sim::sweep_mcf(&args, &tracer),
        Workload::DseApplu => sim::dse_applu(&args, &tracer),
    };
    let name = args.workload.name();
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {name}: {e}");
            return ExitCode::from(1);
        }
    };
    if args.trace {
        let spans = tracer.take();
        summarize_trace(args.workload, &spans, &mut out);
        let path = std::path::Path::new(SPAN_DIR).join(format!("spans-{name}-{}.jsonl", args.seed));
        match std::fs::create_dir_all(SPAN_DIR).and_then(|()| spans::write_jsonl(&path, &spans)) {
            Ok(()) => out.note(format!(
                "{} spans written to {}",
                spans.len(),
                path.display()
            )),
            Err(e) => out.note(format!("spans not written to {}: {e}", path.display())),
        }
    }
    println!(
        "perfbench {name} seed {} seconds {} trace {} on {} cores",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    for line in &out.lines {
        println!("{line}");
    }
    for line in out.metric_lines(args.trace) {
        println!("{line}");
    }
    println!(
        "failed_ratio {} ratio ({} failed of {} attempted)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    let line = out.result_line(args.trace);
    for p in &out.problems {
        println!("CHECK FAILED: {p}");
    }
    println!("{line}");
    if out.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse("--workload dse_applu --seed 7 --seconds 10 --trace 1").expect("parse");
        assert_eq!(a.workload, Workload::DseApplu);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload sweep_mcf --seed 1 --seconds 1 --trace 2",
            "--workload sweep_mcf --seed x --seconds 1 --trace 0",
            "--workload sweep_mcf --seed 1 --seconds 0 --trace 0",
            "--workload sweep_mcf --seed 1 --seconds 1",
            "--workload sweep_mcf --seed 1 --seconds 1 --trace 0 --extra 1",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
