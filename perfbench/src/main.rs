//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the manifest and a metric table (name, value, unit, clock), then
//! the result as one JSON object on the last line. Exits 1 when a check
//! fails and 2 on bad arguments.

use perfbench::{run, Opts, Scale, WORKLOADS};

fn parse(args: &[String]) -> Result<Opts, String> {
    let get = |flag: &str| -> Result<String, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(0.0..=3600.0).contains(&seconds) {
        return Err("--seconds must be within 0..=3600".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Opts {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::Full,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    match run(&opts) {
        Ok(outcome) => {
            print!("{}", outcome.report());
            println!("{}", outcome.result_json());
            if !outcome.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
