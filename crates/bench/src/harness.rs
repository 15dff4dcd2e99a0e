//! The shared front and back of every gated bench binary: the
//! `--json` / `--check` / `--quick` command line, committed-baseline
//! loading, and the regression-gate verdict lines. Each binary keeps what
//! is its own — the measurement, its `TOLERANCE`, and which baseline
//! fields it gates.

use vizsched_metrics::json::{fmt_f64, parse, Json};

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    let at = args.iter().position(|a| a == flag)?;
    args.get(at + 1).cloned()
}

/// The command line shared by the gated bench binaries.
pub struct Cli {
    args: Vec<String>,
    /// `--json <path>`: write the fresh report there.
    pub json: Option<String>,
    /// `--check <path>`: gate the fresh report against that baseline.
    check: Option<String>,
    /// `--quick`: the reduced grid CI runs.
    pub quick: bool,
}

impl Cli {
    /// Parse the process arguments.
    pub fn parse() -> Cli {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Cli {
            json: arg_value(&args, "--json"),
            check: arg_value(&args, "--check"),
            quick: args.iter().any(|a| a == "--quick"),
            args,
        }
    }

    /// `flag`'s value parsed as a number; `quick` or `full` (by `--quick`)
    /// when the flag is absent or malformed.
    pub fn number<T: std::str::FromStr>(&self, flag: &str, quick: T, full: T) -> T {
        arg_value(&self.args, flag)
            .and_then(|s| s.parse().ok())
            .unwrap_or(if self.quick { quick } else { full })
    }

    /// Write the fresh report to the `--json` path, if one was given.
    pub fn write_json(&self, doc: &Json) {
        if let Some(path) = &self.json {
            std::fs::write(path, doc.pretty()).expect("write json output");
            println!("\n(wrote {path})");
        }
    }

    /// The committed baseline named by `--check`, if one was given.
    pub fn baseline(&self) -> Option<Baseline> {
        self.check.as_deref().map(Baseline::load)
    }
}

/// A committed baseline report.
pub struct Baseline {
    /// Where it was read from (named in the check header).
    pub path: String,
    /// The parsed report.
    pub doc: Json,
}

impl Baseline {
    /// Read and parse the baseline at `path`.
    ///
    /// # Panics
    /// If the file is unreadable or is not JSON: a gate without its
    /// baseline must not pass.
    pub fn load(path: &str) -> Baseline {
        let text =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
        Baseline {
            path: path.to_string(),
            doc: parse(&text).expect("baseline parses as JSON"),
        }
    }
}

/// The word a gate line ends in.
pub fn verdict(ok: bool) -> &'static str {
    if ok {
        "OK"
    } else {
        "REGRESSED"
    }
}

fn gate(label: &str, fresh: f64, committed: f64, bound_name: &str, bound: f64, ok: bool) -> bool {
    println!(
        "  {label}: fresh {} vs committed {} ({bound_name} {}) -> {}",
        fmt_f64(fresh),
        fmt_f64(committed),
        fmt_f64(bound),
        verdict(ok)
    );
    ok
}

/// Gate a higher-is-better metric: passes when `fresh >= floor`. Prints
/// the verdict line and returns whether it passed.
pub fn gate_floor(label: &str, fresh: f64, committed: f64, floor: f64) -> bool {
    gate(label, fresh, committed, "floor", floor, fresh >= floor)
}

/// Gate a lower-is-better metric: passes when `fresh <= ceiling`. Prints
/// the verdict line and returns whether it passed.
pub fn gate_ceiling(label: &str, fresh: f64, committed: f64, ceiling: f64) -> bool {
    gate(
        label,
        fresh,
        committed,
        "ceiling",
        ceiling,
        fresh <= ceiling,
    )
}

/// End a `--check` run: exit 1 with `failure` on stderr unless every gate
/// passed.
pub fn conclude(ok: bool, failure: &str) {
    if !ok {
        eprintln!("{failure}");
        std::process::exit(1);
    }
    println!("  no regression");
}
