//! The one front end of every bench binary: its command line and its
//! regression check.
//!
//! [`Cli`] is the only reader of the process arguments: the shared
//! `--json` / `--check` / `--quick` flags, each binary's own valued flags
//! ([`Cli::value`], [`Cli::number`]), switches ([`Cli::flag`]) and
//! `scenario`'s positional argument ([`Cli::positional`]).
//!
//! [`Cli::check`] is the only regression check: it loads the `--check`
//! baseline, judges every [`Gate`], prints one header line and one verdict
//! line per gate, and exits 1 when a gate fails or a value is missing from
//! either report. A binary keeps only what is its own: its measurement,
//! the schema of the report it writes, and its gate list.

use vizsched_metrics::json::{fmt_f64, parse, Json};

/// The process command line, parsed once.
pub struct Cli {
    args: Vec<String>,
    /// `--json <path>`: write the fresh report there.
    pub json: Option<String>,
    /// `--quick`: the reduced grid CI runs.
    pub quick: bool,
}

impl Cli {
    /// Parse the process arguments.
    pub fn parse() -> Cli {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut cli = Cli {
            args,
            json: None,
            quick: false,
        };
        cli.json = cli.value("--json").map(str::to_owned);
        cli.quick = cli.flag("--quick");
        cli
    }

    /// The first argument, whether or not it is a flag.
    pub fn positional(&self) -> Option<&str> {
        self.args.first().map(String::as_str)
    }

    /// The value following `flag`, if both are there.
    pub fn value(&self, flag: &str) -> Option<&str> {
        let at = self.args.iter().position(|a| a == flag)?;
        self.args.get(at + 1).map(String::as_str)
    }

    /// Whether the switch `name` is on the command line.
    pub fn flag(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }

    /// `flag`'s value parsed as a number; `quick` or `full` (by `--quick`)
    /// when the flag is absent or malformed.
    pub fn number<T: std::str::FromStr>(&self, flag: &str, quick: T, full: T) -> T {
        self.value(flag)
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

    /// Judge the fresh report `doc` against `gates`. Absolute gates run on
    /// every invocation; relative ones only against a `--check` baseline.
    /// Prints one header line and one verdict line per gate that ran, and
    /// exits 1 with `failure` on stderr when a gate fails, a value is
    /// missing from either report, or the baseline cannot be read.
    pub fn check(&self, doc: &Json, gates: &[Gate], failure: &str) {
        let baseline = self.value("--check").map(|path| {
            let doc = std::fs::read_to_string(path)
                .map_err(|e| e.to_string())
                .and_then(|text| parse(&text))
                .unwrap_or_else(|e| {
                    eprintln!("{failure}: cannot read baseline {path}: {e}");
                    std::process::exit(1)
                });
            (path, doc)
        });
        let gates: Vec<&Gate> = gates
            .iter()
            .filter(|g| baseline.is_some() || !g.is_relative())
            .collect();
        if gates.is_empty() {
            return;
        }
        match &baseline {
            Some((path, _)) => println!("\n== regression check vs {path} =="),
            None => println!("\n== absolute gates (no --check baseline) =="),
        }
        let mut ok = true;
        for gate in gates {
            let verdict = gate.judge(doc, baseline.as_ref().map(|(_, base)| base));
            println!("  {}", gate.line(&verdict));
            ok &= verdict.ok;
        }
        if !ok {
            eprintln!("{failure}");
            std::process::exit(1);
        }
    }
}

/// Where a gate finds its value in a report.
pub type Reader = Box<dyn Fn(&Json) -> Option<f64>>;

/// The reader of `summary.<key>`; a boolean reads as 1 (true) or 0.
pub fn summary(key: &'static str) -> Reader {
    Box::new(move |doc| {
        let value = doc.get("summary")?.get(key)?;
        value.as_f64().or_else(|| value.as_bool().map(f64::from))
    })
}

/// One regression gate: a label, a reader, and a bound — a floor
/// `max(committed × factor, offset)` or a ceiling `committed × factor +
/// offset`. With `factor` 0 the bound is absolute, `offset` itself, and
/// needs no baseline.
pub struct Gate {
    label: String,
    read: Reader,
    floor: bool,
    factor: f64,
    offset: f64,
}

impl Gate {
    /// A higher-is-better gate: passes when the fresh value is at least
    /// `max(committed × factor, min)`, or `min` when `factor` is 0.
    pub fn floor(label: impl Into<String>, read: Reader, factor: f64, min: f64) -> Gate {
        Gate {
            label: label.into(),
            read,
            floor: true,
            factor,
            offset: min,
        }
    }

    /// A lower-is-better gate: passes when the fresh value is at most
    /// `committed × factor + slack`, or `slack` when `factor` is 0.
    pub fn ceiling(label: impl Into<String>, read: Reader, factor: f64, slack: f64) -> Gate {
        Gate {
            label: label.into(),
            read,
            floor: false,
            factor,
            offset: slack,
        }
    }

    fn is_relative(&self) -> bool {
        self.factor != 0.0
    }

    /// Judge `fresh` against `baseline` (read only when the bound is
    /// relative). Pure: the arithmetic behind every verdict line.
    fn judge(&self, fresh: &Json, baseline: Option<&Json>) -> Verdict {
        let committed = baseline
            .filter(|_| self.is_relative())
            .and_then(|doc| (self.read)(doc));
        let limit = match (self.is_relative(), committed) {
            (false, _) => Some(self.offset),
            (true, None) => None,
            (true, Some(c)) if self.floor => Some((c * self.factor).max(self.offset)),
            (true, Some(c)) => Some(c * self.factor + self.offset),
        };
        let fresh = (self.read)(fresh);
        let ok = match (fresh, limit) {
            (Some(f), Some(l)) if self.floor => f >= l,
            (Some(f), Some(l)) => f <= l,
            _ => false,
        };
        Verdict {
            fresh,
            committed,
            limit,
            ok,
        }
    }

    /// The verdict line `Cli::check` prints for `v`.
    fn line(&self, v: &Verdict) -> String {
        let show = |x: Option<f64>| x.map_or("missing".to_string(), fmt_f64);
        let committed = if self.is_relative() {
            format!(" vs committed {}", show(v.committed))
        } else {
            String::new()
        };
        let side = if self.floor { "floor" } else { "ceiling" };
        let word = match (v.ok, v.fresh.is_some() && v.limit.is_some()) {
            (true, _) => "OK",
            (false, true) => "REGRESSED",
            (false, false) => "MISSING",
        };
        format!(
            "{}: fresh {}{committed} ({side} {}) -> {word}",
            self.label,
            show(v.fresh),
            show(v.limit)
        )
    }
}

/// The outcome of one gate.
struct Verdict {
    /// The value in the fresh report.
    fresh: Option<f64>,
    /// The value in the baseline (relative gates only).
    committed: Option<f64>,
    /// The limit the fresh value was held to.
    limit: Option<f64>,
    /// Whether the gate passed.
    ok: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use vizsched_metrics::json::obj;

    fn report(key: &'static str, value: f64) -> Json {
        obj([("summary", obj([(key, Json::num(value))]))])
    }

    #[test]
    fn a_floor_is_the_larger_of_the_scaled_value_and_its_min() {
        let gate = Gate::floor("gain", summary("gain"), 0.75, 1.0);
        // 0.75 × 1.2 = 0.9 is under the min, so the floor is 1.0.
        let low = gate.judge(&report("gain", 0.95), Some(&report("gain", 1.2)));
        assert_eq!(low.limit, Some(1.0));
        assert!(!low.ok);
        assert!(
            gate.judge(&report("gain", 1.0), Some(&report("gain", 1.2)))
                .ok
        );
        // 0.75 × 4.0 = 3.0 is over it.
        let high = gate.judge(&report("gain", 2.9), Some(&report("gain", 4.0)));
        assert_eq!(high.limit, Some(3.0));
        assert!(!high.ok);
        assert!(
            gate.judge(&report("gain", 3.0), Some(&report("gain", 4.0)))
                .ok
        );
    }

    #[test]
    fn a_ceiling_adds_its_slack_to_the_scaled_value() {
        let gate = Gate::ceiling("p99", summary("p99"), 1.25, 1.0);
        let at = gate.judge(&report("p99", 11.0), Some(&report("p99", 8.0)));
        assert_eq!(at.limit, Some(11.0));
        assert!(at.ok);
        assert!(
            !gate
                .judge(&report("p99", 11.01), Some(&report("p99", 8.0)))
                .ok
        );
    }

    #[test]
    fn a_factor_0_bound_is_absolute_and_reads_no_baseline() {
        let loss = Gate::ceiling("loss", summary("loss"), 0.0, 0.0);
        assert!(loss.judge(&report("loss", 0.0), None).ok);
        let lost = loss.judge(&report("loss", 1.0), Some(&report("loss", 1.0)));
        assert_eq!(
            (lost.committed, lost.limit, lost.ok),
            (None, Some(0.0), false)
        );

        let slo = Gate::ceiling("slo", summary("slo"), 0.0, 2.0);
        assert!(slo.judge(&report("slo", 2.0), None).ok);
        assert!(!slo.judge(&report("slo", 2.5), None).ok);

        let sustained = Gate::floor("sustained", summary("sustained"), 0.0, 1.0);
        let yes = obj([("summary", obj([("sustained", Json::Bool(true))]))]);
        let no = obj([("summary", obj([("sustained", Json::Bool(false))]))]);
        assert!(sustained.judge(&yes, None).ok);
        assert!(!sustained.judge(&no, None).ok);
    }

    #[test]
    fn a_value_missing_from_either_report_fails() {
        let gate = Gate::floor("speedup", summary("speedup"), 0.75, 0.0);
        let other = report("other", 5.0);
        let missing_base = gate.judge(&report("speedup", 5.0), Some(&other));
        assert_eq!((missing_base.committed, missing_base.ok), (None, false));
        assert!(gate.line(&missing_base).ends_with("MISSING"));
        assert!(!gate.judge(&other, Some(&report("speedup", 5.0))).ok);
        assert!(!gate.judge(&report("speedup", 5.0), None).ok);
        let absolute = Gate::ceiling("loss", summary("loss"), 0.0, 0.0);
        assert!(!absolute.judge(&other, None).ok);
    }
}
