//! Docs-vs-code consistency: the DESIGN.md trace-schema table must cover
//! every `TraceEvent` variant, the README's policy table must stay in
//! sync with `SchedulerKind`, docs/SCENARIO_FORMAT.md must cover every
//! record line kind, docs/OPERATORS_GUIDE.md must name every traffic
//! shape, the top-level markdown documents (including the guides in
//! docs/) must not carry dead intra-repo links, every CI `--check` must
//! name a committed root `BENCH_*.json`, every root test and example must
//! be a registered cargo target, the shim inventory must agree with
//! itself, and splitmix64 and the fault interpreter must each be written
//! once. Run by the CI docs job.

use std::path::{Path, PathBuf};
use vizsched_metrics::TraceEvent;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(name: &str) -> String {
    let path = repo_root().join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Every serialized event tag must appear in DESIGN.md — the probe schema
/// table is documented as complete, so adding a `TraceEvent` variant
/// without documenting it fails here.
#[test]
fn design_md_documents_every_trace_event_variant() {
    let design = read("DESIGN.md");
    let missing: Vec<&str> = TraceEvent::TAGS
        .iter()
        .copied()
        .filter(|tag| !design.contains(&format!("`{tag}`")))
        .collect();
    assert!(
        missing.is_empty(),
        "DESIGN.md probe schema is missing trace event tags: {missing:?}"
    );
}

/// The body of one `## N.`-numbered DESIGN.md section: from its heading
/// to the next `## ` heading (or end of file).
fn design_section(design: &str, number: u32) -> &str {
    let heading = format!("## {number}");
    let start = design
        .find(&heading)
        .unwrap_or_else(|| panic!("DESIGN.md has no section '{heading}'"));
    let body = &design[start..];
    match body[heading.len()..].find("\n## ") {
        Some(end) => &body[..heading.len() + end],
        None => body,
    }
}

/// Stricter than the whole-document check above: every tag must appear in
/// the §8 *schema table itself* — a row of the `| variant | tag | ... |`
/// table — so a new variant can't satisfy the docs test by being
/// name-dropped in prose elsewhere.
#[test]
fn design_md_schema_table_has_a_row_per_trace_event() {
    let design = read("DESIGN.md");
    let section = design_section(&design, 8);
    let rows: Vec<&str> = section
        .lines()
        .filter(|l| l.trim_start().starts_with('|'))
        .collect();
    let missing: Vec<&str> = TraceEvent::TAGS
        .iter()
        .copied()
        .filter(|tag| {
            let cell = format!("`{tag}`");
            !rows.iter().any(|row| row.contains(&cell))
        })
        .collect();
    assert!(
        missing.is_empty(),
        "DESIGN.md section 8 schema table is missing rows for: {missing:?}"
    );
    // The worked JSONL example block must also show each tag once.
    let missing_examples: Vec<&str> = TraceEvent::TAGS
        .iter()
        .copied()
        .filter(|tag| !section.contains(&format!("{{\"t\":\"{tag}\"")))
        .collect();
    assert!(
        missing_examples.is_empty(),
        "DESIGN.md section 8 worked-example block is missing lines for: {missing_examples:?}"
    );
}

/// Every policy name in the README's "Scheduling policies" table must
/// parse via `SchedulerKind::from_str` — the table is the user-facing
/// registry, so a renamed or removed variant orphans it loudly. The
/// reverse also holds: every buildable kind must have a row.
#[test]
fn readme_policy_table_names_parse() {
    use vizsched_core::sched::SchedulerKind;

    let readme = read("README.md");
    let start = readme
        .find("| Policy | Trigger | Rule |")
        .expect("README has the scheduling-policies table header");
    // Rows: consecutive `| `-prefixed lines after the header separator.
    let names: Vec<&str> = readme[start..]
        .lines()
        .skip(2)
        .take_while(|l| l.starts_with('|'))
        .map(|row| {
            row.trim_start_matches('|')
                .split('|')
                .next()
                .expect("row has a first cell")
                .trim()
                .trim_matches('`')
        })
        .collect();
    assert!(
        names.len() >= 9,
        "README policy table looks truncated: {names:?}"
    );
    for name in &names {
        assert!(
            name.parse::<SchedulerKind>().is_ok(),
            "README policy table row `{name}` does not parse as a SchedulerKind"
        );
    }
    for kind in SchedulerKind::ALL
        .iter()
        .chain(SchedulerKind::EXTENDED.iter())
    {
        assert!(
            names.contains(&kind.name()),
            "SchedulerKind::{kind:?} ({}) has no row in the README policy table",
            kind.name()
        );
    }
}

/// The policy-family trace tags are part of the documented schema; pin
/// them so a rename breaks the docs tests, not just downstream parsers.
#[test]
fn policy_trace_tags_are_pinned() {
    for tag in ["weights_updated", "share_adjusted"] {
        assert!(
            TraceEvent::TAGS.contains(&tag),
            "TraceEvent::TAGS lost the `{tag}` tag the docs promise"
        );
    }
}

/// The overload-policy section must name every policy knob and every
/// admission counter, so renaming a field orphans the docs loudly.
#[test]
fn design_md_documents_the_overload_policy_surface() {
    let design = read("DESIGN.md");
    for name in [
        "max_in_flight",
        "max_per_user",
        "deadline",
        "coalesce_interactive",
        "batch_escalation_age",
        "admitted",
        "rejected",
        "coalesced",
        "expired",
        "escalated",
    ] {
        assert!(
            design.contains(&format!("`{name}`")),
            "DESIGN.md overload section does not mention `{name}`"
        );
    }
}

/// Markdown links of the form `[text](target)` in `body`, excluding
/// images and code fences.
fn markdown_links(body: &str) -> Vec<String> {
    let mut links = Vec::new();
    let mut in_fence = false;
    for line in body.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let bytes = line.as_bytes();
        let mut i = 0;
        while let Some(open) = line[i..].find("](") {
            let start = i + open + 2;
            // Reject escaped/image links conservatively: `![alt](...)`
            // is still a file reference worth checking, so keep it.
            if let Some(close) = line[start..].find(')') {
                links.push(line[start..start + close].to_string());
                i = start + close + 1;
            } else {
                break;
            }
            if i >= bytes.len() {
                break;
            }
        }
    }
    links
}

/// Intra-repo links in the top-level documents must resolve to files that
/// exist; external links and pure fragments are out of scope (offline CI).
/// Links are resolved relative to the document's own directory, the way
/// a markdown renderer resolves them (`../DESIGN.md` from docs/).
#[test]
fn top_level_docs_have_no_dead_intra_repo_links() {
    let root = repo_root();
    let mut dead = Vec::new();
    for doc in [
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        "ROADMAP.md",
        "docs/POLICY_GUIDE.md",
        "docs/OPERATORS_GUIDE.md",
        "docs/SCENARIO_FORMAT.md",
        "docs/ARCHITECTURE.md",
    ] {
        let base = root.join(Path::new(doc).parent().expect("doc has a parent"));
        for link in markdown_links(&read(doc)) {
            let target = link.split_whitespace().next().unwrap_or("");
            if target.is_empty()
                || target.starts_with("http://")
                || target.starts_with("https://")
                || target.starts_with("mailto:")
                || target.starts_with('#')
            {
                continue;
            }
            let path = target.split('#').next().unwrap_or(target);
            if !base.join(path).exists() {
                dead.push(format!("{doc}: ({link})"));
            }
        }
    }
    assert!(dead.is_empty(), "dead intra-repo links: {dead:?}");
}

/// docs/SCENARIO_FORMAT.md is documented as complete: every record line
/// kind must keep both a `kind` row in the line-kinds table and a worked
/// `{"t":"kind"...}` example line, so adding a kind to `RECORD_KINDS`
/// without specifying it fails here.
#[test]
fn scenario_format_documents_every_record_kind() {
    use vizsched_workload::{RECORD_KINDS, RECORD_VERSION};

    let spec = read("docs/SCENARIO_FORMAT.md");
    let rows: Vec<&str> = spec
        .lines()
        .filter(|l| l.trim_start().starts_with('|'))
        .collect();
    for kind in RECORD_KINDS {
        let cell = format!("`{kind}`");
        assert!(
            rows.iter().any(|row| row.contains(&cell)),
            "docs/SCENARIO_FORMAT.md has no table row for record kind `{kind}`"
        );
        assert!(
            spec.contains(&format!("{{\"t\":\"{kind}\"")),
            "docs/SCENARIO_FORMAT.md has no worked example line for record kind `{kind}`"
        );
    }
    // The spec names the version it documents.
    assert!(
        spec.contains(&format!("`RECORD_VERSION = {RECORD_VERSION}`")),
        "docs/SCENARIO_FORMAT.md does not pin RECORD_VERSION = {RECORD_VERSION}"
    );
}

/// The fault taxonomy is written down twice for readers — the
/// `fault_injected` row of DESIGN.md §8 and the `kind` row of
/// SCENARIO_FORMAT.md's `fault` table — and once for the program:
/// `FaultKind::NAMES`. Each row must list exactly that list.
#[test]
fn fault_kind_names_match_the_documented_taxonomy() {
    use vizsched_core::fault::FaultKind;

    let design = read("DESIGN.md");
    let spec = read("docs/SCENARIO_FORMAT.md");
    let fault_lines = spec
        .split("\n## ")
        .find(|section| section.starts_with("`fault` lines"))
        .expect("SCENARIO_FORMAT.md has a `fault` lines section");
    for (what, body, row_start) in [
        (
            "DESIGN.md section 8",
            design_section(&design, 8),
            "| `FaultInjected` |",
        ),
        ("docs/SCENARIO_FORMAT.md", fault_lines, "| `kind` |"),
    ] {
        let row = body
            .lines()
            .find(|l| l.starts_with(row_start))
            .unwrap_or_else(|| panic!("{what}: no table row starting {row_start:?}"));
        // The backticked snake_case words of the row: the fault kinds,
        // plus (in DESIGN.md) the row's own tag and its time field.
        let named: Vec<&str> = row
            .split('`')
            .skip(1)
            .step_by(2)
            .filter(|w| w.contains('_') && !matches!(*w, "fault_injected" | "now_us"))
            .collect();
        assert_eq!(named, FaultKind::NAMES, "{what}: fault-kind list drifted");
    }
}

/// The operator's guide documents the traffic-shape catalogue as
/// complete: every `TrafficShape` name must appear (in backticks), so a
/// new generator can't ship undocumented.
#[test]
fn operators_guide_names_every_traffic_shape() {
    use vizsched_workload::TrafficShape;

    let guide = read("docs/OPERATORS_GUIDE.md");
    for name in TrafficShape::NAMES {
        assert!(
            guide.contains(&format!("`{name}`")),
            "docs/OPERATORS_GUIDE.md does not name traffic shape `{name}`"
        );
    }
}

/// The README is the entry point; it must link every guide under docs/.
#[test]
fn readme_links_the_guides() {
    let readme = read("README.md");
    for guide in [
        "docs/POLICY_GUIDE.md",
        "docs/OPERATORS_GUIDE.md",
        "docs/SCENARIO_FORMAT.md",
        "docs/ARCHITECTURE.md",
    ] {
        assert!(readme.contains(guide), "README.md does not link {guide}");
    }
}

/// Gated baselines have one home and one name: every `--check <path>` in
/// the CI workflow names a `BENCH_*.json` that exists at the repo root.
#[test]
fn ci_check_paths_are_root_bench_baselines() {
    let ci = read(".github/workflows/ci.yml");
    // `--check <path>` on one line; `cargo fmt --check` takes no value.
    let checked: Vec<&str> = ci
        .lines()
        .filter_map(|line| {
            let mut words = line.split_whitespace().skip_while(|w| *w != "--check");
            words.nth(1)
        })
        .collect();
    assert!(
        checked.len() >= 6,
        "ci.yml gates look truncated: {checked:?}"
    );
    for path in checked {
        assert!(
            path.starts_with("BENCH_") && path.ends_with(".json") && !path.contains('/'),
            "ci.yml gates on `{path}`, which is not a root BENCH_*.json"
        );
        assert!(
            repo_root().join(path).is_file(),
            "ci.yml gates on `{path}`, which is not committed"
        );
    }
}

/// The offline shims are listed three times — the table in
/// shims/README.md, the directories under shims/, and the `shims/` path
/// entries of `[workspace.dependencies]` — and the three must be the same
/// set, each still a dependency of at least one product crate.
#[test]
fn shims_readme_dirs_and_workspace_entries_agree() {
    use std::collections::BTreeSet;

    let documented: BTreeSet<String> = read("shims/README.md")
        .lines()
        .filter(|line| line.starts_with("| `"))
        .map(|row| row.split('`').nth(1).expect("backticked name").to_string())
        .collect();
    let on_disk: BTreeSet<String> = std::fs::read_dir(repo_root().join("shims"))
        .expect("read shims/")
        .map(|entry| entry.expect("dir entry"))
        .filter(|entry| entry.path().is_dir())
        .map(|entry| entry.file_name().to_string_lossy().into_owned())
        .collect();
    let wired: BTreeSet<String> = read("Cargo.toml")
        .lines()
        .filter_map(|line| {
            let (name, rest) = line.split_once(" = { path = \"shims/")?;
            let dir = rest.split('"').next()?;
            assert_eq!(name, dir, "shim `{name}` lives in shims/{dir}");
            Some(name.to_string())
        })
        .collect();
    assert_eq!(documented, on_disk, "shims/README.md table vs shims/ dirs");
    assert_eq!(wired, on_disk, "[workspace.dependencies] vs shims/ dirs");

    let manifests: Vec<String> = std::fs::read_dir(repo_root().join("crates"))
        .expect("read crates/")
        .map(|entry| entry.expect("dir entry").path().join("Cargo.toml"))
        .map(|path| std::fs::read_to_string(&path).expect("crate manifest"))
        .collect();
    for shim in &on_disk {
        let dependency = format!("{shim} = {{ workspace = true");
        assert!(
            manifests
                .iter()
                .any(|m| m.lines().any(|l| l.starts_with(&dependency))),
            "shim `{shim}` is a dependency of no crate under crates/"
        );
    }
}

/// The `.rs` files under `crates/*/src` whose text satisfies `needle`, as
/// sorted repo-relative paths.
fn sources_containing(needle: impl Fn(&str) -> bool) -> Vec<String> {
    fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).expect("read source dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                rust_files(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let root = repo_root();
    let mut files = Vec::new();
    for entry in std::fs::read_dir(root.join("crates")).expect("read crates/") {
        rust_files(&entry.expect("dir entry").path().join("src"), &mut files);
    }
    let mut hits: Vec<String> = files
        .iter()
        .filter(|path| needle(&std::fs::read_to_string(path).expect("read source file")))
        .map(|path| {
            let rel = path.strip_prefix(&root).expect("under the repo root");
            rel.to_string_lossy().replace('\\', "/")
        })
        .collect();
    hits.sort();
    hits
}

/// splitmix64 is written once: every seeded stream and deterministic hash
/// goes through `vizsched_core::rng`, so its finalizer multiplier may
/// appear under `crates/*/src` in that file only — in any case, with or
/// without digit separators. (`shims/proptest` keeps its own copy: a shim
/// cannot depend on a product crate.)
#[test]
fn splitmix64_is_written_once() {
    let hits = sources_containing(|text| {
        text.to_ascii_lowercase()
            .replace('_', "")
            .contains("0xbf58476d1ce4e5b9")
    });
    assert_eq!(
        hits,
        ["crates/core/src/rng.rs"],
        "the splitmix64 finalizer is written outside vizsched_core::rng"
    );
}

/// One bench front end: `vizsched_bench::harness` alone reads the process
/// arguments and loads a `--check` baseline; a bench binary asks its
/// `Cli` for flags and hands `Cli::check` its gate list.
#[test]
fn bench_binaries_leave_arguments_and_baselines_to_the_harness() {
    let dir = repo_root().join("crates/bench/src/bin");
    let mut offenders = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("read crates/bench/src/bin") {
        let path = entry.expect("dir entry").path();
        let text = std::fs::read_to_string(&path).expect("read bench binary");
        let name = path.file_name().expect("file name").to_string_lossy();
        if text.contains("env::args") {
            offenders.push(format!("{name} reads std::env::args"));
        }
        if text.contains("baseline()") || text.contains("\"--check\"") {
            offenders.push(format!("{name} loads a --check baseline"));
        }
    }
    offenders.sort();
    assert!(
        offenders.is_empty(),
        "bench binaries bypass vizsched_bench::harness: {offenders:?}"
    );
}

/// A `FaultKind` is interpreted once, by `ShardedRuntime::on_fault`, for
/// both substrates. Any second interpreter must match every kind, so the
/// one no other code has reason to name — a leaf group's recovery — may
/// appear only where the taxonomy is defined and where it is interpreted.
#[test]
fn fault_kinds_are_interpreted_once() {
    assert_eq!(
        sources_containing(|text| text.contains("FaultKind::LeafRecover")),
        ["crates/core/src/fault.rs", "crates/runtime/src/fault.rs"],
        "a FaultKind is interpreted outside ShardedRuntime::on_fault"
    );
}

/// Root tests and examples are path-registered targets of the host crate:
/// a `tests/foo.rs` nobody lists there compiles nowhere and fails nothing.
/// Every `tests/*.rs` and `examples/*.rs` must be the `path` of exactly
/// one `[[test]]` / `[[example]]` table in crates/integration/Cargo.toml.
#[test]
fn every_root_test_and_example_is_a_registered_target() {
    let mut table = "";
    let mut registered: Vec<(&str, String)> = Vec::new();
    let manifest = read("crates/integration/Cargo.toml");
    for line in manifest.lines() {
        if line.starts_with('[') {
            table = line;
        } else if let Some(path) = line.strip_prefix("path = \"../../") {
            registered.push((table, path.trim_end_matches('"').to_string()));
        }
    }
    let mut on_disk: Vec<(&str, String)> = Vec::new();
    for (table, dir) in [("[[test]]", "tests"), ("[[example]]", "examples")] {
        for entry in std::fs::read_dir(repo_root().join(dir)).expect("read target dir") {
            let name = entry.expect("dir entry").file_name();
            let name = name.to_string_lossy();
            if name.ends_with(".rs") {
                on_disk.push((table, format!("{dir}/{name}")));
            }
        }
    }
    registered.sort();
    on_disk.sort();
    assert_eq!(
        registered, on_disk,
        "crates/integration/Cargo.toml targets (left) vs tests/*.rs and examples/*.rs (right)"
    );
}
