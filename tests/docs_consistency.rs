//! Docs-vs-code consistency: the DESIGN.md trace-schema table must cover
//! every `TraceEvent` variant, the README's policy table must stay in
//! sync with `SchedulerKind`, docs/SCENARIO_FORMAT.md must cover every
//! record line kind, docs/OPERATORS_GUIDE.md must name every traffic
//! shape, the top-level markdown documents (including the guides in
//! docs/) must not carry dead intra-repo links, every CI `--check` must
//! name a committed root `BENCH_*.json`, every committed result but a
//! shrinking named few must be named by a CI step, every root test and
//! example must be a registered cargo target, the shim inventory must
//! agree with itself, splitmix64 and the fault interpreter must each be
//! written once, every simulator, policy, client and render setting must
//! have a caller, and the trace-event count the guides quote must be the
//! code's. Run by the CI docs job.

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
    assert_eq!(
        names.len(),
        SchedulerKind::ALL.len() + SchedulerKind::EXTENDED.len(),
        "README policy table has one row per registered policy: {names:?}"
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

/// Every event count the guides quote ("the N-event trace schema", "N
/// event kinds") is the length of `TraceEvent::TAGS`, so adding or
/// removing a variant without updating the prose fails here.
#[test]
fn documented_event_counts_follow_the_code() {
    let mut quoted = 0;
    for doc in ["docs/ARCHITECTURE.md", "docs/OPERATORS_GUIDE.md"] {
        let text = read(doc);
        let hits = text
            .match_indices("-event")
            .chain(text.match_indices(" event kinds"));
        for (at, phrase) in hits {
            let head = text[..at].trim_end_matches(|c: char| c.is_ascii_digit());
            let Ok(count) = text[head.len()..at].parse::<usize>() else {
                continue;
            };
            assert_eq!(
                count,
                TraceEvent::TAGS.len(),
                "{doc} quotes `{count}{phrase}`, but TraceEvent has {} tags",
                TraceEvent::TAGS.len()
            );
            quoted += 1;
        }
    }
    assert!(quoted >= 2, "the guides no longer quote the event count");
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

/// Every committed result is checked: each file under `results/` is named
/// by a step of the CI workflow (a comment does not count), except the
/// ones in `UNCHECKED`, which no step regenerates yet. That set only
/// shrinks: a file in it that a step starts to name, or that is deleted,
/// fails here until it leaves the set.
#[test]
fn every_result_is_named_by_a_ci_step() {
    const UNCHECKED: [&str; 3] = ["fig2.txt", "fig8.txt", "scenario_all.txt"];
    let steps: String = read(".github/workflows/ci.yml")
        .lines()
        .filter(|line| !line.trim_start().starts_with('#'))
        .map(|line| format!("{line}\n"))
        .collect();
    let results: Vec<String> = std::fs::read_dir(repo_root().join("results"))
        .expect("read results/")
        .map(|entry| {
            entry
                .expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    let mut wrong = Vec::new();
    for file in &results {
        let named = steps.contains(&format!("results/{file}"));
        match (named, UNCHECKED.contains(&file.as_str())) {
            (false, false) => wrong.push(format!("no CI step names results/{file}")),
            (true, true) => wrong.push(format!(
                "results/{file} is checked now: drop it from UNCHECKED"
            )),
            _ => {}
        }
    }
    for file in UNCHECKED {
        if !results.iter().any(|r| r == file) {
            wrong.push(format!("results/{file} is gone: drop it from UNCHECKED"));
        }
    }
    assert!(
        results.len() > UNCHECKED.len(),
        "results/ looks empty: {results:?}"
    );
    assert!(wrong.is_empty(), "{wrong:?}");
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

/// Every `.rs` file under `dir`, at any depth, appended to `out`.
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

/// The `.rs` files under `crates/*/src` whose text satisfies `needle`, as
/// sorted repo-relative paths.
fn sources_containing(needle: impl Fn(&str) -> bool) -> Vec<String> {
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
/// arguments and loads a `--check` baseline; every bench binary parses
/// its command line with `Cli::parse` (which refuses an argument the
/// binary does not name), asks its `Cli` for flags and hands `Cli::check`
/// its gate list.
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
        if !text.contains("Cli::parse(") {
            offenders.push(format!("{name} never parses its command line"));
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

/// The runtime wraps neither of its seams: each shard's head names its
/// own nodes, so no adapter `Substrate` or `Probe` translates node ids
/// behind it, and no lock shares a node view between the two. Test
/// modules (a file from its first `#[cfg(test)]` on) may stub either.
#[test]
fn the_runtime_wraps_neither_seam() {
    let wrappers: Vec<String> = sources_containing(|text| {
        let code = text.split("#[cfg(test)]").next().unwrap_or_default();
        // Without `impl`, so a generic `impl<S> Substrate for` counts.
        ["Substrate for", "Probe for", "RwLock"]
            .iter()
            .any(|needle| code.contains(needle))
    })
    .into_iter()
    .filter(|path| path.starts_with("crates/runtime/src/"))
    .collect();
    assert!(
        wrappers.is_empty(),
        "the runtime wraps a seam outside its tests: {wrappers:?}"
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

/// The code of a source file: its text up to the first `#[cfg(test)]`.
fn code_of(name: &str) -> String {
    let text = read(name);
    text.split("#[cfg(test)]")
        .next()
        .unwrap_or_default()
        .to_string()
}

/// The `pub` fields of `pub struct {ty} { .. }` in `text`.
fn struct_fields(text: &str, ty: &str) -> Vec<String> {
    let start = text
        .find(&format!("pub struct {ty} {{"))
        .unwrap_or_else(|| panic!("no `pub struct {ty}`"));
    text[start..]
        .lines()
        .skip(1)
        .take_while(|line| !line.starts_with('}'))
        .filter_map(|line| line.trim().strip_prefix("pub "))
        .filter_map(|field| field.split_once(':').map(|(name, _)| name.to_string()))
        .collect()
}

/// Whether `word` occurs in `text` at `at` as a whole identifier.
fn is_word_at(text: &str, at: usize, word: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    !text[..at].ends_with(ident) && !text[at + word.len()..].starts_with(ident)
}

/// Whether `code` sets field `field` of a `ty`: by assignment
/// (`x.field = ..`) anywhere, or inside a `ty { .. }` literal
/// (`field: ..` or the `field` shorthand).
fn sets_field(code: &str, ty: &str, field: &str) -> bool {
    let assigned = code.match_indices(&format!(".{field}")).any(|(at, m)| {
        let rest = code[at + m.len()..].trim_start();
        is_word_at(code, at + 1, field) && rest.starts_with('=') && !rest.starts_with("==")
    });
    let literal = format!("{ty} {{");
    assigned
        || code.match_indices(&literal).any(|(at, m)| {
            let body_start = at + m.len();
            let mut depth = 1;
            let len = code[body_start..]
                .find(|c| {
                    depth += match c {
                        '{' => 1,
                        '}' => -1,
                        _ => 0,
                    };
                    depth == 0
                })
                .unwrap_or(code.len() - body_start);
            let body = &code[body_start..body_start + len];
            body.match_indices(field).any(|(i, _)| {
                let rest = body[i + field.len()..].trim_start();
                is_word_at(body, i, field)
                    && (rest.is_empty()
                        || rest.starts_with(',')
                        || (rest.starts_with(':') && !rest.starts_with("::")))
            })
        })
}

/// Every setting has a caller. A `SimConfig` field that `SimConfig::new`
/// does not take, a `RunOptions` setter and a field of a policy params
/// struct (`crates/core/src/sched/*.rs`) must each be set by a bench
/// binary, the live service or `SchedulerKind::build`; tests, examples,
/// docs and the integration rig do not count. A value only they set is a
/// constant in disguise, and the code only it reaches runs in no
/// benchmark. A `ClientOptions` setter and a `RenderSettings` field must
/// each be set by Rust code outside the file that defines it, tests and
/// examples included (they are `RemoteClient`'s only callers): one that
/// nothing sets is a constant in disguise too.
#[test]
fn every_setting_has_a_caller() {
    let sources = sources_containing(|_| true);
    let callers: String = sources
        .iter()
        .filter(|path| {
            ["crates/bench/src/", "crates/service/src/"]
                .iter()
                .any(|dir| path.starts_with(dir))
                || *path == "crates/core/src/sched/mod.rs"
        })
        .map(|path| code_of(path))
        .collect();

    let mut settings: Vec<(String, String)> = Vec::new();
    let engine = code_of("crates/sim/src/engine.rs");
    let new_args = engine
        .split("impl SimConfig {")
        .nth(1)
        .and_then(|rest| rest.split("pub fn new(").nth(1))
        .and_then(|rest| rest.split(')').next())
        .expect("SimConfig::new");
    for field in struct_fields(&engine, "SimConfig") {
        if !new_args.contains(&format!("{field}:")) {
            settings.push(("SimConfig".into(), field));
        }
    }
    for path in sources
        .iter()
        .filter(|p| p.starts_with("crates/core/src/sched/"))
    {
        let code = code_of(path);
        for decl in code.split("pub struct ").skip(1) {
            let ty = decl
                .split(|c: char| !c.is_alphanumeric())
                .next()
                .unwrap_or_default();
            if ty.ends_with("Params") {
                settings.extend(struct_fields(&code, ty).into_iter().map(|f| (ty.into(), f)));
            }
        }
    }
    let mut unset: Vec<String> = settings
        .iter()
        .filter(|(ty, field)| !sets_field(&callers, ty, field))
        .map(|(ty, field)| format!("{ty}::{field}"))
        .collect();
    let options = code_of("crates/sim/src/options.rs");
    for decl in options.split("pub fn ").skip(1) {
        let (name, args) = decl.split_once('(').expect("fn arguments");
        if args.trim_start().starts_with("mut self") && !callers.contains(&format!(".{name}(")) {
            unset.push(format!("RunOptions::{name}"));
        }
    }
    assert!(
        settings.len() > 5 && unset.is_empty(),
        "settings no bench binary, service or SchedulerKind::build sets: {unset:?}"
    );

    let outside = |defining: &str| -> String {
        let mut files = Vec::new();
        for dir in ["crates", "tests", "examples"] {
            rust_files(&repo_root().join(dir), &mut files);
        }
        files
            .iter()
            .filter(|path| !path.ends_with(defining))
            .map(|path| std::fs::read_to_string(path).expect("read source file"))
            .collect()
    };
    let tcp = "crates/service/src/tcp.rs";
    let (client, client_callers) = (code_of(tcp), outside(tcp));
    let setters = client
        .split("impl ClientOptions {")
        .nth(1)
        .and_then(|rest| rest.split("\n}\n").next())
        .expect("impl ClientOptions");
    let mut knobs = Vec::new();
    for decl in setters.split("pub fn ").skip(1) {
        let (name, args) = decl.split_once('(').expect("fn arguments");
        if args
            .trim_start()
            .trim_start_matches("mut ")
            .starts_with("self")
        {
            knobs.push((
                format!("ClientOptions::{name}"),
                client_callers.contains(&format!(".{name}(")),
            ));
        }
    }
    let raycast = "crates/render/src/raycast.rs";
    let render_callers = outside(raycast);
    for field in struct_fields(&code_of(raycast), "RenderSettings") {
        let set = sets_field(&render_callers, "RenderSettings", &field);
        knobs.push((format!("RenderSettings::{field}"), set));
    }
    let unset: Vec<&String> = knobs
        .iter()
        .filter(|(_, set)| !set)
        .map(|(knob, _)| knob)
        .collect();
    assert!(
        knobs.len() > 5 && unset.is_empty(),
        "client and render settings nothing outside their own file sets: {unset:?}"
    );
}
