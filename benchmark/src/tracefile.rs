//! Writes a traced invocation's spans to `out/trace-<workload>.json`.
//!
//! One flat list of spans, each with an id, a name, start and end in
//! nanoseconds since the process epoch, the id of the span that contains
//! it, the run it belongs to and the thread it ran on. The hierarchy is
//! `run` → `round` (one per thread and round; `event` for the event
//! executor) → adapter phases (`adapters.*`) and runtime gaps (`exec.*`).

use crate::layers::TracedRunFile;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Directory the trace files go to: `out/` next to this package's
/// manifest (ignored by git).
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Row<'a> {
    name: &'a str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    run: usize,
    thread: u32,
    round: Option<u64>,
}

/// A phase or gap before it has a parent.
struct Leaf<'a> {
    name: &'a str,
    start_ns: u64,
    end_ns: u64,
}

/// Flatten `runs` into parent-linked rows, ids = positions + 1.
fn rows<'a>(runs: &'a [TracedRunFile], group: &'a str) -> Vec<Row<'a>> {
    let mut rows = Vec::new();
    for (run, r) in runs.iter().enumerate() {
        rows.push(Row {
            name: "run",
            start_ns: r.start_ns,
            end_ns: r.end_ns,
            parent: None,
            run,
            thread: 0,
            round: None,
        });
        let run_id = rows.len();
        // (thread, round) → extent, then children under each.
        let leaves = r
            .spans
            .iter()
            .map(|s| (s.phase.span_name(), s.thread, s.round, s.start_ns, s.end_ns))
            .chain(
                r.gaps
                    .iter()
                    .map(|g| (g.name, g.thread, g.round, g.start_ns, g.end_ns)),
            );
        let mut groups: BTreeMap<(u32, u64), Vec<Leaf>> = BTreeMap::new();
        for (name, thread, round, start_ns, end_ns) in leaves {
            groups.entry((thread, round)).or_default().push(Leaf {
                name,
                start_ns,
                end_ns,
            });
        }
        for ((thread, round), children) in groups {
            let start_ns = children.iter().map(|c| c.start_ns).min().unwrap_or(0);
            let end_ns = children.iter().map(|c| c.end_ns).max().unwrap_or(0);
            rows.push(Row {
                name: group,
                start_ns,
                end_ns,
                parent: Some(run_id),
                run,
                thread,
                round: Some(round),
            });
            let group_id = rows.len();
            for leaf in children {
                rows.push(Row {
                    name: leaf.name,
                    start_ns: leaf.start_ns,
                    end_ns: leaf.end_ns,
                    parent: Some(group_id),
                    run,
                    thread,
                    round: Some(round),
                });
            }
        }
    }
    rows
}

/// Write the span file; returns its path and the number of spans.
pub fn write(
    workload: &str,
    seed: u64,
    group: &str,
    runs: &[TracedRunFile],
) -> std::io::Result<(PathBuf, usize)> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{workload}.json"));
    let mut w = BufWriter::new(File::create(&path)?);
    let rows = rows(runs, group);
    writeln!(
        w,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": ["
    )?;
    for (i, r) in rows.iter().enumerate() {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        writeln!(
            w,
            "{{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \
             \"run\": {}, \"thread\": {}, \"round\": {}}}{}",
            i + 1,
            r.name,
            r.start_ns,
            r.end_ns,
            opt(r.parent.map(|p| p as u64)),
            r.run,
            r.thread,
            opt(r.round),
            if i + 1 < rows.len() { "," } else { "" }
        )?;
    }
    writeln!(w, "]}}")?;
    w.flush()?;
    Ok((path, rows.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traced::{Gap, Phase, Span};

    #[test]
    fn spans_nest_under_rounds_under_runs() {
        let span = |phase, round, start_ns, end_ns| Span {
            phase,
            round,
            thread: 0,
            start_ns,
            end_ns,
        };
        let runs = vec![TracedRunFile {
            start_ns: 0,
            end_ns: 100,
            spans: vec![
                span(Phase::Emit, 0, 10, 20),
                span(Phase::RoundEnd, 0, 25, 30),
                span(Phase::Emit, 1, 40, 50),
            ],
            gaps: vec![Gap {
                name: "exec.order",
                round: 0,
                thread: 0,
                start_ns: 20,
                end_ns: 25,
            }],
        }];
        let rows = rows(&runs, "round");
        let names: Vec<&str> = rows.iter().map(|r| r.name).collect();
        assert_eq!(
            names,
            [
                "run",
                "round",
                "adapters.emit",
                "adapters.round_end",
                "exec.order",
                "round",
                "adapters.emit"
            ]
        );
        assert_eq!(rows[0].parent, None);
        assert_eq!(rows[1].parent, Some(1));
        assert_eq!((rows[1].start_ns, rows[1].end_ns), (10, 30));
        assert!(rows[2..5].iter().all(|r| r.parent == Some(2)));
        assert_eq!(rows[5].parent, Some(1));
        assert_eq!(rows[6].parent, Some(6));
    }
}
