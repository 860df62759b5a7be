//! Table rendering and TSV persistence for experiment results.

use std::fs;
use std::io::{self, Write};
use std::path::Path;

use sbrl_metrics::mean_std;

/// Formats replicate values as the paper's `mean±std` cell. An empty slice
/// (every replication of the cell failed and was skipped) renders as `n/a`
/// so a fully-failed method can never masquerade as a perfect score.
pub fn fmt_mean_std(values: &[f64]) -> String {
    if values.is_empty() {
        return "n/a".to_string();
    }
    let (m, s) = mean_std(values);
    format!("{m:.3}±{s:.3}")
}

/// Formats a plain number cell.
pub fn fmt_num(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a number cell that may be empty (every replication failed) as
/// `n/a`, like [`fmt_mean_std`].
pub fn fmt_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "n/a".to_string(), fmt_num)
}

/// Renders a markdown table with a title.
pub fn render_table(title: &str, header: &[String], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| -> String {
        let padded: Vec<String> =
            cells.iter().zip(&widths).map(|(c, &w)| format!("{c:<w$}")).collect();
        format!("| {} |", padded.join(" | "))
    };
    let sep: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
    let mut out = String::new();
    out.push_str(&format!("\n## {title}\n\n"));
    out.push_str(&fmt_row(header));
    out.push('\n');
    out.push_str(&fmt_row(&sep));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

/// Renders a titled table and persists its rows as `results/<file>`. A TSV
/// that cannot be written is reported on stderr with its path; the table
/// is returned either way.
pub fn save_table(title: &str, file: &str, header: &[String], rows: &[Vec<String>]) -> String {
    let path = results_dir().join(file);
    if let Err(e) = write_tsv(&path, header, rows) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    render_table(title, header, rows)
}

/// Writes a TSV file (creating parent directories) alongside the rendered
/// table so downstream tooling can parse results.
pub fn write_tsv(
    path: impl AsRef<Path>,
    header: &[String],
    rows: &[Vec<String>],
) -> io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    let mut file = io::BufWriter::new(fs::File::create(path)?);
    writeln!(file, "{}", header.join("\t"))?;
    for row in rows {
        writeln!(file, "{}", row.join("\t"))?;
    }
    file.flush()
}

/// Default results directory (`results/` under the workspace root when run
/// via cargo, otherwise the current directory).
pub fn results_dir() -> std::path::PathBuf {
    let base = std::env::var("CARGO_MANIFEST_DIR")
        .map(|d| {
            Path::new(&d)
                .join("../..")
                .canonicalize()
                .unwrap_or_else(|_| Path::new(&d).to_path_buf())
        })
        .unwrap_or_else(|_| Path::new(".").to_path_buf());
    base.join("results")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_std_formatting() {
        assert_eq!(fmt_mean_std(&[1.0, 3.0]), "2.000±1.000");
        assert_eq!(fmt_mean_std(&[]), "n/a");
        assert_eq!(fmt_num(0.12345), "0.123");
        assert_eq!(fmt_opt(Some(0.12345)), "0.123");
        assert_eq!(fmt_opt(None), "n/a");
    }

    #[test]
    fn table_renders_alignment_and_rows() {
        let header = vec!["Method".to_string(), "PEHE".to_string()];
        let rows = vec![
            vec!["CFR".to_string(), "0.5".to_string()],
            vec!["CFR+SBRL-HAP".to_string(), "0.4".to_string()],
        ];
        let t = render_table("Demo", &header, &rows);
        assert!(t.contains("## Demo"));
        assert!(t.contains("| CFR "));
        assert!(t.contains("| CFR+SBRL-HAP |"));
        assert_eq!(t.lines().filter(|l| l.starts_with('|')).count(), 4);
    }

    #[test]
    fn tsv_roundtrip() {
        let dir = std::env::temp_dir().join("sbrl_report_test");
        let path = dir.join("t.tsv");
        let header = vec!["a".to_string(), "b".to_string()];
        let rows = vec![vec!["1".to_string(), "2".to_string()]];
        write_tsv(&path, &header, &rows).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "a\tb\n1\t2\n");
        std::fs::remove_dir_all(&dir).ok();
    }
}
