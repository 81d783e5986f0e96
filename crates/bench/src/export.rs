//! CSV export of experiment data (for external plotting).
//!
//! `repro <exp> --csv <dir>` writes the figure's underlying series next to
//! the printed report, one file per curve set, with a header row.

use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// A CSV writer rooted at an output directory.
#[derive(Debug, Clone)]
pub(crate) struct CsvExporter {
    dir: PathBuf,
}

impl CsvExporter {
    /// Creates the exporter (and the directory).
    pub(crate) fn new(dir: &Path) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        Ok(Self {
            dir: dir.to_path_buf(),
        })
    }

    /// Writes named columns of equal length as `<name>.csv`. Shorter
    /// columns are padded with empty cells.
    pub(crate) fn write_columns(
        &self,
        name: &str,
        columns: &[(&str, &[f64])],
    ) -> io::Result<PathBuf> {
        let path = self.dir.join(format!("{name}.csv"));
        let mut f = io::BufWriter::new(std::fs::File::create(&path)?);
        let header: Vec<&str> = columns.iter().map(|(h, _)| *h).collect();
        writeln!(f, "{}", header.join(","))?;
        let rows = columns.iter().map(|(_, c)| c.len()).max().unwrap_or(0);
        for i in 0..rows {
            let cells: Vec<String> = columns
                .iter()
                .map(|(_, c)| c.get(i).map(|v| format!("{v}")).unwrap_or_default())
                .collect();
            writeln!(f, "{}", cells.join(","))?;
        }
        f.flush()?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp() -> PathBuf {
        let d = std::env::temp_dir().join("triplec_csv_tests");
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn columns_round_trip() {
        let e = CsvExporter::new(&tmp()).unwrap();
        let a = [1.0, 2.0, 3.0];
        let b = [10.0, 20.0];
        let p = e.write_columns("test", &[("a", &a), ("b", &b)]).unwrap();
        let text = std::fs::read_to_string(p).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "a,b");
        assert_eq!(lines[1], "1,10");
        assert_eq!(lines[3], "3,");
    }
}
