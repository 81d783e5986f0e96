//! Plain-text table and series rendering for the experiment reports.

/// Renders a table with a header row and aligned columns.
pub(crate) fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let sep = |out: &mut String| {
        for w in &widths {
            out.push('+');
            out.push_str(&"-".repeat(w + 2));
        }
        out.push_str("+\n");
    };
    sep(&mut out);
    for (i, h) in headers.iter().enumerate() {
        out.push_str(&format!("| {:<w$} ", h, w = widths[i]));
    }
    out.push_str("|\n");
    sep(&mut out);
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            out.push_str(&format!("| {:<w$} ", cell, w = widths[i]));
        }
        out.push_str("|\n");
    }
    sep(&mut out);
    out
}

/// Renders a numeric series as a coarse ASCII strip chart (one row per
/// sample bucket), used for the Fig. 3 / Fig. 7 trace visualizations.
pub(crate) fn strip_chart(
    title: &str,
    series: &[(&str, &[f64])],
    height: usize,
    buckets: usize,
) -> String {
    let mut out = format!("{title}\n");
    let all: Vec<f64> = series.iter().flat_map(|(_, s)| s.iter().copied()).collect();
    if all.is_empty() || buckets == 0 || height == 0 {
        return out;
    }
    let lo = all.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = all.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-9);
    let marks = ['*', 'o', '+', 'x'];
    // bucket each series by averaging
    let bucketed: Vec<Vec<f64>> = series
        .iter()
        .map(|(_, s)| {
            (0..buckets)
                .map(|b| {
                    let start = b * s.len() / buckets;
                    let end = (((b + 1) * s.len()) / buckets).max(start + 1).min(s.len());
                    if start >= s.len() {
                        f64::NAN
                    } else {
                        s[start..end].iter().sum::<f64>() / (end - start) as f64
                    }
                })
                .collect()
        })
        .collect();
    for row in (0..height).rev() {
        let level = lo + span * (row as f64 + 0.5) / height as f64;
        let half = span / height as f64 / 2.0;
        let mut line = vec![' '; buckets];
        for (si, bs) in bucketed.iter().enumerate() {
            for (bi, &v) in bs.iter().enumerate() {
                if v.is_finite() && (v - level).abs() <= half {
                    line[bi] = marks[si % marks.len()];
                }
            }
        }
        out.push_str(&format!(
            "{:>9.2} |{}\n",
            level,
            line.iter().collect::<String>()
        ));
    }
    out.push_str(&format!("{:>9} +{}\n", "", "-".repeat(buckets)));
    let legend: Vec<String> = series
        .iter()
        .enumerate()
        .map(|(i, (name, _))| format!("{} {}", marks[i % marks.len()], name))
        .collect();
    out.push_str(&format!("          {}\n", legend.join("   ")));
    out
}

/// Formats bytes as KB with thousands separators (Table 1 style).
pub(crate) fn kb(bytes: usize) -> String {
    let kb = bytes / 1024;
    let s = kb.to_string();
    let mut with_sep = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            with_sep.push(',');
        }
        with_sep.push(c);
    }
    with_sep
}

/// Formats a bandwidth in MB/s.
pub(crate) fn mbs(bytes_per_sec: f64) -> String {
    format!("{:.1}", bytes_per_sec / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = table(
            &["task", "ms"],
            &[
                vec!["RDG".into(), "40.0".into()],
                vec!["MKX_EXT".into(), "2.5".into()],
            ],
        );
        assert!(t.contains("| task    | ms   |"), "table:\n{t}");
        assert!(t.contains("| RDG     | 40.0 |"));
        assert!(t.lines().count() >= 6);
    }

    #[test]
    fn kb_formats_with_separators() {
        assert_eq!(kb(2048 * 1024), "2,048");
        assert_eq!(kb(512 * 1024), "512");
        assert_eq!(kb(7168 * 1024), "7,168");
    }

    #[test]
    fn mbs_formats() {
        assert_eq!(mbs(150.0e6), "150.0");
    }

    #[test]
    fn strip_chart_renders_without_panic() {
        let a: Vec<f64> = (0..100)
            .map(|i| 50.0 + (i as f64 / 10.0).sin() * 10.0)
            .collect();
        let b: Vec<f64> = (0..100).map(|i| 60.0 + (i % 5) as f64).collect();
        let chart = strip_chart("latency", &[("serial", &a), ("managed", &b)], 10, 40);
        assert!(chart.contains("serial"));
        assert!(chart.contains("managed"));
        assert!(chart.lines().count() >= 12);
    }

    #[test]
    fn strip_chart_empty_series_safe() {
        let chart = strip_chart("x", &[("e", &[])], 5, 10);
        assert!(chart.starts_with("x"));
    }
}
