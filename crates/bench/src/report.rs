//! Plain-text table printing for the ablation binaries. Output is aligned
//! columns (readable in a terminal, trivially machine-parseable).

/// Print a figure/table header banner.
pub fn banner(id: &str, title: &str) {
    println!();
    println!("================================================================");
    println!("{id}: {title}");
    println!("================================================================");
}

/// Print an aligned table: `headers` then one row per entry.
pub fn table(headers: &[&str], rows: &[Vec<String>]) {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width mismatch");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: Vec<&str>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:>width$}  ", c, width = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.to_vec());
    line(widths.iter().map(|_| "--").collect());
    for row in rows {
        line(row.iter().map(|s| s.as_str()).collect());
    }
}

/// Format a float with a fixed number of decimals.
pub fn f(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

/// Format a goodput as requests/second with its SLO-attainment share —
/// the two numbers every token-discipline table wants side by side.
pub fn goodput_rps(g: &dbat_sim::Goodput) -> String {
    format!("{:.2}", g.rps())
}

/// Format the SLO-attainment percentage of a goodput cell.
pub fn goodput_pct(g: &dbat_sim::Goodput) -> String {
    format!("{:.1}%", g.attainment_pct())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_helpers() {
        assert_eq!(f(1.23456, 2), "1.23");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn ragged_rows_panic() {
        table(&["a", "b"], &[vec!["1".into()]]);
    }

    #[test]
    fn goodput_columns() {
        let g = dbat_sim::Goodput {
            served: 200,
            ok: 150,
            horizon_s: 100.0,
        };
        assert_eq!(goodput_rps(&g), "1.50");
        assert_eq!(goodput_pct(&g), "75.0%");
        let empty = dbat_sim::Goodput::default();
        assert_eq!(goodput_rps(&empty), "0.00");
        assert_eq!(goodput_pct(&empty), "0.0%");
    }
}
