//! Plain-text table printing for the `live_gateway` and `overhead_tracing`
//! binaries. Output is aligned columns (readable in a terminal, trivially
//! machine-parseable).

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
}
