//! Trace file I/O: plain one-timestamp-per-line text (the common export
//! format of the Azure/Twitter/Alibaba datasets) and CSV with a header.
//! Lets downstream users run the whole pipeline on their own traces.

use crate::trace::Trace;
use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;

/// Errors from trace file parsing.
#[derive(Debug)]
pub enum TraceIoError {
    Io(std::io::Error),
    Parse {
        line: usize,
        content: String,
    },
    /// A timestamp below zero: traces start at time 0.
    Negative {
        line: usize,
        value: f64,
    },
    /// A `horizon=` header that is not a finite, positive number, or that
    /// lies below the last timestamp (a trace covers `[0, horizon)`).
    Horizon {
        content: String,
    },
    Empty,
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "io error: {e}"),
            TraceIoError::Parse { line, content } => {
                write!(f, "unparsable timestamp at line {line}: {content:?}")
            }
            TraceIoError::Negative { line, value } => {
                write!(f, "negative timestamp at line {line}: {value}")
            }
            TraceIoError::Horizon { content } => {
                write!(
                    f,
                    "horizon must be finite, positive and not below the last timestamp, got {content:?}"
                )
            }
            TraceIoError::Empty => write!(f, "trace file contains no timestamps"),
        }
    }
}

impl std::error::Error for TraceIoError {}

impl From<std::io::Error> for TraceIoError {
    fn from(e: std::io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

/// Read a trace from a text file: one timestamp (seconds, f64) per line.
/// Lines starting with `#` and a leading `timestamp` CSV header are
/// skipped. The horizon is `max(timestamp) + mean interarrival` unless
/// `horizon` is given; a given horizon below the last timestamp is an
/// error (a stamp exactly at it is kept).
pub(crate) fn read_trace(
    path: impl AsRef<Path>,
    horizon: Option<f64>,
) -> Result<Trace, TraceIoError> {
    let file = fs::File::open(path)?;
    let mut ts = Vec::new();
    for (i, line) in BufReader::new(file).lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        if i == 0 && t.chars().next().is_some_and(|c| c.is_alphabetic()) {
            continue; // header row
        }
        // Accept "ts" or "ts,anything" rows.
        let field = t.split(',').next().unwrap_or(t).trim();
        match field.parse::<f64>() {
            Ok(v) if v < 0.0 => {
                return Err(TraceIoError::Negative {
                    line: i + 1,
                    value: v,
                })
            }
            Ok(v) if v.is_finite() => ts.push(v),
            _ => {
                return Err(TraceIoError::Parse {
                    line: i + 1,
                    content: t.to_string(),
                })
            }
        }
    }
    ts.sort_by(f64::total_cmp);
    let Some(&last) = ts.last() else {
        return Err(TraceIoError::Empty);
    };
    let h = match horizon {
        // Equality stays accepted: rebasing can round a stamp onto it.
        Some(h) if h < last => {
            return Err(TraceIoError::Horizon {
                content: format!("{h} (last timestamp {last})"),
            })
        }
        Some(h) => h,
        None => {
            let mean_ia = if ts.len() > 1 {
                (last - ts[0]) / (ts.len() - 1) as f64
            } else {
                1.0
            };
            last + mean_ia.max(1e-9)
        }
    };
    Ok(Trace::new(ts, h))
}

/// Write a trace as one timestamp per line with a `# horizon=` comment.
pub fn write_trace(trace: &Trace, path: impl AsRef<Path>) -> std::io::Result<()> {
    if let Some(dir) = path.as_ref().parent() {
        fs::create_dir_all(dir)?;
    }
    let mut f = fs::File::create(path)?;
    writeln!(f, "# deepbat trace, horizon={}", trace.horizon())?;
    for t in trace.timestamps() {
        writeln!(f, "{t}")?;
    }
    Ok(())
}

/// Read a trace written by [`write_trace`], recovering the exact horizon.
/// A horizon header that is not a finite, positive number, or that lies
/// below the last timestamp, is an error.
pub fn read_trace_auto(path: impl AsRef<Path>) -> Result<Trace, TraceIoError> {
    // Peek the first line for the horizon comment.
    let content = fs::read_to_string(&path)?;
    let horizon = match content
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("# deepbat trace, horizon="))
    {
        None => None,
        Some(h) => match h.trim().parse::<f64>() {
            Ok(v) if v.is_finite() && v > 0.0 => Some(v),
            _ => {
                return Err(TraceIoError::Horizon {
                    content: h.to_string(),
                })
            }
        },
    };
    read_trace(path, horizon)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A directory of this test's own (pid + test name); the test removes
    /// it when done.
    fn tmp(test: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dbat_io_{test}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn roundtrip_preserves_trace() {
        let tr = Trace::new(vec![0.5, 1.25, 7.0], 10.0);
        let dir = tmp("roundtrip");
        let p = dir.join("trace.txt");
        write_trace(&tr, &p).unwrap();
        let back = read_trace_auto(&p).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(back.timestamps(), tr.timestamps());
        assert_eq!(back.horizon(), 10.0);
    }

    #[test]
    fn reads_csv_with_header_and_comments() {
        let dir = tmp("csv");
        let p = dir.join("trace.csv");
        std::fs::write(&p, "timestamp,extra\n# comment\n1.0,a\n0.5,b\n\n2.5,c\n").unwrap();
        let tr = read_trace(&p, Some(5.0)).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(tr.timestamps(), &[0.5, 1.0, 2.5]);
        assert_eq!(tr.horizon(), 5.0);
    }

    #[test]
    fn default_horizon_extends_past_last_arrival() {
        let dir = tmp("horizon");
        let p = dir.join("trace.txt");
        std::fs::write(&p, "0.0\n1.0\n2.0\n").unwrap();
        let tr = read_trace(&p, None).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert!(tr.horizon() > 2.0);
        assert_eq!(tr.len(), 3);
    }

    #[test]
    fn parse_error_reports_line() {
        let dir = tmp("bad");
        let p = dir.join("trace.txt");
        std::fs::write(&p, "1.0\nnot-a-number\n").unwrap();
        let got = read_trace(&p, None);
        std::fs::remove_dir_all(&dir).ok();
        match got {
            Err(TraceIoError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    /// Hostile files come back as typed errors, never as a panic inside
    /// `Trace::new`.
    #[test]
    fn malformed_horizons_and_negative_stamps_rejected() {
        let dir = tmp("malformed");
        let p = dir.join("trace.txt");
        let read = |text: &str| {
            std::fs::write(&p, text).unwrap();
            read_trace_auto(&p)
        };
        for h in ["0", "-1", "NaN", "inf", "-inf", "soon"] {
            let got = read(&format!("# deepbat trace, horizon={h}\n0.5\n1.0\n"));
            assert!(
                matches!(got, Err(TraceIoError::Horizon { .. })),
                "horizon={h}: {got:?}"
            );
        }
        // Only negative stamps: the derived horizon would be -1.
        let got = read("-5\n-3\n");
        assert!(
            matches!(got, Err(TraceIoError::Negative { line: 1, .. })),
            "{got:?}"
        );
        let got = read("# deepbat trace, horizon=10\n1.0\n-0.5\n");
        assert!(
            matches!(got, Err(TraceIoError::Negative { line: 3, .. })),
            "{got:?}"
        );
        // A horizon below the last stamp would break the trace's
        // `[0, horizon)`; a stamp exactly at the horizon is kept.
        let got = read("# deepbat trace, horizon=2\n1\n5\n");
        assert!(matches!(got, Err(TraceIoError::Horizon { .. })), "{got:?}");
        let got = read("# deepbat trace, horizon=5\n1\n5\n");
        assert!(
            matches!(&got, Ok(t) if t.horizon() == 5.0 && t.len() == 2),
            "{got:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_file_rejected() {
        let dir = tmp("empty");
        let p = dir.join("trace.txt");
        std::fs::write(&p, "# nothing\n").unwrap();
        let got = read_trace(&p, None);
        std::fs::remove_dir_all(&dir).ok();
        assert!(matches!(got, Err(TraceIoError::Empty)));
    }
}
