//! Leveled stderr logging with a `DEEPBAT_LOG` environment filter.
//!
//! The filter is parsed once, on first use. Accepted values (case
//! insensitive): `off`, `error`, `warn`, `info`, `debug`, `trace`.
//! Unset or unrecognised values default to `info`, which matches the
//! verbosity of the `eprintln!` progress lines these macros replace.

use std::sync::OnceLock;

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    Error = 0,
    Warn = 1,
    Info = 2,
    Debug = 3,
    Trace = 4,
}

impl Level {
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Level::Error => "ERROR",
            Level::Warn => "WARN",
            Level::Info => "INFO",
            Level::Debug => "DEBUG",
            Level::Trace => "TRACE",
        }
    }
}

/// Parse a `DEEPBAT_LOG`-style filter string. `None` means `off`.
pub(crate) fn parse_filter(s: &str) -> Option<Level> {
    match s.trim().to_ascii_lowercase().as_str() {
        "off" | "none" | "0" => None,
        "error" => Some(Level::Error),
        "warn" | "warning" => Some(Level::Warn),
        "debug" => Some(Level::Debug),
        "trace" => Some(Level::Trace),
        // "info", empty, and anything unrecognised fall back to info.
        _ => Some(Level::Info),
    }
}

fn max_level() -> Option<Level> {
    static FILTER: OnceLock<Option<Level>> = OnceLock::new();
    *FILTER.get_or_init(|| match std::env::var("DEEPBAT_LOG") {
        Ok(v) => parse_filter(&v),
        Err(_) => Some(Level::Info),
    })
}

/// Whether a message at `level` passes the `DEEPBAT_LOG` filter.
pub(crate) fn enabled(level: Level) -> bool {
    match max_level() {
        Some(max) => level <= max,
        None => false,
    }
}

/// Backing function for the log macros; prefer those at call sites.
pub fn log(level: Level, target: &str, args: std::fmt::Arguments<'_>) {
    if enabled(level) {
        eprintln!("[{:5} {target}] {args}", level.as_str());
    }
}

/// `log_error!("target", "format {}", args)` — always-important failures.
#[macro_export]
macro_rules! log_error {
    ($target:expr, $($arg:tt)*) => {
        $crate::log::log($crate::log::Level::Error, $target, format_args!($($arg)*))
    };
}

/// `log_warn!("target", …)` — recoverable anomalies worth surfacing.
#[macro_export]
macro_rules! log_warn {
    ($target:expr, $($arg:tt)*) => {
        $crate::log::log($crate::log::Level::Warn, $target, format_args!($($arg)*))
    };
}

/// `log_info!("target", …)` — progress lines; the default verbosity.
#[macro_export]
macro_rules! log_info {
    ($target:expr, $($arg:tt)*) => {
        $crate::log::log($crate::log::Level::Info, $target, format_args!($($arg)*))
    };
}

/// `log_debug!("target", …)` — detail for debugging runs.
#[macro_export]
macro_rules! log_debug {
    ($target:expr, $($arg:tt)*) => {
        $crate::log::log($crate::log::Level::Debug, $target, format_args!($($arg)*))
    };
}

/// `log_trace!("target", …)` — very chatty; hot-loop detail.
#[macro_export]
macro_rules! log_trace {
    ($target:expr, $($arg:tt)*) => {
        $crate::log::log($crate::log::Level::Trace, $target, format_args!($($arg)*))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_parsing() {
        assert_eq!(parse_filter("off"), None);
        assert_eq!(parse_filter("0"), None);
        assert_eq!(parse_filter("ERROR"), Some(Level::Error));
        assert_eq!(parse_filter("warn"), Some(Level::Warn));
        assert_eq!(parse_filter(" info "), Some(Level::Info));
        assert_eq!(parse_filter("debug"), Some(Level::Debug));
        assert_eq!(parse_filter("trace"), Some(Level::Trace));
        assert_eq!(parse_filter("bogus"), Some(Level::Info));
    }

    #[test]
    fn level_ordering() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
        assert!(Level::Debug < Level::Trace);
    }

    #[test]
    fn macros_compile_and_run() {
        // Output goes to stderr (filter-dependent); this just exercises the
        // formatting path end to end.
        log_error!("test", "count = {}", 1);
        log_warn!("test", "count = {}", 2);
        log_info!("test", "count = {}", 3);
        log_debug!("test", "count = {}", 4);
        log_trace!("test", "count = {}", 5);
    }
}
