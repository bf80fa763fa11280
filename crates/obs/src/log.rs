//! Level-filtered structured event log.
//!
//! The maximum level comes from the `TOMO_LOG` environment variable
//! (`error`, `warn`, `info`, `debug`, `trace`, or `off`; default `warn`)
//! and can be overridden programmatically with [`set_max_level`]. Events
//! below the threshold cost one relaxed atomic load. Enabled events
//! render a human-readable line to stderr.

use std::sync::atomic::{AtomicU8, Ordering};

/// Event severity, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Unrecoverable or wrong results.
    Error = 1,
    /// Suspicious but recoverable.
    Warn = 2,
    /// High-level progress.
    Info = 3,
    /// Per-operation detail.
    Debug = 4,
    /// Inner-loop detail.
    Trace = 5,
}

impl Level {
    /// Short uppercase label.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "ERROR",
            Level::Warn => "WARN",
            Level::Info => "INFO",
            Level::Debug => "DEBUG",
            Level::Trace => "TRACE",
        }
    }

    /// Parses a level name (case-insensitive); `"off"` yields `None`.
    #[must_use]
    pub fn parse(s: &str) -> Option<Option<Level>> {
        match s.to_ascii_lowercase().as_str() {
            "off" | "none" | "0" => Some(None),
            "error" => Some(Some(Level::Error)),
            "warn" | "warning" => Some(Some(Level::Warn)),
            "info" => Some(Some(Level::Info)),
            "debug" => Some(Some(Level::Debug)),
            "trace" => Some(Some(Level::Trace)),
            _ => None,
        }
    }
}

/// Sentinel meaning "not yet initialised from the environment".
const UNSET: u8 = u8::MAX;
/// Stored max level: 0 = off, 1..=5 = `Level`, `UNSET` = lazy init pending.
static MAX_LEVEL: AtomicU8 = AtomicU8::new(UNSET);

fn current_max() -> u8 {
    let v = MAX_LEVEL.load(Ordering::Relaxed);
    if v != UNSET {
        return v;
    }
    let from_env = std::env::var("TOMO_LOG")
        .ok()
        .and_then(|s| Level::parse(&s))
        .unwrap_or(Some(Level::Warn));
    let encoded = from_env.map_or(0, |l| l as u8);
    MAX_LEVEL.store(encoded, Ordering::Relaxed);
    encoded
}

/// Overrides the maximum level (`None` disables logging entirely).
pub fn set_max_level(level: Option<Level>) {
    MAX_LEVEL.store(level.map_or(0, |l| l as u8), Ordering::Relaxed);
}

/// Whether events at `level` are currently emitted.
#[must_use]
pub fn log_enabled(level: Level) -> bool {
    level as u8 <= current_max()
}

/// Emits one event unconditionally — call [`log_enabled`] first (the
/// `event!`/`info!`/… macros do).
pub fn log_record(level: Level, target: &str, message: &str) {
    eprintln!("[{:5} {target}] {message}", level.as_str());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_by_severity() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Debug < Level::Trace);
    }

    #[test]
    fn parse_accepts_names_and_off() {
        assert_eq!(Level::parse("TRACE"), Some(Some(Level::Trace)));
        assert_eq!(Level::parse("warning"), Some(Some(Level::Warn)));
        assert_eq!(Level::parse("off"), Some(None));
        assert_eq!(Level::parse("nonsense"), None);
    }

    #[test]
    fn filtering_follows_max_level() {
        set_max_level(Some(Level::Info));
        assert!(log_enabled(Level::Error));
        assert!(log_enabled(Level::Info));
        assert!(!log_enabled(Level::Debug));
        set_max_level(None);
        assert!(!log_enabled(Level::Error));
        set_max_level(Some(Level::Warn));
    }
}
