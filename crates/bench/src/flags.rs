//! The figure binaries' flag parser: switches (`--csv`) and
//! `--name value` pairs. A value that does not parse is an error, never
//! a silent fallback to the default.
//!
//! ```
//! use predllc_bench::flags::Flags;
//!
//! let flags = Flags::new(vec!["--csv".into(), "--ops".into(), "500".into()]);
//! assert!(flags.has("--csv"));
//! assert_eq!(flags.value("--ops", 2_000usize), Ok(500));
//! assert_eq!(flags.value("--seed", 7u64), Ok(7));
//! assert!(Flags::new(vec!["--ops".into(), "many".into()]).value("--ops", 1usize).is_err());
//! ```

use std::str::FromStr;

/// A binary's arguments, with `--quiet` / `--verbose` already consumed.
#[derive(Debug, Clone)]
pub struct Flags {
    args: Vec<String>,
}

impl Flags {
    /// The process's arguments after the program name, passed through
    /// [`crate::log::init`] (which sets the log level).
    pub fn from_env() -> Flags {
        Flags::new(crate::log::init(std::env::args().skip(1).collect()))
    }

    /// Wraps an argument list.
    pub fn new(args: Vec<String>) -> Flags {
        Flags { args }
    }

    /// Whether the switch `flag` is present.
    pub fn has(&self, flag: &str) -> bool {
        self.args.iter().any(|a| a == flag)
    }

    /// The argument after `flag` parsed as `T`, or `default` when `flag`
    /// is absent.
    ///
    /// # Errors
    ///
    /// A message naming `flag` when it is the last argument or its value
    /// does not parse as `T`.
    pub fn value<T: FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        let Some(at) = self.args.iter().position(|a| a == flag) else {
            return Ok(default);
        };
        let raw = self
            .args
            .get(at + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        raw.parse()
            .map_err(|_| format!("{flag}: cannot parse '{raw}'"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Flags {
        Flags::new(args.iter().map(|a| a.to_string()).collect())
    }

    #[test]
    fn values_parse_or_fail_loudly() {
        let f = flags(&["--writes", "0.5", "--seed", "-3", "--ops"]);
        assert_eq!(f.value("--writes", 0.0f64), Ok(0.5));
        assert_eq!(f.value("--absent", 9u64), Ok(9));
        assert_eq!(
            f.value("--seed", 0u64),
            Err("--seed: cannot parse '-3'".into())
        );
        assert_eq!(f.value("--ops", 0usize), Err("--ops needs a value".into()));
        assert!(!f.has("--csv") && f.has("--ops"));
    }
}
