//! A minimal `--flag value` argument parser (no external dependencies).

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};

/// Parsed command-line arguments: one subcommand plus `--key value` flags.
///
/// The getters remember which flags they were asked for, so a subcommand
/// that has read every flag its run uses can reject the rest with
/// [`Args::reject_unread`]: a misspelt flag, or one the chosen mode does
/// not read, is an error rather than silently ignored.
///
/// # Examples
///
/// ```
/// use clocksync_cli::Args;
///
/// let args = Args::parse(["simulate", "--n", "6", "--seed", "7"]
///     .iter().map(|s| s.to_string())).unwrap();
/// assert_eq!(args.command(), "simulate");
/// assert_eq!(args.get_usize("n", 4).unwrap(), 6);
/// assert_eq!(args.get_u64("seed", 0).unwrap(), 7);
/// assert_eq!(args.get_usize("probes", 2).unwrap(), 2); // default
/// assert!(args.reject_unread().is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct Args {
    command: String,
    flags: HashMap<String, String>,
    read: RefCell<BTreeSet<String>>,
}

impl Args {
    /// Parses an iterator of arguments (without the program name).
    ///
    /// `--help` or `-h` where a subcommand or a flag name is expected
    /// parses as the `help` subcommand, whatever else was given.
    ///
    /// # Errors
    ///
    /// Returns a message when no subcommand is given, a flag is missing
    /// its value, a positional argument appears after the subcommand, or a
    /// flag is repeated.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let help = || Args::parse(["help".to_string()]);
        let mut it = args.into_iter();
        let command = match it.next() {
            Some(c) if c == "--help" || c == "-h" => return help(),
            Some(c) if !c.starts_with("--") => c,
            Some(c) => return Err(format!("expected a subcommand, got flag `{c}`")),
            None => return Err("expected a subcommand".to_string()),
        };
        let mut flags = HashMap::new();
        while let Some(key) = it.next() {
            if key == "--help" || key == "-h" {
                return help();
            }
            let Some(name) = key.strip_prefix("--") else {
                return Err(format!("unexpected positional argument `{key}`"));
            };
            let Some(value) = it.next() else {
                return Err(format!("flag --{name} is missing its value"));
            };
            if flags.insert(name.to_string(), value).is_some() {
                return Err(format!("flag --{name} given twice"));
            }
        }
        Ok(Args {
            command,
            flags,
            read: RefCell::default(),
        })
    }

    /// The subcommand.
    pub fn command(&self) -> &str {
        &self.command
    }

    /// A raw string flag, if present. Every other getter reads through
    /// this one, which records `name` as read.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.read.borrow_mut().insert(name.to_string());
        self.flags.get(name).map(String::as_str)
    }

    /// Rejects a flag that was given but never read. Call it once the
    /// subcommand has read every flag its run uses, before the run writes
    /// a file, binds a socket or simulates anything.
    ///
    /// # Errors
    ///
    /// Returns a message naming the (alphabetically first) unread flag
    /// and the subcommand.
    pub fn reject_unread(&self) -> Result<(), String> {
        let read = self.read.borrow();
        match self.flags.keys().filter(|f| !read.contains(*f)).min() {
            None => Ok(()),
            // Two-word subcommands arrive folded (`vopr-run`).
            Some(flag) => Err(format!(
                "flag --{flag} is not read by `{}` with these flags",
                self.command.replacen('-', " ", 1)
            )),
        }
    }

    /// A string flag with a default.
    pub fn get_str<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.get(name).unwrap_or(default)
    }

    /// A required string flag.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing flag.
    pub fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    /// A `usize` flag with a default.
    ///
    /// # Errors
    ///
    /// Returns a message if the value does not parse.
    pub fn get_usize(&self, name: &str, default: usize) -> Result<usize, String> {
        self.parse_flag(name, default)
    }

    /// A `u64` flag with a default.
    ///
    /// # Errors
    ///
    /// Returns a message if the value does not parse.
    pub fn get_u64(&self, name: &str, default: u64) -> Result<u64, String> {
        self.parse_flag(name, default)
    }

    /// An `i64` flag with a default.
    ///
    /// # Errors
    ///
    /// Returns a message if the value does not parse.
    pub fn get_i64(&self, name: &str, default: i64) -> Result<i64, String> {
        self.parse_flag(name, default)
    }

    /// An `f64` flag with a default.
    ///
    /// Only finite values are accepted: `NaN`/`inf` would silently poison
    /// downstream rational conversions, so they are rejected at parse
    /// time. Domain checks beyond finiteness go through
    /// [`Args::get_f64_in`].
    ///
    /// # Errors
    ///
    /// Returns a message if the value does not parse or is not finite.
    pub fn get_f64(&self, name: &str, default: f64) -> Result<f64, String> {
        let v: f64 = self.parse_flag(name, default)?;
        if !v.is_finite() {
            return Err(format!("flag --{name}: `{v}` is not a finite number"));
        }
        Ok(v)
    }

    /// An `f64` flag with a default, constrained to `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// Returns a message if the value does not parse, is not finite, or
    /// falls outside the domain.
    pub fn get_f64_in(&self, name: &str, default: f64, lo: f64, hi: f64) -> Result<f64, String> {
        let v = self.get_f64(name, default)?;
        if v < lo || v > hi {
            return Err(format!(
                "flag --{name}: `{v}` is outside the valid range [{lo}, {hi}]"
            ));
        }
        Ok(v)
    }

    /// A boolean flag, `false` when absent: `true`/`1`/`yes` or
    /// `false`/`0`/`no`.
    ///
    /// # Errors
    ///
    /// Returns a message for any other value.
    pub fn get_bool(&self, name: &str) -> Result<bool, String> {
        match self.get(name) {
            None | Some("false" | "0" | "no") => Ok(false),
            Some("true" | "1" | "yes") => Ok(true),
            Some(v) => Err(format!(
                "flag --{name}: `{v}` is not one of true/false/1/0/yes/no"
            )),
        }
    }

    fn parse_flag<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag --{name}: cannot parse `{v}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(parts: &[&str]) -> Result<Args, String> {
        Args::parse(parts.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_command_and_flags() {
        let a = parse(&["sync", "--in", "run.json", "--json", "true"]).unwrap();
        assert_eq!(a.command(), "sync");
        assert_eq!(a.get("in"), Some("run.json"));
        assert!(a.get_bool("json").unwrap());
        assert!(!a.get_bool("quiet").unwrap());
        assert!(a.reject_unread().is_ok());
    }

    #[test]
    fn booleans_take_six_spellings_and_reject_the_rest() {
        for (v, want) in [
            ("true", true),
            ("1", true),
            ("yes", true),
            ("false", false),
            ("0", false),
            ("no", false),
        ] {
            assert_eq!(
                parse(&["sync", "--json", v]).unwrap().get_bool("json"),
                Ok(want)
            );
        }
        for bad in ["True", "on", ""] {
            let err = parse(&["sync", "--json", bad]).unwrap().get_bool("json");
            assert!(
                err.unwrap_err().contains("--json"),
                "accepted --json {bad:?}"
            );
        }
    }

    #[test]
    fn a_flag_no_getter_read_is_named_with_its_subcommand() {
        let a = parse(&["vopr-run", "--seed", "0", "--seeds", "3", "--count", "x"]).unwrap();
        assert!(a.get_u64("seed", 1).is_ok());
        // A getter that fails to parse still counts its flag as read.
        assert!(a.get_usize("count", 50).is_err());
        let err = a.reject_unread().unwrap_err();
        assert!(
            err.contains("--seeds") && err.contains("`vopr run`"),
            "{err}"
        );
        // Asking for an absent flag reads nothing that was given.
        assert!(a.get("journal").is_none());
        assert!(a.reject_unread().is_err());
        a.get("seeds");
        assert!(a.reject_unread().is_ok());
    }

    #[test]
    fn typed_flags_with_defaults() {
        let a = parse(&["simulate", "--n", "8", "--alpha", "1.5"]).unwrap();
        assert_eq!(a.get_usize("n", 4).unwrap(), 8);
        assert_eq!(a.get_usize("probes", 2).unwrap(), 2);
        assert_eq!(a.get_f64("alpha", 1.0).unwrap(), 1.5);
        assert_eq!(a.get_i64("lo-us", 50).unwrap(), 50);
    }

    #[test]
    fn help_in_subcommand_or_flag_position_is_the_help_subcommand() {
        for parts in [
            &["--help"][..],
            &["-h", "--n", "4"],
            &["sync", "--in", "run.json", "--help"],
            &["vopr-run", "-h", "stray"],
        ] {
            let a = parse(parts).unwrap();
            assert_eq!(a.command(), "help", "{parts:?}");
            assert!(a.reject_unread().is_ok(), "{parts:?}");
        }
        // A flag's value is never read as help.
        let a = parse(&["simulate", "--out", "--help"]).unwrap();
        assert_eq!(a.get("out"), Some("--help"));
    }

    #[test]
    fn error_cases() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--n", "4"]).is_err());
        assert!(parse(&["simulate", "--n"]).is_err());
        assert!(parse(&["simulate", "stray"]).is_err());
        assert!(parse(&["simulate", "--n", "4", "--n", "5"]).is_err());
        let a = parse(&["simulate", "--n", "abc"]).unwrap();
        assert!(a.get_usize("n", 1).is_err());
        assert!(a.require("out").is_err());
    }

    #[test]
    fn non_finite_floats_are_rejected() {
        for bad in ["NaN", "nan", "inf", "-inf", "infinity", "1e999"] {
            let a = parse(&["simulate", "--alpha", bad]).unwrap();
            assert!(a.get_f64("alpha", 1.0).is_err(), "accepted --alpha {bad}");
        }
        // Finite values still pass, including negatives (domain checks
        // are per-flag via get_f64_in).
        let a = parse(&["simulate", "--alpha", "-2.5"]).unwrap();
        assert_eq!(a.get_f64("alpha", 1.0).unwrap(), -2.5);
    }

    #[test]
    fn domain_checked_floats() {
        let a = parse(&["simulate", "--loss-ppm", "2000000"]).unwrap();
        assert!(a.get_f64_in("loss-ppm", 0.0, 0.0, 1_000_000.0).is_err());
        let a = parse(&["simulate", "--loss-ppm", "-1"]).unwrap();
        assert!(a.get_f64_in("loss-ppm", 0.0, 0.0, 1_000_000.0).is_err());
        let a = parse(&["simulate", "--loss-ppm", "300000"]).unwrap();
        assert_eq!(
            a.get_f64_in("loss-ppm", 0.0, 0.0, 1_000_000.0).unwrap(),
            300_000.0
        );
        // The default itself is not range-checked away.
        let a = parse(&["simulate"]).unwrap();
        assert_eq!(
            a.get_f64_in("loss-ppm", 0.0, 0.0, 1_000_000.0).unwrap(),
            0.0
        );
    }
}
