//! One command-line parser for every binary in the workspace.
//!
//! A binary declares its interface as one usage text, and that text is
//! its flag table: each `[--name META]` is a flag that takes a value,
//! each `[--name]` a switch, and each other word or bracket after the
//! binary's name a positional argument. Text after the first blank
//! line is notes. [`Args::from_env`] parses the command line against
//! the table once, before the binary touches a subject, file or socket.
//! Like the record codec beside it, the parser refuses what it does not
//! understand: an unknown flag, a missing value, a repeated flag or an
//! unexpected positional argument prints `error: …` and the usage to
//! stderr and exits 2. `--help` or `-h` prints the usage to stdout and
//! exits 0. Typed getters read the parsed flags, and a malformed value
//! goes through [`Args::or_exit`] to the same exit-2 path.
//!
//! ```
//! use pdf_runtime::cli::Args;
//!
//! const USAGE: &str = "usage: demo [--jobs N] [--progress]";
//! let args = Args::parse(USAGE, ["--jobs", "4"].map(String::from));
//! let args = args.unwrap().expect("no --help");
//! assert_eq!(args.positive("--jobs", 1), Ok(4));
//! assert!(!args.has("--progress"));
//! assert!(Args::parse(USAGE, ["--jobz", "4"].map(String::from)).is_err());
//! ```

use std::path::PathBuf;
use std::str::FromStr;

/// The flags `usage` declares, each with whether it takes a value, and
/// how many positional arguments it names.
fn table(usage: &str) -> (Vec<(&str, bool)>, usize) {
    let synopsis = usage.split("\n\n").next().unwrap_or_default();
    let (mut flags, mut positionals) = (Vec::new(), 0);
    // skip "usage:" and the binary's name
    let mut words = synopsis.split_whitespace().skip(2);
    while let Some(word) = words.next() {
        match word.strip_prefix('[') {
            Some(name) if name.starts_with("--") => match name.strip_suffix(']') {
                Some(switch) => flags.push((switch, false)),
                None => {
                    // the value's placeholder runs to the closing bracket
                    words.by_ref().find(|w| w.ends_with(']'));
                    flags.push((name, true));
                }
            },
            _ => positionals += 1,
        }
    }
    (flags, positionals)
}

/// A command line parsed against a usage text.
#[derive(Debug)]
pub struct Args {
    usage: &'static str,
    flags: Vec<(&'static str, Option<String>)>,
    positionals: Vec<String>,
}

impl Args {
    /// Parses `argv` (without the program name) against the flag table
    /// of `usage`. Returns `Ok(None)` when `--help` or `-h` asks for
    /// the usage.
    ///
    /// # Errors
    ///
    /// A message for an unknown or repeated flag, a value flag that is
    /// last or followed by another `--` argument, or more positional
    /// arguments than `usage` names.
    pub fn parse(
        usage: &'static str,
        argv: impl IntoIterator<Item = String>,
    ) -> Result<Option<Args>, String> {
        let argv: Vec<String> = argv.into_iter().collect();
        if argv.iter().any(|a| a == "--help" || a == "-h") {
            return Ok(None);
        }
        let (table, max_positionals) = table(usage);
        let mut args = Args {
            usage,
            flags: Vec::new(),
            positionals: Vec::new(),
        };
        let mut rest = argv.into_iter();
        while let Some(arg) = rest.next() {
            if !arg.starts_with('-') || arg == "-" {
                if args.positionals.len() == max_positionals {
                    return Err(format!("unexpected argument {arg:?}"));
                }
                args.positionals.push(arg);
                continue;
            }
            let Some(&(name, takes_value)) = table.iter().find(|(n, _)| *n == arg) else {
                return Err(format!("unknown flag {arg:?}"));
            };
            if args.has(name) {
                return Err(format!("{name} given twice"));
            }
            let value = match takes_value.then(|| rest.next()) {
                None => None,
                Some(Some(v)) if !v.starts_with("--") => Some(v),
                Some(_) => return Err(format!("{name} requires a value")),
            };
            args.flags.push((name, value));
        }
        Ok(Some(args))
    }

    /// Parses the process's command line against `usage`. On `--help`
    /// prints the usage and exits 0; on any other refusal prints the
    /// error and the usage to stderr and exits 2.
    pub fn from_env(usage: &'static str) -> Args {
        let argv: Result<Vec<String>, _> = std::env::args_os()
            .skip(1)
            .map(|a| a.into_string())
            .collect();
        let parsed = argv
            .map_err(|raw| format!("argument {raw:?} is not UTF-8"))
            .and_then(|argv| Args::parse(usage, argv));
        match parsed {
            Ok(Some(args)) => args,
            Ok(None) => {
                println!("{usage}");
                std::process::exit(0);
            }
            Err(msg) => exit_usage(usage, &msg),
        }
    }

    /// Whether flag `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| *n == name)
    }

    /// The value given to flag `name`, if it was given. A flag the
    /// usage does not declare is never present.
    pub fn value(&self, name: &str) -> Option<&str> {
        let (_, value) = self.flags.iter().find(|(n, _)| *n == name)?;
        value.as_deref()
    }

    /// The value given to flag `name` as a path.
    pub fn path(&self, name: &str) -> Option<PathBuf> {
        self.value(name).map(PathBuf::from)
    }

    /// The `i`-th positional argument.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }

    /// The value of flag `name` parsed as a `T`, if it was given.
    ///
    /// # Errors
    ///
    /// `"{name} expects {what}, got {raw:?}"` when it does not parse.
    pub fn parsed<T: FromStr>(&self, name: &str, what: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|raw| {
                raw.parse()
                    .map_err(|_| format!("{name} expects {what}, got {raw:?}"))
            })
            .transpose()
    }

    /// The value of flag `name` as an integer of at least 1, if it was
    /// given. Zero is refused rather than clamped: `--jobs 0` or
    /// `--shards 0` would silently degenerate (a serial "parallel" run,
    /// an empty fleet).
    ///
    /// # Errors
    ///
    /// A message naming the flag when its value is malformed or zero.
    pub fn positive_opt(&self, name: &str) -> Result<Option<u64>, String> {
        positive(name, self.value(name))
    }

    /// [`Args::positive_opt`], falling back to `default` when the flag
    /// is absent.
    ///
    /// # Errors
    ///
    /// A message naming the flag when its value is malformed or zero.
    pub fn positive(&self, name: &str, default: u64) -> Result<u64, String> {
        self.positive_opt(name).map(|n| n.unwrap_or(default))
    }

    /// The `i`-th positional argument, called `name` in messages, as an
    /// integer of at least 1, falling back to `default` when it is
    /// absent.
    ///
    /// # Errors
    ///
    /// A message naming the argument when it is malformed or zero.
    pub fn positive_at(&self, i: usize, name: &str, default: u64) -> Result<u64, String> {
        positive(name, self.positional(i)).map(|n| n.unwrap_or(default))
    }

    /// The one flag of `names` that was given, with its value.
    ///
    /// # Errors
    ///
    /// A message naming the first two when more than one was given.
    pub fn exclusive(
        &self,
        names: &[&'static str],
    ) -> Result<Option<(&'static str, &str)>, String> {
        let mut given = names.iter().filter_map(|&n| Some((n, self.value(n)?)));
        match (given.next(), given.next()) {
            (Some((a, _)), Some((b, _))) => Err(format!("{a} and {b} cannot be combined")),
            (first, _) => Ok(first),
        }
    }

    /// Unwraps a getter's result; on an error prints it with the usage
    /// and exits 2.
    pub fn or_exit<T>(&self, parsed: Result<T, String>) -> T {
        parsed.unwrap_or_else(|msg| self.fail(&msg))
    }

    /// Prints `error: {msg}` and the usage to stderr and exits 2.
    pub fn fail(&self, msg: &str) -> ! {
        exit_usage(self.usage, msg)
    }
}

/// `raw`, the value of `name`, as an integer of at least 1.
fn positive(name: &str, raw: Option<&str>) -> Result<Option<u64>, String> {
    let Some(raw) = raw else { return Ok(None) };
    match raw.parse::<u64>() {
        Ok(0) => Err(format!("{name} must be at least 1 (got 0)")),
        Ok(n) => Ok(Some(n)),
        Err(_) => Err(format!("{name} expects a positive integer, got {raw:?}")),
    }
}

fn exit_usage(usage: &str, msg: &str) -> ! {
    eprintln!("error: {msg}\n{usage}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    const USAGE: &str = "\
usage: prog [--execs N] [--out PATH] [--mode a|b]
            [--progress] COMMAND [ID]

notes name [--not-a-flag X] and NOT positionals";

    fn parse(list: &[&str]) -> Result<Option<Args>, String> {
        Args::parse(USAGE, list.iter().map(|s| s.to_string()))
    }

    fn refusal(list: &[&str]) -> String {
        match parse(list) {
            Err(msg) => msg,
            Ok(other) => panic!("{list:?} was not refused: {other:?}"),
        }
    }

    #[test]
    fn the_usage_text_is_the_table() {
        let (flags, positionals) = table(USAGE);
        assert_eq!(
            flags,
            [
                ("--execs", true),
                ("--out", true),
                ("--mode", true),
                ("--progress", false)
            ]
        );
        assert_eq!(positionals, 2);
        let (flags, positionals) = table("usage: x [--a META WITH WORDS] [--b]");
        assert_eq!(
            (flags, positionals),
            (vec![("--a", true), ("--b", false)], 0)
        );
    }

    #[test]
    fn declared_flags_and_positionals_parse_in_any_order() {
        let a = parse(&["run", "--execs", "5", "7", "--progress"])
            .unwrap()
            .unwrap();
        assert_eq!(a.value("--execs"), Some("5"));
        assert!(a.has("--progress"));
        assert!(!a.has("--out"));
        assert_eq!(a.path("--out"), None);
        assert_eq!((a.positional(0), a.positional(1)), (Some("run"), Some("7")));
        assert_eq!(a.positional(2), None);
    }

    #[test]
    fn unknown_flags_are_refused_by_name() {
        for bogus in ["--bogus", "--exces", "--execs=5", "-x", "--not-a-flag"] {
            let msg = refusal(&[bogus, "1"]);
            assert_eq!(msg, format!("unknown flag {bogus:?}"));
        }
    }

    #[test]
    fn missing_values_are_refused() {
        for list in [
            &["--out"][..],
            &["--out", "--progress"],
            &["--execs", "--out", "x"],
        ] {
            assert_eq!(refusal(list), format!("{} requires a value", list[0]));
        }
        // a dash-led value that is not a `--` flag is still a value
        let a = parse(&["--execs", "-3"]).unwrap().unwrap();
        assert_eq!(a.value("--execs"), Some("-3"));
    }

    #[test]
    fn repeated_flags_are_refused() {
        assert_eq!(
            refusal(&["--execs", "1", "--execs", "2"]),
            "--execs given twice"
        );
        assert_eq!(
            refusal(&["--progress", "--progress"]),
            "--progress given twice"
        );
    }

    #[test]
    fn extra_positionals_are_refused() {
        assert_eq!(refusal(&["status", "1", "2"]), "unexpected argument \"2\"");
        let none = Args::parse("usage: none [--a]", ["stray".to_string()]);
        assert_eq!(none.unwrap_err(), "unexpected argument \"stray\"");
    }

    #[test]
    fn help_wins_wherever_it_appears() {
        for list in [
            &["--help"][..],
            &["-h"],
            &["--bogus", "--help"],
            &["--execs", "1", "-h"],
        ] {
            assert!(matches!(parse(list), Ok(None)), "{list:?}");
        }
    }

    #[test]
    fn typed_getters_name_the_flag() {
        let a = parse(&["--execs", "0"]).unwrap().unwrap();
        assert_eq!(
            a.positive("--execs", 9).unwrap_err(),
            "--execs must be at least 1 (got 0)"
        );
        let a = parse(&["--execs", "x"]).unwrap().unwrap();
        assert_eq!(
            a.positive_opt("--execs").unwrap_err(),
            "--execs expects a positive integer, got \"x\""
        );
        assert_eq!(a.parsed::<u64>("--out", "a number"), Ok(None));
        assert_eq!(parse(&[]).unwrap().unwrap().positive("--execs", 9), Ok(9));
    }

    #[test]
    fn positional_counts_name_the_argument() {
        let a = parse(&["run", "3OOO"]).unwrap().unwrap();
        assert_eq!(
            a.positive_at(1, "ID", 9).unwrap_err(),
            "ID expects a positive integer, got \"3OOO\""
        );
        let a = parse(&["run", "0"]).unwrap().unwrap();
        assert_eq!(
            a.positive_at(1, "ID", 9).unwrap_err(),
            "ID must be at least 1 (got 0)"
        );
        let a = parse(&["run", "12"]).unwrap().unwrap();
        assert_eq!(a.positive_at(1, "ID", 9), Ok(12));
        assert_eq!(a.positive_at(2, "ID", 9), Ok(9));
    }

    #[test]
    fn exclusive_flags_name_both() {
        let a = parse(&["--out", "p", "--execs", "3"]).unwrap().unwrap();
        assert_eq!(
            a.exclusive(&["--execs", "--out"]).unwrap_err(),
            "--execs and --out cannot be combined"
        );
        assert_eq!(a.exclusive(&["--out", "--mode"]), Ok(Some(("--out", "p"))));
        assert_eq!(a.exclusive(&["--mode"]), Ok(None));
    }
}
