//! One declared flag table per command, and the one parser that reads
//! them.
//!
//! A [`Command`] lists every flag it accepts as a [`Flag`] (name, [`Kind`],
//! optional default, help line); flags shared by several commands live in
//! named [`Group`]s. [`parse`] checks a command line against the table and
//! [`usage`] renders the help text from it, so the two cannot drift apart.
//!
//! Unknown flags, flags missing their value, repeated flags and values
//! that do not fit their kind are [`FlagError`]s, which
//! [`Command::parse_or_exit`] turns into exit status 2. A value may start
//! with `-` (`--max-gap -200`, `--trace -`); only a `--name` token is
//! taken for the next flag.

use std::fmt;
use std::str::FromStr;

/// What a flag's value must look like.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Present or absent; takes no value.
    Switch,
    /// Any text: a path, `-` for stdin, or a word the command interprets.
    Text,
    /// A non-negative integer.
    Count,
    /// A comma-separated list of non-negative integers.
    Counts,
    /// A floating-point number.
    Number,
    /// One of a fixed set of words.
    Choice(&'static [&'static str]),
}

impl Kind {
    fn accepts(self, value: &str) -> bool {
        match self {
            Kind::Switch | Kind::Text => true,
            Kind::Count => value.parse::<u64>().is_ok(),
            Kind::Counts => value.split(',').all(|t| t.trim().parse::<u64>().is_ok()),
            Kind::Number => value.parse::<f64>().is_ok(),
            Kind::Choice(words) => words.contains(&value),
        }
    }

    fn metavar(self) -> String {
        match self {
            Kind::Switch => String::new(),
            Kind::Text => "<path>".into(),
            Kind::Count => "<int>".into(),
            Kind::Counts => "<int,...>".into(),
            Kind::Number => "<num>".into(),
            Kind::Choice(words) => format!("<{}>", words.join("|")),
        }
    }
}

/// One accepted flag.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The spelling on the command line, `--` included.
    pub name: &'static str,
    /// What its value must look like.
    pub kind: Kind,
    /// The value used when the flag is absent, if there is a fixed one.
    pub default: Option<&'static str>,
    /// One line for the usage text.
    pub help: &'static str,
    /// A second spelling of the same flag.
    pub alias: Option<&'static str>,
}

impl Flag {
    /// A flag with no default and no alias.
    pub const fn new(name: &'static str, kind: Kind, help: &'static str) -> Self {
        Flag { name, kind, default: None, help, alias: None }
    }

    /// Sets the value used when the flag is absent.
    pub const fn default(mut self, value: &'static str) -> Self {
        self.default = Some(value);
        self
    }

    /// Adds a second spelling.
    pub const fn alias(mut self, name: &'static str) -> Self {
        self.alias = Some(name);
        self
    }
}

/// Flags shared by several commands, listed once in the usage text.
#[derive(Debug)]
pub struct Group {
    /// Heading in the usage text.
    pub name: &'static str,
    /// The flags.
    pub flags: &'static [Flag],
}

/// A subcommand or a binary: its own flags plus any shared groups.
#[derive(Debug)]
pub struct Command {
    /// The subcommand or binary name.
    pub name: &'static str,
    /// One line saying what it does.
    pub about: &'static str,
    /// Flags only this command takes.
    pub flags: &'static [Flag],
    /// Shared groups this command also takes.
    pub groups: &'static [&'static Group],
    /// Placeholder for positional arguments; `None` if it takes none.
    pub positional: Option<&'static str>,
}

impl Command {
    /// A command with no positional arguments.
    pub const fn new(
        name: &'static str,
        about: &'static str,
        flags: &'static [Flag],
        groups: &'static [&'static Group],
    ) -> Self {
        Command { name, about, flags, groups, positional: None }
    }

    /// Every flag the command accepts, own flags first.
    pub fn all_flags(&self) -> impl Iterator<Item = &'static Flag> {
        let groups = self.groups.iter().flat_map(|g| g.flags.iter());
        self.flags.iter().chain(groups)
    }

    /// Parses `args` (program and subcommand name stripped), or prints the
    /// error and `usage: <program> ...` and exits with status 2.
    pub fn parse_or_exit(&'static self, program: &str, args: &[String]) -> Args {
        parse(self, args).unwrap_or_else(|e| exit_usage(format!("{e}\n\n{}", self.usage(program))))
    }

    /// `usage: <program> [flags]`, the about line and every flag.
    pub fn usage(&self, program: &str) -> String {
        let positional = self.positional.map_or(String::new(), |p| format!(" {p}"));
        let mut out = format!("usage: {program}{positional} [flags]\n  {}\n", self.about);
        flag_lines(&mut out, self.flags);
        for g in self.groups {
            out.push_str(&format!("  {}:\n", g.name));
            flag_lines(&mut out, g.flags);
        }
        out
    }
}

/// Why a command line does not fit its table.
#[derive(Debug, Clone, PartialEq)]
pub enum FlagError {
    /// A `--flag` the command does not declare.
    Unknown { command: &'static str, flag: String },
    /// A value flag at the end of the line or followed by another flag.
    MissingValue { flag: &'static str },
    /// The same flag (or its alias) given twice.
    Repeated { flag: &'static str },
    /// A value that does not fit the flag's kind.
    BadValue { flag: &'static str, value: String, expected: String },
    /// A positional argument to a command that takes none.
    Unexpected { command: &'static str, arg: String },
}

impl fmt::Display for FlagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlagError::Unknown { command, flag } => write!(f, "unknown flag {flag} for {command}"),
            FlagError::MissingValue { flag } => write!(f, "{flag} needs a value"),
            FlagError::Repeated { flag } => write!(f, "{flag} given more than once"),
            FlagError::BadValue { flag, value, expected } => {
                write!(f, "invalid value '{value}' for {flag} (expected {expected})")
            }
            FlagError::Unexpected { command, arg } => {
                write!(f, "unexpected argument '{arg}' for {command}")
            }
        }
    }
}

impl std::error::Error for FlagError {}

/// A command line that fits its table.
#[derive(Debug)]
pub struct Args {
    command: &'static Command,
    given: Vec<(&'static str, String)>,
    /// Positional arguments, in order.
    pub positional: Vec<String>,
}

/// Checks `args` against `command`'s table.
pub fn parse(command: &'static Command, args: &[String]) -> Result<Args, FlagError> {
    let mut parsed = Args { command, given: Vec::new(), positional: Vec::new() };
    let mut rest = args.iter();
    while let Some(token) = rest.next() {
        if !token.starts_with("--") {
            if command.positional.is_none() {
                return Err(FlagError::Unexpected { command: command.name, arg: token.clone() });
            }
            parsed.positional.push(token.clone());
            continue;
        }
        let flag = command
            .all_flags()
            .find(|f| f.name == token || f.alias == Some(token))
            .ok_or_else(|| FlagError::Unknown { command: command.name, flag: token.clone() })?;
        if parsed.given.iter().any(|(name, _)| *name == flag.name) {
            return Err(FlagError::Repeated { flag: flag.name });
        }
        let value = if flag.kind == Kind::Switch {
            String::new()
        } else {
            match rest.next() {
                Some(v) if !v.starts_with("--") => v.clone(),
                _ => return Err(FlagError::MissingValue { flag: flag.name }),
            }
        };
        if !flag.kind.accepts(&value) {
            let expected = flag.kind.metavar();
            return Err(FlagError::BadValue { flag: flag.name, value, expected });
        }
        parsed.given.push((flag.name, value));
    }
    Ok(parsed)
}

impl Args {
    fn declared(&self, name: &str) -> &'static Flag {
        let flag = self.command.all_flags().find(|f| f.name == name);
        flag.unwrap_or_else(|| panic!("{} reads undeclared flag {name}", self.command.name))
    }

    /// `true` iff the flag was given.
    pub fn has(&self, name: &str) -> bool {
        let flag = self.declared(name);
        self.given.iter().any(|(given, _)| *given == flag.name)
    }

    /// The given value, or else the declared default.
    pub fn str(&self, name: &str) -> Option<&str> {
        let flag = self.declared(name);
        let given = self.given.iter().find(|(given, _)| *given == flag.name);
        given.map(|(_, v)| v.as_str()).or(flag.default)
    }

    /// [`Args::str`] parsed as `T`; a value that does not parse as `T`
    /// exits with status 2.
    pub fn opt<T: FromStr>(&self, name: &str) -> Option<T>
    where
        T::Err: fmt::Display,
    {
        let value = self.str(name)?;
        let parsed =
            value.parse().map_err(|e: T::Err| format!("invalid value '{value}' for {name}: {e}"));
        Some(parsed.unwrap_or_else(|e| exit_usage(e)))
    }

    /// [`Args::opt`], or `fallback` for a flag whose default depends on
    /// other input.
    pub fn get_or<T: FromStr>(&self, name: &str, fallback: T) -> T
    where
        T::Err: fmt::Display,
    {
        self.opt(name).unwrap_or(fallback)
    }

    /// [`Args::opt`] for a flag with a declared default.
    pub fn get<T: FromStr>(&self, name: &str) -> T
    where
        T::Err: fmt::Display,
    {
        self.opt(name).unwrap_or_else(|| panic!("{name} has no declared default"))
    }

    /// A value the command cannot run without; its absence exits with
    /// status 2.
    pub fn required(&self, name: &str) -> &str {
        let command = self.command.name;
        self.str(name).unwrap_or_else(|| exit_usage(format!("{command} needs {name} <value>")))
    }
}

/// Prints `error: <msg>` and exits with status 2 (bad input).
pub fn exit_usage(msg: impl fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Prints `error: <msg>` and exits with status 1 (a runtime failure).
pub fn exit_failure(msg: impl fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

fn flag_lines(out: &mut String, flags: &[Flag]) {
    for f in flags {
        let alias = f.alias.map_or(String::new(), |a| format!(" (alias {a})"));
        let spelling = format!("{} {}{alias}", f.name, f.kind.metavar());
        let default = f.default.map_or(String::new(), |d| format!(" [default {d}]"));
        out.push_str(&format!("      {:<36} {}{default}\n", spelling.trim_end(), f.help));
    }
}

/// Usage text for a program with subcommands: each command with its own
/// flags, then each shared group once.
pub fn usage(program: &str, about: &str, commands: &[Command]) -> String {
    let mut out =
        format!("{program} — {about}\n\nusage: {program} <command> [flags]\n\ncommands:\n");
    let mut groups: Vec<&Group> = Vec::new();
    for c in commands {
        let positional = c.positional.map_or(String::new(), |p| format!(" {p}"));
        out.push_str(&format!("  {}{positional}\n      {}\n", c.name, c.about));
        flag_lines(&mut out, c.flags);
        if !c.groups.is_empty() {
            let names: Vec<&str> = c.groups.iter().map(|g| g.name).collect();
            out.push_str(&format!("      + {}\n", names.join(", ")));
        }
        for g in c.groups {
            if !groups.iter().any(|seen| seen.name == g.name) {
                groups.push(g);
            }
        }
    }
    for g in groups {
        out.push_str(&format!("\n{}:\n", g.name));
        flag_lines(&mut out, g.flags);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    static SHARED: Group = Group {
        name: "shared flags",
        flags: &[Flag::new("--dt", Kind::Number, "delay").default("5")],
    };
    static CMD: Command = Command::new(
        "demo",
        "a demo command",
        &[
            Flag::new("--seed", Kind::Count, "seed").default("1"),
            Flag::new("--workers", Kind::Count, "threads").alias("--threads"),
            Flag::new("--m", Kind::Counts, "sizes"),
            Flag::new("--trace", Kind::Text, "trace"),
            Flag::new("--policy", Kind::Choice(&["jsq", "rnd"]), "tier").default("jsq"),
            Flag::new("--quick", Kind::Switch, "small"),
        ],
        &[&SHARED],
    );

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn values_defaults_aliases_and_switches() {
        let a = parse(&CMD, &args("--threads 3 --dt -2.5 --quick --trace - --m 5,10")).unwrap();
        assert_eq!(a.get::<usize>("--workers"), 3);
        assert_eq!(a.get::<f64>("--dt"), -2.5);
        assert_eq!(a.str("--trace"), Some("-"));
        assert_eq!(a.str("--m"), Some("5,10"));
        assert!(a.has("--quick") && !a.has("--seed"));
        assert_eq!(a.get::<u64>("--seed"), 1);
        assert_eq!(a.str("--policy"), Some("jsq"));
        assert!(parse(&CMD, &[]).unwrap().str("--trace").is_none());
    }

    #[test]
    fn every_malformed_line_names_its_flag() {
        let cases = [
            ("--bogus 1", "--bogus"),
            ("--seed", "--seed"),
            ("--seed --quick", "--seed"),
            ("--seed x", "--seed"),
            ("--seed -1", "--seed"),
            ("--m 5,x", "--m"),
            ("--dt abc", "--dt"),
            ("--policy warp", "--policy"),
            ("--workers 1 --threads 2", "--workers"),
            ("--quick --quick", "--quick"),
        ];
        for (line, flag) in cases {
            let err = parse(&CMD, &args(line)).unwrap_err();
            assert!(err.to_string().contains(flag), "{line}: {err}");
        }
        assert!(matches!(parse(&CMD, &args("stray")), Err(FlagError::Unexpected { .. })));
    }

    #[test]
    fn usage_lists_every_flag_once() {
        let text = usage("prog", "demo program", std::slice::from_ref(&CMD));
        for f in CMD.all_flags() {
            assert_eq!(text.matches(&format!("{} ", f.name)).count(), 1, "{}\n{text}", f.name);
        }
        assert!(text.contains("alias --threads") && text.contains("<jsq|rnd>"), "{text}");
        assert!(CMD.usage("prog demo").contains("--dt <num>"));
    }
}
